"""repro.runtime — parallel execution substrate for the whole library.

The paper's policy-obtaining procedure simulates ``n_tuples x
trials_per_tuple`` independent list-scheduling runs; Table 4 regenerates
18 independent experiments; sensitivity sweeps re-run rows per seed.
All of it is embarrassingly parallel, and all of it funnels through this
package:

* :class:`TrialRunner` — its one fan-out, :meth:`TrialRunner.map`,
  runs one picklable pure call per item on the runner's persistent
  work-stealing worker processes and reassembles results by item
  index.  ``workers`` is a count or
  ``"auto"``; an unset count resolves through
  :mod:`repro.runtime.config`, where every ``REPRO_*`` run knob is
  read.  ``workers=1`` is a plain in-process loop.  Serial and
  parallel runs are **bit-identical** for any worker count, because
  per-item seed streams depend only on ``(root_seed, item_index)``.
* :class:`ArtifactCache` — content-addressed, config-hash-keyed store of
  simulation outputs (lossless npz), so repeated runs of an unchanged
  config skip simulation entirely, and a killed training run resumes
  from the tuples it already stored.

:meth:`TrialRunner.map` reports progress as ``progress(phase, done,
total)`` with *done* rising by one per landed result, whatever order
the workers finish in.
"""

from repro.runtime.cache import ArtifactCache, coerce_cache, config_fingerprint
from repro.runtime.config import resolve_scale, resolve_sim_kernel, resolve_workers
from repro.runtime.executor import TrialRunner

__all__ = [
    "ArtifactCache",
    "TrialRunner",
    "coerce_cache",
    "config_fingerprint",
    "resolve_scale",
    "resolve_sim_kernel",
    "resolve_workers",
]
