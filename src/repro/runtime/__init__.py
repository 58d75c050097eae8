"""repro.runtime — parallel execution substrate for the whole library.

The paper's policy-obtaining procedure simulates ``n_tuples x
trials_per_tuple`` independent list-scheduling runs; Table 4 regenerates
18 independent experiments; sensitivity sweeps re-run rows per seed.
All of it is embarrassingly parallel, and all of it funnels through this
package:

* :class:`ExecutorConfig` — declarative dispatch policy: ``workers``
  (int or ``"auto"``), ``chunk_size``, multiprocessing start method,
  and ``backend`` (one of :data:`BACKEND_NAMES`); unset fields resolve
  through :mod:`repro.runtime.config`, where every ``REPRO_*`` run knob
  is read.
* :class:`TrialRunner` — shards a work-list deterministically
  (:mod:`repro.runtime.sharding`), builds picklable pure chunk calls
  (:mod:`repro.runtime.worker`), hands them to the configured
  :class:`ExecutorBackend` (:mod:`repro.runtime.backends` — the
  persistent work-stealing ``local`` pool, the default, or the
  crash-resumable filesystem ``workqueue``), and reassembles results by
  item index.  ``workers=1`` is a plain in-process loop.  Serial and
  parallel runs are **bit-identical** for any worker count, chunk size
  and backend, because per-item seed streams depend only on
  ``(root_seed, item_index)``.
* :class:`ArtifactCache` — content-addressed, config-hash-keyed store of
  simulation outputs (lossless npz via :mod:`repro.core.datastore`), so
  repeated runs of an unchanged config skip simulation entirely.
* :class:`ProgressAggregator` — folds out-of-order chunk completions
  back into the library's monotone ``progress(phase, done, total)``
  callback contract.

Every future scaling direction (async engines, multi-backend dispatch,
distributed sweeps) plugs in behind :class:`TrialRunner`'s interface.
"""

from repro.runtime.backends import ChunkCall, ExecutorBackend, create_backend
from repro.runtime.cache import ArtifactCache, coerce_cache, config_fingerprint
from repro.runtime.config import (
    BACKEND_NAMES,
    ExecutorConfig,
    resolve_backend,
    resolve_scale,
    resolve_sim_kernel,
    resolve_workers,
)
from repro.runtime.executor import TrialRunner
from repro.runtime.progress import ProgressAggregator
from repro.runtime.sharding import plan_shards

__all__ = [
    "ArtifactCache",
    "BACKEND_NAMES",
    "ChunkCall",
    "ExecutorBackend",
    "ExecutorConfig",
    "ProgressAggregator",
    "TrialRunner",
    "coerce_cache",
    "config_fingerprint",
    "create_backend",
    "plan_shards",
    "resolve_backend",
    "resolve_scale",
    "resolve_sim_kernel",
    "resolve_workers",
]
