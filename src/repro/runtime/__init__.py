"""repro.runtime — parallel execution substrate for the whole library.

The paper's policy-obtaining procedure simulates ``n_tuples x
trials_per_tuple`` independent list-scheduling runs; Table 4 regenerates
18 independent experiments; sensitivity sweeps re-run rows per seed.
All of it is embarrassingly parallel, and all of it funnels through this
package:

* :class:`ExecutorConfig` — declarative dispatch policy: ``workers``
  (int or ``"auto"``) and ``chunk_size``; an unset worker count
  resolves through :mod:`repro.runtime.config`, where every ``REPRO_*``
  run knob is read.
* :class:`TrialRunner` — shards a work-list deterministically
  (:mod:`repro.runtime.sharding`), builds picklable pure chunk calls
  (:mod:`repro.runtime.worker`), runs them on its persistent
  work-stealing :class:`~repro.runtime.pool.WorkerPool`, and
  reassembles results by item index.  ``workers=1`` is a plain
  in-process loop.  Serial and parallel runs are **bit-identical** for
  any worker count and chunk size, because per-item seed streams
  depend only on ``(root_seed, item_index)``.
* :class:`ArtifactCache` — content-addressed, config-hash-keyed store of
  simulation outputs (lossless npz via :mod:`repro.core.datastore`), so
  repeated runs of an unchanged config skip simulation entirely, and a
  killed training run resumes from the tuples it already stored.
* :class:`ProgressAggregator` — folds out-of-order chunk completions
  back into the library's monotone ``progress(phase, done, total)``
  callback contract.
"""

from repro.runtime.cache import ArtifactCache, coerce_cache, config_fingerprint
from repro.runtime.config import (
    ExecutorConfig,
    resolve_scale,
    resolve_sim_kernel,
    resolve_workers,
)
from repro.runtime.executor import TrialRunner
from repro.runtime.pool import ChunkCall, WorkerPool
from repro.runtime.progress import ProgressAggregator
from repro.runtime.sharding import plan_shards

__all__ = [
    "ArtifactCache",
    "ChunkCall",
    "ExecutorConfig",
    "ProgressAggregator",
    "TrialRunner",
    "WorkerPool",
    "coerce_cache",
    "config_fingerprint",
    "plan_shards",
    "resolve_scale",
    "resolve_sim_kernel",
    "resolve_workers",
]
