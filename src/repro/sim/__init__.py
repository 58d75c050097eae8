"""Discrete-event cluster simulator (the paper's SimGrid substitute).

Public surface:

* :class:`~repro.sim.job.Workload` — job data (a stream carries the same
  jobs as ``(k, 5)`` job blocks, :data:`~repro.sim.job.BLOCK_COLUMNS`).
* :func:`~repro.sim.engine.simulate` — online scheduling under a policy,
  with optional user estimates, backfilling and a partitioned platform.
* :func:`~repro.sim.metrics.bounded_slowdown` (Eq. 1) and
  :func:`~repro.sim.metrics.average_bounded_slowdown` (Eq. 2).

Both simulators — the engine and the training trial simulator
(:mod:`~repro.sim.listsched`: one general fixed-priority batch and
training's permutation trials) — are thin configurations of the one
event-heap loop in :mod:`~repro.sim.kernel` (``REPRO_SIM_KERNEL``
selects the compiled or pure-Python backend; results are
bit-identical).  The compiled backend has two entries: one run, and
the permutation-trial batch.  Import anything else from its submodule.
"""

from repro.sim.engine import ScheduleResult, simulate
from repro.sim.job import Workload
from repro.sim.metrics import average_bounded_slowdown, bounded_slowdown

__all__ = [
    "ScheduleResult",
    "Workload",
    "average_bounded_slowdown",
    "bounded_slowdown",
    "simulate",
]
