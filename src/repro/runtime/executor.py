"""The work-list dispatcher: :class:`TrialRunner`.

``TrialRunner.map`` is the one fan-out of embarrassingly parallel
work-lists in the library: the per-tuple permutation trials of the
training pipeline (each item runs :func:`tuple_trials`), Table 4 rows,
evaluation cells and sensitivity sweep points.  It turns a work-list
into one picklable :class:`~repro.runtime.pool.ChunkCall` per item and
hands them to its :class:`~repro.runtime.pool.WorkerPool`.

Determinism contract
--------------------
Results are **bit-identical** for every worker count:

* the work-list and its per-item seed sequences are fully materialised
  *before* dispatch (training tuple ``k`` always gets child ``k`` of the
  root seed, exactly as the historical serial loop did);
* calls carry their item indices, so completion order — which *is*
  nondeterministic — only affects progress-reporting order, never the
  position a result lands in;
* ``workers=1`` runs a plain in-process loop (no pool, no pickling).

Lifecycle: the pool keeps its worker processes alive between fan-outs,
so runners are context managers — ``with TrialRunner(workers) as
runner: ...`` — or call :meth:`TrialRunner.close` when done.  The serial
path starts no workers, so forgetting to close is harmless there.  A
work item that raises surfaces as the same exception type on every path
(contract 3 in :mod:`repro.runtime.pool`).
"""

from __future__ import annotations

import warnings
from collections.abc import Callable, Sequence

import numpy as np

from repro.core.taskgen import TaskSetTuple
from repro.core.trials import ROUNDING_WARNING_PREFIX, TrialScoreResult, run_trials
from repro.obs.metrics import current_registry
from repro.runtime.config import resolve_workers
from repro.runtime.pool import ChunkCall, WorkerPool, call_chunk
from repro.runtime.progress import ProgressAggregator, ProgressCallback

__all__ = ["TrialRunner", "tuple_trials"]

#: Marks a result slot no call has filled yet (``None`` is a legitimate
#: result of a mapped function).
_UNFILLED = object()


def tuple_trials(
    nmax: int,
    n_trials: int,
    balanced: bool,
    tau: float,
    item: tuple[TaskSetTuple, np.random.SeedSequence],
) -> TrialScoreResult:
    """The permutation trials of one ``(tuple, seed sequence)`` item.

    The work item of :func:`repro.core.pipeline.build_distribution`,
    mapped with the other arguments bound by ``functools.partial``.  The
    seed sequence is pre-spawned per tuple index, so the stream a tuple
    sees does not depend on the process that runs it.  The caller warns
    about balanced-block rounding once up front; the per-tuple
    duplicates are suppressed here.
    """
    tup, seedseq = item
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message=ROUNDING_WARNING_PREFIX)
        return run_trials(
            tup,
            nmax,
            n_trials,
            seed=np.random.default_rng(seedseq),
            balanced=balanced,
            tau=tau,
        )


class TrialRunner:
    """Dispatch deterministic work-lists, serially or over a worker pool.

    *workers* is a count or ``"auto"``; ``None`` resolves through
    :func:`~repro.runtime.config.resolve_workers`.  ``1`` runs
    everything serially in-process.
    """

    def __init__(self, workers: int | str | None = None) -> None:
        self.n_workers = resolve_workers(workers)
        self._pool: WorkerPool | None = None

    @property
    def pool(self) -> WorkerPool:
        """The worker pool (created lazily on first use)."""
        if self._pool is None:
            self._pool = WorkerPool(self.n_workers)
        return self._pool

    def close(self) -> None:
        """Stop the pool's workers (idempotent)."""
        if self._pool is not None:
            self._pool.close()

    def __enter__(self) -> "TrialRunner":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def map(
        self,
        fn: Callable,
        items: Sequence,
        *,
        progress: ProgressCallback | None = None,
        phase: str = "tasks",
        on_result: Callable[[int, object], None] | None = None,
    ) -> list:
        """``[fn(x) for x in items]`` with the runtime's dispatch policy.

        *fn* must be a module-level callable (or a ``functools.partial``
        of one) with picklable arguments when a worker process runs it.
        Result order always matches item order.  ``on_result(index,
        result)`` sees each result in the parent as it lands — in item
        order serially, in completion order on the pool — before
        *progress* counts it.
        """
        aggregator = ProgressAggregator(progress, phase, len(items))

        if self.n_workers == 1:
            results = []
            for index, item in enumerate(items):
                result = fn(item)
                if on_result is not None:
                    on_result(index, result)
                results.append(result)
                aggregator.advance()
            return results

        collect = current_registry().enabled
        calls = [ChunkCall(call_chunk, (fn, item, collect)) for item in items]
        results = [_UNFILLED] * len(items)
        for index, result in self.pool.run(calls, aggregator):
            if on_result is not None:
                on_result(index, result)
            results[index] = result
        missing = [k for k, r in enumerate(results) if r is _UNFILLED]
        if missing:
            raise RuntimeError(f"worker calls returned no result for items {missing}")
        return results

