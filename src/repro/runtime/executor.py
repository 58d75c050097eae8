"""The work-list dispatcher: :class:`TrialRunner`.

``TrialRunner`` owns the fan-out of embarrassingly parallel work-lists —
the per-tuple permutation trials of the training pipeline
(:meth:`TrialRunner.run_tuple_trials`) and arbitrary experiment tasks
(:meth:`TrialRunner.map`, used for Table 4 rows, evaluation cells and
sensitivity sweeps).  It turns a work-list into a deterministic shard
plan and a list of picklable :class:`~repro.runtime.pool.ChunkCall`\\ s,
then hands them to its :class:`~repro.runtime.pool.WorkerPool`.

Determinism contract
--------------------
Results are **bit-identical** for every ``(workers, chunk_size)``:

* the work-list and its per-item seed sequences are fully materialised
  *before* dispatch (item ``k`` always gets child ``k`` of the root
  seed, exactly as the historical serial loop did);
* chunks carry their item indices, so completion order — which *is*
  nondeterministic — only affects progress-reporting order, never the
  position a result lands in;
* ``workers=1`` runs a plain in-process loop (no pool, no pickling).

Lifecycle: the pool keeps its worker processes alive between fan-outs,
so runners are context managers — ``with TrialRunner(cfg) as runner:
...`` — or call :meth:`TrialRunner.close` when done.  The serial path
starts no workers, so forgetting to close is harmless there.  A work
item that raises surfaces as the same exception type on every path
(contract 3 in :mod:`repro.runtime.pool`).
"""

from __future__ import annotations

import warnings
from collections.abc import Callable, Mapping, Sequence

import numpy as np

from repro.core.taskgen import TaskSetTuple
from repro.core.trials import (
    ROUNDING_WARNING_PREFIX,
    TrialScoreResult,
    balanced_trial_count,
    format_rounding_warning,
    run_trials,
)
from repro.obs.metrics import current_registry
from repro.runtime.config import ExecutorConfig
from repro.runtime.pool import ChunkCall, WorkerPool
from repro.runtime.progress import ProgressAggregator, ProgressCallback
from repro.runtime.sharding import plan_shards
from repro.runtime.worker import call_chunk, run_trial_chunk
from repro.sim.metrics import DEFAULT_TAU
from repro.util.rng import SeedLike, spawn_seed_sequences

__all__ = ["TrialRunner"]


class TrialRunner:
    """Dispatch deterministic work-lists, serially or over a worker pool."""

    def __init__(self, config: ExecutorConfig | None = None) -> None:
        self.config = config or ExecutorConfig()
        self._pool: WorkerPool | None = None

    @property
    def pool(self) -> WorkerPool:
        """The worker pool (created lazily on first use)."""
        if self._pool is None:
            self._pool = WorkerPool(self.config.n_workers)
        return self._pool

    def close(self) -> None:
        """Stop the pool's workers (idempotent)."""
        if self._pool is not None:
            self._pool.close()

    def __enter__(self) -> "TrialRunner":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # trial simulation
    # ------------------------------------------------------------------
    def run_tuple_trials(
        self,
        tuples: Sequence[TaskSetTuple],
        *,
        nmax: int,
        trials_per_tuple: int,
        root_seed: SeedLike,
        balanced: bool = True,
        tau: float = DEFAULT_TAU,
        progress: ProgressCallback | None = None,
        phase: str = "trials",
        done: Mapping[int, TrialScoreResult] | None = None,
        on_result: Callable[[int, TrialScoreResult], None] | None = None,
    ) -> list[TrialScoreResult]:
        """Run every tuple's permutation trials, serial or fanned out.

        Tuple ``k`` always simulates under child ``k`` of *root_seed*,
        so the returned list is bit-identical for any worker count or
        chunk size (including the ``workers=1`` in-process path).
        Tuples whose index is in *done* are not simulated: their given
        results take their slots.  ``on_result(k, result)`` sees each
        fresh result in the parent as it lands — after each tuple
        serially, per chunk on the pool.
        """
        n = len(tuples)
        seeds = spawn_seed_sequences(root_seed, n)
        done = done or {}
        todo = [k for k in range(n) if k not in done]
        aggregator = ProgressAggregator(progress, phase, n)
        if done:
            aggregator.advance(len(done))

        if balanced and todo:
            # Warn about balanced-block rounding once per distinct |Q|
            # rather than per tuple; the per-tuple duplicates from
            # run_trials are suppressed below (serial) and in
            # run_trial_chunk (workers).
            rounded_q_sizes = sorted(
                {
                    len(tuples[k].Q)
                    for k in todo
                    if balanced_trial_count(trials_per_tuple, len(tuples[k].Q))
                    != trials_per_tuple
                }
            )
            for m_q in rounded_q_sizes:
                warnings.warn(
                    format_rounding_warning(trials_per_tuple, m_q), stacklevel=2
                )

        results: list = [done.get(k) for k in range(n)]
        if self.config.n_workers == 1:
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", message=ROUNDING_WARNING_PREFIX)
                for k in todo:
                    result = run_trials(
                        tuples[k],
                        nmax,
                        trials_per_tuple,
                        seed=np.random.default_rng(seeds[k]),
                        balanced=balanced,
                        tau=tau,
                    )
                    if on_result is not None:
                        on_result(k, result)
                    results[k] = result
                    aggregator.advance()
            return results

        items = [(k, tuples[k], seeds[k]) for k in todo]
        collect = current_registry().enabled
        calls = [
            ChunkCall(
                run_trial_chunk,
                (
                    [items[i] for i in shard],
                    nmax,
                    trials_per_tuple,
                    balanced,
                    tau,
                    collect,
                ),
                len(shard),
            )
            for shard in plan_shards(len(items), self.config.chunk_for(len(items)))
        ]
        for pairs in self.pool.run(calls, aggregator):
            for k, result in pairs:
                if on_result is not None:
                    on_result(k, result)
                results[k] = result
        missing = [k for k, r in enumerate(results) if r is None]
        if missing:
            raise RuntimeError(
                f"worker chunks returned no result for tuple indices {missing}"
            )
        return results

    # ------------------------------------------------------------------
    # generic fan-out
    # ------------------------------------------------------------------
    def map(
        self,
        fn: Callable,
        items: Sequence,
        *,
        progress: ProgressCallback | None = None,
        phase: str = "tasks",
    ) -> list:
        """``[fn(x) for x in items]`` with the runtime's dispatch policy.

        *fn* must be a module-level callable (or a ``functools.partial``
        of one) with picklable arguments when a worker process runs it.
        Result order always matches item order.  Unlike
        :meth:`run_tuple_trials` the default chunk here is 1 — map tasks
        (whole experiment rows) are coarse enough that load balancing
        beats batching.
        """
        n = len(items)
        aggregator = ProgressAggregator(progress, phase, n)

        if self.config.n_workers == 1:
            results = []
            for item in items:
                results.append(fn(item))
                aggregator.advance()
            return results

        indexed = list(enumerate(items))
        chunk = self.config.chunk_size if self.config.chunk_size is not None else 1
        collect = current_registry().enabled
        calls = [
            ChunkCall(
                call_chunk, (fn, [indexed[i] for i in shard], collect), len(shard)
            )
            for shard in plan_shards(n, chunk)
        ]
        # No missing-slot check here: None is a legitimate fn return value.
        results = [None] * n
        for pairs in self.pool.run(calls, aggregator):
            for index, result in pairs:
                results[index] = result
        return results
