"""The work-list dispatcher: :class:`TrialRunner`.

``TrialRunner`` owns the fan-out of embarrassingly parallel work-lists —
the per-tuple permutation trials of the training pipeline
(:meth:`TrialRunner.run_tuple_trials`) and arbitrary experiment tasks
(:meth:`TrialRunner.map`, used for Table 4 rows, evaluation cells and
sensitivity sweeps).  It turns a work-list into a deterministic shard
plan and a list of picklable :class:`~repro.runtime.backends.ChunkCall`\\ s,
then hands execution to the configured
:class:`~repro.runtime.backends.ExecutorBackend` (``local`` or
``workqueue`` — see :mod:`repro.runtime.backends`).

Determinism contract
--------------------
Results are **bit-identical** for every ``(workers, chunk_size,
backend)``:

* the work-list and its per-item seed sequences are fully materialised
  *before* dispatch (item ``k`` always gets child ``k`` of the root
  seed, exactly as the historical serial loop did);
* chunks carry their item indices, so completion order — which *is*
  nondeterministic — only affects progress-reporting order, never the
  position a result lands in;
* ``workers=1`` short-circuits to a plain in-process loop (no pool, no
  pickling) on backends that allow it (``inline_serial``), preserving
  the pre-runtime code path byte for byte; the work-queue backend opts
  out so its queue protocol is exercised even single-worker — and its
  results are identical anyway, because the chunk functions are pure.

Lifecycle: backends may hold persistent resources (the ``local``
backend keeps its worker processes alive between fan-outs), so runners
are context managers — ``with TrialRunner(cfg) as runner: ...`` — or
call :meth:`TrialRunner.close` when done.  The serial path starts no
workers, so forgetting to close is harmless there.  A work item that
raises surfaces as the same exception type on every path (contract 3 in
:mod:`repro.runtime.backends`).
"""

from __future__ import annotations

import warnings
from collections.abc import Callable, Sequence

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
from repro.runtime.backends import ChunkCall, ExecutorBackend, create_backend
from repro.runtime.config import ExecutorConfig
from repro.runtime.progress import ProgressAggregator, ProgressCallback
from repro.runtime.sharding import plan_shards
from repro.runtime.worker import call_chunk, run_trial_chunk
from repro.sim.metrics import DEFAULT_TAU
from repro.util.rng import SeedLike, spawn_seed_sequences

__all__ = ["TrialRunner"]


class TrialRunner:
    """Dispatch deterministic work-lists over an executor backend."""

    def __init__(self, config: ExecutorConfig | None = None) -> None:
        self.config = config or ExecutorConfig()
        self._backend: ExecutorBackend | None = None

    @property
    def backend(self) -> ExecutorBackend:
        """The backend instance (created lazily on first use)."""
        if self._backend is None:
            self._backend = create_backend(self.config)
        return self._backend

    def close(self) -> None:
        """Release backend resources (idempotent)."""
        if self._backend is not None:
            self._backend.close()

    def __enter__(self) -> "TrialRunner":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _serial_inline(self) -> bool:
        """Whether this config runs the in-process serial loop."""
        return self.config.n_workers == 1 and type(self.backend).inline_serial

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
    ) -> list[TrialScoreResult]:
        """Run every tuple's permutation trials, serial or fanned out.

        Tuple ``k`` always simulates under child ``k`` of *root_seed*,
        so the returned list is bit-identical for any worker count,
        chunk size or backend (including the ``workers=1`` in-process
        path).
        """
        n = len(tuples)
        seeds = spawn_seed_sequences(root_seed, n)
        aggregator = ProgressAggregator(progress, phase, n)

        if balanced and n > 0:
            # Warn about balanced-block rounding once per distinct |Q|
            # rather than per tuple; the per-tuple duplicates from
            # run_trials are suppressed below (serial) and in
            # run_trial_chunk (workers).
            rounded_q_sizes = sorted(
                {
                    len(tup.Q)
                    for tup in tuples
                    if balanced_trial_count(trials_per_tuple, len(tup.Q))
                    != trials_per_tuple
                }
            )
            for m_q in rounded_q_sizes:
                warnings.warn(
                    format_rounding_warning(trials_per_tuple, m_q), stacklevel=2
                )

        if self._serial_inline():
            results: list[TrialScoreResult] = []
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", message=ROUNDING_WARNING_PREFIX)
                for tup, seedseq in zip(tuples, seeds):
                    results.append(
                        run_trials(
                            tup,
                            nmax,
                            trials_per_tuple,
                            seed=np.random.default_rng(seedseq),
                            balanced=balanced,
                            tau=tau,
                        )
                    )
                    aggregator.advance()
            return results

        items = [(i, tup, seedseq) for i, (tup, seedseq) in enumerate(zip(tuples, seeds))]
        shards = plan_shards(n, self.config.chunk_for(n))
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
            for shard in shards
        ]
        slots = self.backend.execute(calls, n, aggregator)
        missing = [i for i, r in enumerate(slots) if r is None]
        if missing:
            raise RuntimeError(
                f"worker chunks returned no result for tuple indices {missing}"
            )
        return slots

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

        if self._serial_inline():
            results = []
            for item in items:
                results.append(fn(item))
                aggregator.advance()
            return results

        indexed = list(enumerate(items))
        chunk = self.config.chunk_size if self.config.chunk_size is not None else 1
        shards = plan_shards(n, chunk)
        collect = current_registry().enabled
        calls = [
            ChunkCall(
                call_chunk, (fn, [indexed[i] for i in shard], collect), len(shard)
            )
            for shard in shards
        ]
        # No missing-slot guard here: None is a legitimate fn return value.
        return self.backend.execute(calls, n, aggregator)
