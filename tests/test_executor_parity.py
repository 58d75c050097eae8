"""Randomized bit-parity: the worker pool vs the serial loop.

The runtime's headline contract — results are **bit-identical** for any
``(workers, chunk_size)`` — is asserted here the same way
``tests/test_sim_kernel_parity.py`` pins the simulation kernel: seeded
random inputs, exhaustive small sweeps, and ``tobytes()`` comparisons
rather than approximate ones.  Two work kinds are swept, matching the
two dispatch surfaces of :class:`~repro.runtime.TrialRunner`:

* **training trials** (``run_tuple_trials``) — the paper's §3 pipeline,
  seeded per tuple index;
* **evaluation matrices** (``TrialRunner.map`` via ``run_matrix``) —
  pure cells reassembled by index, including the streamed path.

Alongside results, the *telemetry merge* contract rides the same sweep:
worker registries merge additively into the parent, so every counter a
parallel run reports equals the serial run's.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.pipeline import PipelineConfig, build_distribution
from repro.eval.matrix import MatrixConfig, run_matrix
from repro.eval.windows import stream_windows
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.workloads.traces import synthetic_trace

WORKER_COUNTS = (1, 2, 4)

TRIAL_FIELDS = ("runtime", "size", "submit", "scores", "first_task", "trial_avebsld")

#: Counters that must merge additively to the serial totals.
MERGED_COUNTERS = (
    "sim.runs",
    "sim.events",
    "sim.jobs_completed",
    "listsched.trials",
    "listsched.jobs",
)


def _trial_bytes(results) -> list[tuple[bytes, ...]]:
    return [
        tuple(np.asarray(getattr(r, f)).tobytes() for f in TRIAL_FIELDS)
        for r in results
    ]


def _matrix_bytes(result) -> list[tuple]:
    return [
        (
            c.window,
            c.policy,
            c.backfill,
            np.float64(c.ave_bsld).tobytes(),
            np.float64(c.utilization).tobytes(),
            np.float64(c.makespan).tobytes(),
            c.backfilled,
            c.seed,
        )
        for c in result.cells
    ]


def _pipeline_config(rng: np.random.Generator) -> PipelineConfig:
    return PipelineConfig(
        n_tuples=int(rng.integers(3, 7)),
        trials_per_tuple=int(rng.integers(8, 25)),
        nmax=int(rng.choice([16, 32])),
        s_size=4,
        q_size=int(rng.integers(3, 7)),
        seed=int(rng.integers(0, 2**16)),
        balanced_trials=bool(rng.integers(0, 2)),
    )


class TestTrialParity:
    @pytest.mark.parametrize("case", range(2))
    def test_trials_bit_identical_across_workers(self, case):
        rng = np.random.default_rng(abs(hash(("trials", case))) % 2**32)
        config = _pipeline_config(rng)
        chunk = int(rng.integers(1, 4))
        _, serial, _ = build_distribution(config)
        reference = _trial_bytes(serial)
        for workers in WORKER_COUNTS:
            _, results, _ = build_distribution(
                config, workers=workers, chunk_size=chunk
            )
            assert _trial_bytes(results) == reference, (
                f"workers={workers} chunk={chunk} diverged"
            )


class TestMatrixParity:
    @pytest.fixture(scope="class")
    def trace(self):
        return synthetic_trace("ctc_sp2", n_jobs=160, seed=11)

    @pytest.fixture(scope="class")
    def config(self):
        return MatrixConfig(
            policies=("fcfs", "f1"),
            backfill=("none", "easy"),
            window_jobs=40,
            warmup=4,
            seed=3,
        )

    @pytest.fixture(scope="class")
    def reference(self, trace, config):
        return _matrix_bytes(run_matrix(trace, config))

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_matrix_bit_identical(self, workers, trace, config, reference):
        result = run_matrix(trace, config, workers=workers, chunk_size=2)
        assert _matrix_bytes(result) == reference

    def test_streamed_matrix_bit_identical(self, trace, config, reference):
        """The streamed path reuses one runner across flushes — exactly
        where the persistent pool must still be invisible in the bytes."""
        windows = stream_windows(
            trace, jobs=config.window_jobs, warmup=config.warmup
        )
        result = run_matrix(windows, config, workers=2, chunk_size=1)
        assert _matrix_bytes(result) == reference


class TestTelemetryMerge:
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_merged_counters_equal_serial(self, workers):
        config = PipelineConfig(
            n_tuples=4, trials_per_tuple=12, nmax=16, s_size=4, q_size=4, seed=9
        )
        serial = MetricsRegistry()
        with use_registry(serial):
            build_distribution(config)
        parallel = MetricsRegistry()
        with use_registry(parallel):
            build_distribution(config, workers=workers)
        for name in MERGED_COUNTERS:
            assert parallel.value(name) == serial.value(name), (
                f"{name}: workers={workers}"
            )
        # The per-chunk compute timer covers every chunk exactly once on
        # the fanned-out paths (the workers=1 in-process loop records no
        # chunks).
        if workers > 1:
            assert parallel.timer_count("runtime.chunk") >= 1
            assert parallel.timer_count("runtime.shard.wall") == (
                parallel.timer_count("runtime.chunk")
            )
