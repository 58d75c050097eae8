"""Randomized bit-parity: the worker pool vs the serial loop.

The runtime's headline contract — results are **bit-identical** for any
worker count — is asserted here the same way
``tests/test_sim_kernel_parity.py`` pins the simulation kernel: seeded
random inputs, exhaustive small sweeps, and ``tobytes()`` comparisons
rather than approximate ones.  Three work kinds are swept through the
one fan-out, :meth:`~repro.runtime.TrialRunner.map`:

* **training trials** (``build_distribution``) — the paper's §3
  pipeline, seeded per tuple index;
* **evaluation matrices** (``run_matrix``) — pure cells reassembled by
  index, including the streamed path;
* **experiment rows** (``run_rows``, ``seed_sweep``) — Table 4 rows and
  seed-sweep points under a dynamic policy.

Alongside results, the *telemetry merge* contract rides the same sweep:
worker registries merge additively into the parent, so every counter a
parallel run reports equals the serial run's.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.pipeline import PipelineConfig, build_distribution
from repro.eval.matrix import run_matrix
from repro.eval.windows import stream_windows
from repro.experiments.scale import SCALES
from repro.experiments.sensitivity import seed_sweep
from repro.experiments.table4 import resolve_rows, run_rows
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.specs import EvaluateSpec
from repro.workloads.traces import synthetic_trace

WORKER_COUNTS = (1, 2, 4)

TRIAL_FIELDS = ("runtime", "size", "submit", "scores", "n_trials")

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


def _pipeline_config(rng: np.random.Generator, balanced: bool) -> PipelineConfig:
    return PipelineConfig(
        n_tuples=int(rng.integers(3, 7)),
        trials_per_tuple=int(rng.integers(8, 25)),
        nmax=int(rng.choice([16, 32])),
        s_size=4,
        q_size=int(rng.integers(3, 7)),
        seed=int(rng.integers(0, 2**16)),
        balanced_trials=balanced,
    )


class TestTrialParity:
    @pytest.mark.parametrize("case", range(2))
    def test_trials_bit_identical_across_workers(self, case):
        """Case 0 draws unbalanced trials, case 1 balanced ones, from a
        fixed seed: every run draws the same configs."""
        rng = np.random.default_rng([83, case])
        config = _pipeline_config(rng, balanced=bool(case))
        _, serial, _ = build_distribution(config)
        reference = _trial_bytes(serial)
        for workers in WORKER_COUNTS:
            _, results, _ = build_distribution(config, workers=workers)
            assert _trial_bytes(results) == reference, f"workers={workers} diverged"


class TestMatrixParity:
    @pytest.fixture(scope="class")
    def trace(self):
        return synthetic_trace("ctc_sp2", n_jobs=160, seed=11)

    @pytest.fixture(scope="class")
    def spec(self):
        return EvaluateSpec(
            policies=("fcfs", "f1"),
            backfill=("none", "easy"),
            window_jobs=40,
            warmup=4,
            seed=3,
        )

    @pytest.fixture(scope="class")
    def reference(self, trace, spec):
        return _matrix_bytes(run_matrix(trace, spec))

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_matrix_bit_identical(self, workers, trace, spec, reference):
        result = run_matrix(trace, spec, workers=workers)
        assert _matrix_bytes(result) == reference

    def test_streamed_matrix_bit_identical(self, trace, spec, reference):
        """The streamed path reuses one runner across flushes — exactly
        where the persistent pool must still be invisible in the bytes."""
        windows = stream_windows(
            trace, jobs=spec.window_jobs, warmup=spec.warmup
        )
        result = run_matrix(windows, spec, workers=2)
        assert _matrix_bytes(result) == reference


class TestExperimentParity:
    """One backfill row, one dynamic-policy column (WFP3)."""

    ROWS = ("model_256_actual", "model_256_backfill")
    POLICIES = ("FCFS", "WFP3")

    def test_rows_bit_identical(self):
        def run(workers):
            results = run_rows(
                self.ROWS, SCALES["smoke"], policies=self.POLICIES, workers=workers
            )
            return [
                (p, r.samples[p].tobytes()) for r in results for p in r.policy_names
            ]

        assert run(2) == run(1)

    def test_seed_sweep_bit_identical(self):
        (row,) = resolve_rows([self.ROWS[1]])

        def run(workers):
            sweep = seed_sweep(
                row, SCALES["smoke"], [0, 1], policies=self.POLICIES, workers=workers
            )
            return {
                seed: {p: np.float64(m).tobytes() for p, m in medians.items()}
                for seed, medians in sweep.medians.items()
            }

        assert run(2) == run(1)


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
        # The in-worker compute timer covers every tuple exactly once on
        # the fanned-out paths (the workers=1 in-process loop records no
        # worker calls).
        if workers > 1:
            assert parallel.timer_count("runtime.chunk") == config.n_tuples
            assert parallel.timer_count("runtime.shard.wall") == config.n_tuples
