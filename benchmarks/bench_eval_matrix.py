"""Evaluation-matrix throughput: trace replay cells/second and cache speedup.

Guards the `repro.eval` subsystem's performance promise that a warm
content-addressed cache turns a re-run into pure I/O.  Both runs use
one worker, so the timed work is the same on every host: the committed
baseline was recorded in process, and ``workers="auto"`` on a
multi-core host would also time the worker pool's start-up
(``bench_runtime_scaling.py`` measures dispatch overhead).  Reported
via pytest-benchmark; the cold/warm ratio and the per-cell wall clock
land in ``results/`` through ``record``.
"""

import time

from repro.eval import run_matrix
from repro.specs import EvaluateSpec
from repro.workloads.traces import synthetic_trace

from conftest import BENCH_SEED, run_once

N_JOBS = 4000
WINDOW_JOBS = 500
SPEC = EvaluateSpec(
    policies=("fcfs", "spt", "f1"),
    backfill=("none", "easy"),
    window_jobs=WINDOW_JOBS,
    warmup=25,
)


def _cold_and_warm(trace, cache_dir):
    t0 = time.perf_counter()
    cold = run_matrix(trace, SPEC, workers=1, cache=cache_dir)
    cold_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    warm = run_matrix(trace, SPEC, workers=1, cache=cache_dir)
    warm_s = time.perf_counter() - t0
    assert warm.n_simulated == 0
    assert [c.to_entry() for c in warm.cells] == [c.to_entry() for c in cold.cells]
    return cold, cold_s, warm_s


def bench_eval_matrix_cold_vs_cached(benchmark, record, tmp_path):
    """Full matrix on a CTC SP2 stand-in, then the all-cached re-run."""
    trace = synthetic_trace("ctc_sp2", n_jobs=N_JOBS, seed=BENCH_SEED)
    result, cold_s, warm_s = run_once(
        benchmark, _cold_and_warm, trace, tmp_path / "cache"
    )
    n_cells = len(result.cells)
    lines = [
        f"trace jobs: {N_JOBS}, window: {WINDOW_JOBS} jobs -> "
        f"{result.n_windows} windows, {n_cells} cells",
        f"cold: {cold_s:.3f}s ({n_cells / max(cold_s, 1e-9):.1f} cells/s)",
        f"warm (all cached): {warm_s:.3f}s "
        f"(speedup {cold_s / max(warm_s, 1e-9):.1f}x)",
        f"best policy: {result.best()}",
    ]
    record(
        "\n".join(lines),
        extra={"cells": n_cells, "cold_s": cold_s, "warm_s": warm_s},
    )
