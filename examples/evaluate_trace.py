#!/usr/bin/env python
"""Benchmark policies on a trace with the evaluation-matrix subsystem.

The paper's evaluation replays real Parallel Workloads Archive traces;
``repro.eval`` is the subsystem that does it at scale: slice the trace
into windows, fan every {policy x backfill x window} cell over the
worker pool, and aggregate per-window paired comparisons.  This example
runs the whole flow on a synthetic stand-in — swap the first line for
``repro.read_swf("CTC-SP2-1996-3.1-cln.swf")`` to evaluate a real
archive file — and then demonstrates the content-addressed cell cache:
the second run simulates nothing.

Run:  python examples/evaluate_trace.py
"""

import tempfile
import time

import repro
from repro.eval import render_matrix_report

TRACE = "ctc_sp2"
N_JOBS = 3000


def main() -> None:
    trace = repro.synthetic_trace(TRACE, seed=11, n_jobs=N_JOBS)
    print(f"trace: {trace.name} ({len(trace)} jobs, {trace.nmax} cores)")

    # One spec describes the whole matrix: windows of 500 jobs, the
    # first 25 of each simulated but not scored (machine warm-up), three
    # policies under plain head-blocking and EASY backfilling.
    spec = repro.EvaluateSpec(
        policies=("fcfs", "spt", "f1"),
        backfill=("none", "easy"),
        window_jobs=500,
        warmup=25,
    )

    with tempfile.TemporaryDirectory() as cache_dir:
        t0 = time.perf_counter()
        result = repro.run_matrix(trace, spec, workers="auto", cache=cache_dir)
        cold = time.perf_counter() - t0
        print(render_matrix_report(result))

        # Same spec, same cache: every cell is loaded, none simulated.
        t0 = time.perf_counter()
        again = repro.run_matrix(trace, spec, workers="auto", cache=cache_dir)
        warm = time.perf_counter() - t0
        assert again.n_simulated == 0
        assert [c.to_entry() for c in again.cells] == [
            c.to_entry() for c in result.cells
        ]
        print(
            f"\ncold run: {cold:.2f}s ({result.n_simulated} cells simulated);"
            f" cached re-run: {warm:.2f}s ({again.n_cached} cells loaded)"
        )


if __name__ == "__main__":
    main()
