#!/usr/bin/env python
"""Stream a trace from disk and read the bootstrap confidence intervals.

PR 2's `examples/evaluate_trace.py` materialises the whole trace before
slicing; this example shows the archive-scale path instead: the SWF
file is parsed in fixed-size blocks (`SwfStream`), windows are cut
lazily from those blocks (`stream_windows`), and matrix cells are dispatched
as windows arrive (`run_matrix` on a window iterator) — the trace is
never resident in memory, yet every number is bit-identical to the
materialised run.  The paired per-window deltas then carry seeded
percentile-bootstrap confidence intervals: the report's `*` marker is
the difference between "F1 looked better on these windows" and "F1 is
better beyond window-to-window noise".

Run:  python examples/evaluate_stream.py
"""

import tempfile
from pathlib import Path

import repro
from repro.eval import render_matrix_report, run_matrix, stream_windows
from repro.workloads.swf import SwfStream

TRACE = "ctc_sp2"
N_JOBS = 3000


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        # Stand-in for a Parallel Workloads Archive download: write a
        # synthetic trace to disk, then treat the *file* as the source
        # of truth.  Swap `path` for e.g. "CTC-SP2-1996-3.1-cln.swf".
        path = Path(tmp) / "trace.swf"
        repro.write_swf(repro.synthetic_trace(TRACE, seed=11, n_jobs=N_JOBS), path)

        # Header metadata is read from the leading comment block without
        # touching a single job row — on a million-job archive file this
        # is the difference between instant and minutes.
        stream = SwfStream(path)
        print(f"trace: {stream.name} ({stream.machine_size} cores), streaming")

        spec = repro.EvaluateSpec(
            policies=("fcfs", "spt", "f1"),
            backfill=("none", "easy"),
            window_jobs=500,
            warmup=25,
        )

        # stream.blocks() yields one block of parsed jobs at a time;
        # stream_windows buffers at most one window; run_matrix dispatches
        # cells in bounded batches.  Peak memory is O(window), not O(trace).
        windows = stream_windows(
            stream.blocks(),
            jobs=spec.window_jobs,
            warmup=spec.warmup,
            name=stream.name,
            nmax=stream.machine_size,
        )
        cache_dir = Path(tmp) / "cache"
        result = run_matrix(
            windows, spec, workers="auto", cache=cache_dir, trace_name=stream.name
        )
        print(render_matrix_report(result))

        # Reading the delta lines printed above:
        #   median/mean Δ < 0  -> the policy beat the FCFS baseline
        #   CI [lo, hi]*       -> the 95% bootstrap interval excludes 0:
        #                         the advantage survives window noise
        #   CI [lo, hi] (no *) -> consistent with "no real difference";
        #                         evaluate more windows before concluding
        #   CI n/a             -> a single window has no spread to resample
        print("\nper-series bootstrap CIs (mean paired Δ vs FCFS):")
        for (policy, mode), ci in sorted(result.delta_cis().items()):
            verdict = {True: "significant", False: "inconclusive", None: "n/a"}[
                ci.significant
            ]
            print(f"  {policy:>5s} / {mode:<4s}  {ci}  -> {verdict}")

        # The per-cell cache is shared with non-streaming runs: this
        # re-run walks the file again but simulates nothing.
        again = run_matrix(
            stream_windows(
                SwfStream(path).blocks(),
                jobs=spec.window_jobs,
                warmup=spec.warmup,
                name=stream.name,
                nmax=stream.machine_size,
            ),
            spec,
            cache=cache_dir,
            trace_name=stream.name,
        )
        assert again.n_simulated == 0
        assert again.delta_cis() == result.delta_cis()  # CIs are seeded too
        print(
            f"\ncached streaming re-run: {again.n_cached} cells loaded,"
            f" {again.n_simulated} simulated"
        )


if __name__ == "__main__":
    main()
