"""SWF parse + windowing throughput: rows/second of the streamed trace path.

Guards the block reader every trace evaluation starts with:
`SwfStream.blocks` reads a 60k-row `ctc_sp2` stand-in in fixed-size line
blocks (one call of the C tokeniser per clean block, `np.loadtxt`
without the C library) and `stream_windows` cuts
2000-job windows from those blocks, as `repro-sched evaluate` does.  No
job is simulated, so the timing is parse and windowing alone.  The
window fingerprints are checked against a materialised source
(`read_swf` + `slice_windows`), so the speed is not bought with
different windows.
"""

from repro.eval.windows import slice_windows, stream_windows
from repro.workloads.swf import SwfStream, read_swf, write_swf
from repro.workloads.traces import synthetic_trace

from conftest import BENCH_SEED

N_JOBS = 60_000
WINDOW_JOBS = 2_000
WARMUP = 100
ROUNDS = 5


def _stream_windows(path):
    stream = SwfStream(path)
    return [
        w.fingerprint()
        for w in stream_windows(
            stream.blocks(),
            jobs=WINDOW_JOBS,
            warmup=WARMUP,
            name=stream.name,
            nmax=stream.machine_size,
        )
    ]


def bench_swf_stream(benchmark, record, tmp_path):
    """Parse and window a 60k-row SWF file through the block path."""
    path = tmp_path / "ctc_sp2.swf"
    write_swf(synthetic_trace("ctc_sp2", n_jobs=N_JOBS, seed=BENCH_SEED), path)
    # the warm-up round loads (on a cold cache, builds) the C library
    # whose tokeniser the block path calls, outside the timed rounds
    fingerprints = benchmark.pedantic(
        _stream_windows, args=(path,), rounds=ROUNDS, iterations=1, warmup_rounds=1
    )
    batch = slice_windows(read_swf(path), jobs=WINDOW_JOBS, warmup=WARMUP)
    assert fingerprints == [w.fingerprint() for w in batch]
    median = benchmark.stats.stats.median
    rows_per_s = N_JOBS / median
    lines = [
        f"trace: {N_JOBS} rows, {WINDOW_JOBS}-job windows -> {len(fingerprints)} windows",
        f"parse + windowing: {median * 1e3:.1f} ms median of {ROUNDS}"
        f" ({rows_per_s:,.0f} rows/s)",
        "window fingerprints identical to read_swf + slice_windows",
    ]
    record("\n".join(lines), extra={"rows": N_JOBS, "rows_per_s": rows_per_s})
