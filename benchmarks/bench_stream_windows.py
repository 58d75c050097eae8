"""Peak memory of streamed vs materialised trace windowing.

Guards the `repro.eval` streaming promise: `SwfStream` +
`stream_windows` slice an on-disk trace into evaluation windows with
O(window) resident memory, while a materialised source (`read_swf` +
`slice_windows`, the same slicer over an in-memory workload, listed)
holds the whole trace and every window at once.  Each mode runs in a
fresh subprocess so its resident high-water mark (`VmHWM`, or
`ru_maxrss` where `/proc` is missing) measures that mode alone; both
sources must give every window the same fingerprint — the memory
saving is free, not a different computation.
"""

import subprocess
import sys
import time
from pathlib import Path

from repro.workloads.swf import write_swf
from repro.workloads.traces import synthetic_trace

from conftest import BENCH_SEED, run_once

N_JOBS = 250_000
WINDOW_JOBS = 1_000

_CHILD = r"""
import resource
import sys

mode, path = sys.argv[1], sys.argv[2]
if mode == "stream":
    from repro.eval.windows import stream_windows
    from repro.workloads.swf import SwfStream

    trace = SwfStream(path)
    fingerprints = [
        w.fingerprint()
        for w in stream_windows(
            trace.blocks(),
            jobs=%(window_jobs)d,
            name=trace.name,
            nmax=trace.machine_size,
        )
    ]
else:
    from repro.eval.windows import slice_windows
    from repro.workloads.swf import read_swf

    windows = slice_windows(read_swf(path), jobs=%(window_jobs)d)
    fingerprints = [w.fingerprint() for w in windows]

# ru_maxrss survives fork + exec, so it never reads below the RSS of the
# process that launched this one; VmHWM is this program's own peak.
try:
    with open("/proc/self/status") as status:
        peak_kib = next(
            int(line.split()[1]) for line in status if line.startswith("VmHWM:")
        )
except OSError:
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(len(fingerprints), peak_kib, ",".join(fingerprints))
""" % {"window_jobs": WINDOW_JOBS}


def _measure(mode: str, path: Path) -> tuple[int, int, str, float]:
    t0 = time.perf_counter()
    out = subprocess.run(
        [sys.executable, "-c", _CHILD, mode, str(path)],
        capture_output=True,
        text=True,
        check=True,
        env={"PYTHONPATH": "src"},
        cwd=Path(__file__).resolve().parent.parent,
    ).stdout.split()
    elapsed = time.perf_counter() - t0
    n_windows, peak_kib, fingerprints = int(out[0]), int(out[1]), out[2]
    return n_windows, peak_kib, fingerprints, elapsed


def _both_modes(path: Path):
    stream = _measure("stream", path)
    batch = _measure("batch", path)
    assert stream[0] == batch[0], "window counts diverged"
    assert stream[2] == batch[2], "fingerprints diverged between the streamed and materialised sources"
    return stream, batch


def bench_stream_windows_peak_rss(benchmark, record, tmp_path):
    """Window a 60k-job on-disk trace, streamed vs fully materialised."""
    trace = synthetic_trace("ctc_sp2", n_jobs=N_JOBS, seed=BENCH_SEED)
    path = tmp_path / "trace.swf"
    write_swf(trace, path)
    del trace  # the parent must not carry the arrays either mode measures
    stream, batch = run_once(benchmark, _both_modes, path)
    (n_windows, stream_kib, _, stream_s) = stream
    (_, batch_kib, _, batch_s) = batch
    saved = batch_kib - stream_kib
    lines = [
        f"trace: {N_JOBS} jobs on disk ({path.stat().st_size / 1e6:.1f} MB),"
        f" {WINDOW_JOBS}-job windows -> {n_windows} windows",
        f"streamed peak RSS:     {stream_kib / 1024:.1f} MiB ({stream_s:.2f}s)",
        f"materialised peak RSS: {batch_kib / 1024:.1f} MiB ({batch_s:.2f}s)",
        f"saved: {saved / 1024:.1f} MiB"
        f" ({saved / max(batch_kib, 1):.1%} of the batch high-water mark;"
        f" the gap widens linearly with trace length)",
        "window fingerprints identical from both sources",
    ]
    record(
        "\n".join(lines),
        extra={
            "n_windows": n_windows,
            "stream_peak_kib": stream_kib,
            "batch_peak_kib": batch_kib,
        },
    )
