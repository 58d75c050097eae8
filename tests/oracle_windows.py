"""Frozen batch window slicer — the oracle for ``stream_windows``.

``repro.eval.windows.slice_windows`` once cut an in-memory workload with
its own algorithm: job windows by fixed index bounds, time windows by a
``searchsorted`` of the submit array against the float edges
``t0 + k*seconds``.  The live module now has one slicer,
``stream_windows``, which cuts every source block by block, and
``slice_windows`` is only its output as a list.
``tests/test_eval_windows.py`` holds the live slicer to this module: the
same windows (index, ``t0``, name and content fingerprint) or the same
``ValueError`` text, on hand-made cases and on a seeded fuzz.

``oracle_slice_windows`` is that function as it stood, verbatim apart
from its name, with the argument check it shared with the streaming
slicer copied in.  Do not "clean up" or optimise this file — its only
value is that it does not change.
"""

from __future__ import annotations

import numpy as np

from repro.eval.windows import Window
from repro.sim.job import Workload
from repro.util.validation import check_positive, check_positive_int

__all__ = ["oracle_slice_windows"]


def _check_slicing_args(
    jobs: int | None,
    seconds: float | None,
    warmup: int,
    min_jobs: int,
    max_windows: int | None,
) -> None:
    """Shared parameter validation for both slicers (identical errors)."""
    if (jobs is None) == (seconds is None):
        raise ValueError("pass exactly one of jobs= or seconds=")
    if warmup < 0:
        raise ValueError(f"warmup must be >= 0, got {warmup}")
    check_positive_int("min_jobs", min_jobs)
    if max_windows is not None:
        check_positive_int("max_windows", max_windows)
    if jobs is not None:
        check_positive_int("jobs", jobs)
        if jobs <= warmup:
            raise ValueError(
                f"window of {jobs} jobs leaves nothing after warmup={warmup}"
            )
    else:
        check_positive("seconds", float(seconds))


def oracle_slice_windows(
    workload: Workload,
    *,
    jobs: int | None = None,
    seconds: float | None = None,
    warmup: int = 0,
    min_jobs: int = 2,
    max_windows: int | None = None,
) -> list[Window]:
    _check_slicing_args(jobs, seconds, warmup, min_jobs, max_windows)
    n = len(workload)
    if n == 0:
        raise ValueError("cannot slice an empty workload")

    bounds: list[tuple[int, int]] = []  # [start, stop) into the sorted arrays
    if jobs is not None:
        bounds = [(lo, min(lo + jobs, n)) for lo in range(0, n, jobs)]
    else:
        t0 = float(workload.submit[0])
        step = float(seconds)
        # Slot k is [t0 + k*step, t0 + (k+1)*step) in float64, the edges
        # stream_windows compares against.  span // step can land one
        # slot short of the rounded edges, so count slots until the last
        # edge lies past the last arrival.
        n_slots = int(workload.span // step) + 1
        while t0 + n_slots * step <= float(workload.submit[-1]):
            n_slots += 1
        # searchsorted over the submit-sorted arrays keeps slicing O(n log n)
        # even for million-job traces.
        edges = t0 + np.arange(n_slots + 1) * step
        cuts = np.searchsorted(workload.submit, edges, side="left")
        bounds = [
            (int(lo), int(hi)) for lo, hi in zip(cuts[:-1], cuts[1:]) if hi > lo
        ]

    out: list[Window] = []
    for lo, hi in bounds:
        if hi - lo - warmup < min_jobs:
            continue
        index = len(out)
        piece = workload.select(np.arange(lo, hi)).shifted()
        out.append(
            Window(
                index=index,
                workload=piece.with_name(f"{workload.name}[w{index}]"),
                warmup=warmup,
                t0=float(workload.submit[lo]),
            )
        )
        if max_windows is not None and len(out) >= max_windows:
            break
    return out
