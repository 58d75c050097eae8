"""Streaming/windowed trace slicing for the evaluation subsystem.

Real Parallel Workloads Archive traces span months and hundreds of
thousands of jobs; evaluating policies on them as one monolithic run
conflates epochs, drowns the metric in a single number and cannot be
fanned out.  This module cuts a :class:`~repro.sim.job.Workload` into
contiguous *windows* — of a fixed job count or a fixed duration — each
of which becomes an independent evaluation scenario:

* every window's clock is re-based to start at zero (per-window
  normalization; the per-window simulations are independent, exactly
  like the paper's per-sequence experiments),
* the first *warmup* jobs of a window are simulated but excluded from
  the reported metrics, so a window's score is not dominated by the
  artificially empty machine it starts with,
* windows are contiguous and non-overlapping, so a million-job trace
  becomes many small scenarios streamed through the worker pool instead
  of one unshardable run.

Two slicers share these semantics:

* :func:`slice_windows` — batch: cut a fully materialised
  :class:`~repro.sim.job.Workload`;
* :func:`stream_windows` — lazy: the same windows from a stream of
  ``(k, 5)`` job blocks (e.g. :meth:`repro.workloads.swf.SwfStream.blocks`),
  holding at most one window plus one block in memory.  Job windows are
  sliced and concatenated from the blocks, time windows are cut at the
  float edges ``t0 + k*seconds`` by a search per slot, and the
  submit-order and machine-size checks run vectorised per block.
  Content fingerprints are **identical** to the batch slicer's for the
  same submit-sorted trace, so per-cell cache keys do not depend on
  which slicer produced a window.

Slicing is a pure function of ``(trace, parameters)`` — no RNG, no
clock — so the same trace always yields the same windows and per-window
results are cacheable by content (:func:`workload_fingerprint`).
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from itertools import chain, islice

import numpy as np

from repro.sim.job import Workload
from repro.util.validation import check_positive, check_positive_int

__all__ = ["Window", "slice_windows", "stream_windows", "workload_fingerprint"]


def workload_fingerprint(workload: Workload) -> str:
    """Content hash of the arrays a simulation consumes.

    Two workloads with bit-identical ``(submit, runtime, size, estimate,
    job_ids)`` arrays fingerprint equal regardless of name or metadata,
    which is exactly the equivalence class under which simulation results
    can be reused from a cache.
    """
    digest = hashlib.sha256()
    for arr in (
        workload.submit,
        workload.runtime,
        workload.estimate,
        workload.size,
        workload.job_ids,
    ):
        digest.update(np.ascontiguousarray(arr).tobytes())
    return digest.hexdigest()[:32]


@dataclass(frozen=True)
class Window:
    """One contiguous slice of a trace, re-based to start at t=0."""

    index: int
    workload: Workload
    warmup: int  # leading jobs excluded from metrics (still simulated)
    t0: float  # original trace time of the window's first arrival

    def __post_init__(self) -> None:
        if self.warmup < 0:
            raise ValueError(f"warmup must be >= 0, got {self.warmup}")
        if self.warmup >= len(self.workload):
            raise ValueError(
                f"window {self.index}: warmup {self.warmup} leaves no"
                f" scored jobs (window holds {len(self.workload)})"
            )

    @property
    def n_jobs(self) -> int:
        """Jobs simulated in this window (including warm-up)."""
        return len(self.workload)

    @property
    def n_scored(self) -> int:
        """Jobs contributing to the window's metrics."""
        return len(self.workload) - self.warmup

    def fingerprint(self) -> str:
        """Content hash of the window (arrays + warm-up trim)."""
        return hashlib.sha256(
            f"{workload_fingerprint(self.workload)}:{self.warmup}".encode()
        ).hexdigest()[:32]


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


def slice_windows(
    workload: Workload,
    *,
    jobs: int | None = None,
    seconds: float | None = None,
    warmup: int = 0,
    min_jobs: int = 2,
    max_windows: int | None = None,
) -> list[Window]:
    """Cut *workload* into contiguous evaluation windows.

    Exactly one of *jobs* (windows of N consecutive jobs) or *seconds*
    (windows of T seconds of trace time) must be given.  Each window is
    re-based to t=0 and renamed ``<trace>[w<k>]``; the first *warmup*
    jobs of every window are marked for metric exclusion.

    Windows whose scored-job count would fall below *min_jobs* are
    dropped: for job windows only the trailing remainder can be short;
    for time windows sparse epochs of the trace drop out the same way.
    *max_windows* truncates the plan (the cheap way to smoke-test a
    huge trace).

    Invariants (tested): windows are non-overlapping and in trace order,
    job windows partition the trace except for a dropped tail shorter
    than ``warmup + min_jobs``, and every window re-starts its clock at
    zero.
    """
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


def _window_from_rows(
    mat: np.ndarray,
    *,
    index: int,
    warmup: int,
    name: str,
    nmax: int,
) -> Window:
    """Build one re-based :class:`Window` from a ``(k, 5)`` job matrix.

    Array construction mirrors ``workload.select(...).shifted()`` field
    for field (float64 submit/runtime/estimate, int64 size/job_ids, same
    subtraction against the window's first arrival), so the resulting
    fingerprint is bit-identical to the batch slicer's.
    """
    submit = mat[:, 1]
    piece = Workload(
        submit=submit - submit[0],
        runtime=mat[:, 2],
        size=mat[:, 3].astype(np.int64),
        estimate=mat[:, 4],
        job_ids=mat[:, 0].astype(np.int64),
        name=f"{name}[w{index}]",
        nmax=nmax,
    )
    return Window(index=index, workload=piece, warmup=warmup, t0=float(submit[0]))


#: Rows gathered per block from a row iterable cut into time windows.
_ROW_BLOCK = 1024


def _as_blocks(
    source: Workload | Iterable, group: int
) -> Iterator[np.ndarray]:
    """*source* as ``(k, 5)`` float64 job blocks, in ``SwfJob`` column order.

    A workload is one block; an iterable of 2-D arrays passes through;
    an iterable of rows is gathered *group* rows at a time.
    """
    if isinstance(source, Workload):
        yield np.column_stack(
            (source.job_ids, source.submit, source.runtime, source.size, source.estimate)
        )
        return
    items = iter(source)
    first = next(items, None)
    if first is None:
        return
    items = chain((first,), items)
    if isinstance(first, np.ndarray) and first.ndim == 2:
        yield from items
        return
    while rows := list(islice(items, group)):
        yield np.asarray(rows, dtype=float).reshape(-1, 5)


def _first_invalid(
    submit: np.ndarray, size: np.ndarray, last_submit: float, machine: int
) -> int:
    """Index of a block's first out-of-order or oversize job (``len`` if none)."""
    bad = np.empty(len(submit), dtype=bool)
    bad[0] = submit[0] < last_submit
    np.less(submit[1:], submit[:-1], out=bad[1:])
    if machine:
        bad |= size > machine
    return int(bad.argmax()) if bad.any() else len(submit)


def _invalid_job_error(row: list[float], last_submit: float, machine: int) -> ValueError:
    """The error naming the job :func:`_first_invalid` found, sort check first."""
    job_id, submit, _, size, _ = row
    if submit < last_submit:
        return ValueError(
            f"stream_windows requires a submit-sorted trace: job"
            f" {int(job_id)} arrives at {submit} after a job at"
            f" {last_submit}"
        )
    # Same fail-fast contract as Workload.validate_for_machine, applied
    # per job so even jobs in eventually-dropped windows are caught,
    # exactly like the batch path's up-front check.
    return ValueError(
        f"job {int(job_id)} needs {int(size)} cores"
        f" but the machine has only {machine}"
    )


def stream_windows(
    source: Workload | Iterable[np.ndarray] | Iterable[tuple[float, ...]],
    *,
    jobs: int | None = None,
    seconds: float | None = None,
    warmup: int = 0,
    min_jobs: int = 2,
    max_windows: int | None = None,
    name: str | None = None,
    nmax: int | None = None,
) -> Iterator[Window]:
    """Lazily cut a job stream into the same windows :func:`slice_windows` cuts.

    *source* is a :class:`~repro.sim.job.Workload`, an iterator of
    ``(k, 5)`` float64 job blocks with columns ``(job_id, submit,
    runtime, size, estimate)`` such as
    :meth:`repro.workloads.swf.SwfStream.blocks`, or an iterator of such
    rows such as :func:`repro.workloads.swf.iter_swf_jobs` (gathered
    into blocks of one job window, or of 1024 rows for time windows).
    A bare stream carries no metadata, so *name* (window naming) and
    *nmax* (machine size stamped on each window's workload) should be
    supplied with it.

    Windows are sliced from the blocks, so memory is O(window + block)
    however long the trace is; with *max_windows* the source is
    abandoned as soon as the quota is reached (no further I/O).  Window
    indices, warm-up trimming, the ``min_jobs`` short-window drop rule
    and every content fingerprint match :func:`slice_windows` on the
    materialised trace exactly — per-cell cache keys are
    slicer-independent (tested).  Time windows keep the float edges
    ``t0 + k*seconds``.

    The stream must be submit-sorted (the SWF definition requires it);
    an out-of-order arrival raises :class:`ValueError` naming the job,
    because a lazy slicer cannot re-sort the trace.

    When *nmax* is non-zero, every job is validated against it —
    including jobs in windows later dropped as too short — mirroring
    the whole-trace :meth:`~repro.sim.job.Workload.validate_for_machine`
    check.  Both checks run per block and name the first offending job;
    jobs past a reached *max_windows* quota are never validated, even
    when they were already read in the same block.
    """
    _check_slicing_args(jobs, seconds, warmup, min_jobs, max_windows)
    if isinstance(source, Workload):
        if name is None:
            name = source.name
        if nmax is None:
            nmax = source.nmax
    label = "trace" if name is None else name
    machine = 0 if nmax is None else nmax

    def generate() -> Iterator[Window]:
        pieces: list[np.ndarray] = []  # the open window's rows
        buffered = 0
        emitted = 0
        last_submit = -np.inf
        t0: float | None = None  # trace origin (first arrival)
        bucket = 0  # current time-window slot (seconds axis only)

        def flush() -> Window | None:
            nonlocal emitted, buffered
            window = None
            if buffered - warmup >= min_jobs:
                window = _window_from_rows(
                    np.concatenate(pieces),
                    index=emitted,
                    warmup=warmup,
                    name=label,
                    nmax=machine,
                )
                emitted += 1
            pieces.clear()
            buffered = 0
            return window

        def take(rows: np.ndarray) -> None:
            nonlocal buffered
            pieces.append(rows)
            buffered += len(rows)

        for block in _as_blocks(source, jobs or _ROW_BLOCK):
            if not len(block):
                continue
            submit = np.ascontiguousarray(block[:, 1])
            n_good = _first_invalid(submit, block[:, 3], last_submit, machine)
            if n_good:
                if t0 is None:
                    t0 = float(submit[0])
                pos = 0
                while pos < n_good:
                    if jobs is not None:
                        stop = min(pos + jobs - buffered, n_good)
                        take(block[pos:stop])
                        pos = stop
                        if buffered < jobs:
                            break
                        window = flush()
                    else:
                        # The rows before this slot's edge t0 + (bucket+1)*seconds
                        # (float64, as slice_windows' edge array) join it; a
                        # job exactly on an edge opens the next slot
                        # (searchsorted side="left" semantics).
                        edge = t0 + float(bucket + 1) * seconds
                        stop = pos + int(
                            np.searchsorted(submit[pos:n_good], edge, side="left")
                        )
                        if stop > pos:
                            take(block[pos:stop])
                            pos = stop
                        if pos == n_good:
                            break
                        window = flush()
                        bucket += 1
                        # Fast-forward across empty slots (a long idle gap
                        # would otherwise cost one iteration per slot).  The
                        # quotient can be off by one ULP, so jump one slot
                        # short and let the exact edge comparison take the
                        # final steps.
                        target = int((float(submit[pos]) - t0) / seconds) - 1
                        if target > bucket:
                            bucket = target
                    if window is not None:
                        yield window
                        if max_windows is not None and emitted >= max_windows:
                            return
                last_submit = float(submit[n_good - 1])
            if n_good < len(block):
                raise _invalid_job_error(block[n_good].tolist(), last_submit, machine)
        if t0 is None:
            raise ValueError("cannot slice an empty workload")
        window = flush()
        if window is not None:
            yield window

    return generate()
