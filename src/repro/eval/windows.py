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
* :func:`stream_windows` — lazy: the same windows from a job *iterator*
  (e.g. :meth:`repro.workloads.swf.SwfStream.jobs`), holding at most one
  window's jobs in memory at a time.  Content fingerprints are computed
  on the fly and are **identical** to the batch slicer's for the same
  submit-sorted trace, so per-cell cache keys do not depend on which
  slicer produced a window.

Slicing is a pure function of ``(trace, parameters)`` — no RNG, no
clock — so the same trace always yields the same windows and per-window
results are cacheable by content (:func:`workload_fingerprint`).
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

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
    rows: list[tuple[float, float, float, float, float]],
    *,
    index: int,
    warmup: int,
    name: str,
    nmax: int,
) -> Window:
    """Build one re-based :class:`Window` from buffered job rows.

    Array construction mirrors ``workload.select(...).shifted()`` field
    for field (float64 submit/runtime/estimate, int64 size/job_ids, same
    subtraction against the window's first arrival), so the resulting
    fingerprint is bit-identical to the batch slicer's.
    """
    mat = np.asarray(rows, dtype=float)
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


def stream_windows(
    source: Workload | Iterable[tuple[float, float, float, float, float]],
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

    *source* is either a :class:`~repro.sim.job.Workload` (convenience:
    its rows are iterated) or any iterator of ``(job_id, submit, runtime,
    size, estimate)`` rows such as :func:`repro.workloads.swf.iter_swf_jobs`
    — in which case *name* (window naming) and *nmax* (machine size
    stamped on each window's workload) should be supplied since a bare
    stream carries no metadata.

    At most one window's jobs are buffered at any moment, so a
    multi-million-job trace streams through in O(window) memory; with
    *max_windows* the source is abandoned as soon as the quota is
    reached (no further I/O).  Window indices, warm-up trimming, the
    ``min_jobs`` short-window drop rule and every content fingerprint
    match :func:`slice_windows` on the materialised trace exactly —
    per-cell cache keys are slicer-independent (tested).

    The stream must be submit-sorted (the SWF definition requires it);
    an out-of-order arrival raises :class:`ValueError` naming the job,
    because a lazy slicer cannot re-sort the trace.

    When *nmax* is non-zero, every job read is validated against it as
    it arrives — including jobs in windows later dropped as too short —
    mirroring the whole-trace
    :meth:`~repro.sim.job.Workload.validate_for_machine` check.  (With
    *max_windows*, jobs beyond the quota are never read and therefore
    never validated.)
    """
    _check_slicing_args(jobs, seconds, warmup, min_jobs, max_windows)
    if isinstance(source, Workload):
        if name is None:
            name = source.name
        if nmax is None:
            nmax = source.nmax
        rows_iter: Iterable[tuple[float, float, float, float, float]] = zip(
            source.job_ids.tolist(),
            source.submit.tolist(),
            source.runtime.tolist(),
            source.size.tolist(),
            source.estimate.tolist(),
        )
    else:
        rows_iter = source
    label = "trace" if name is None else name
    machine = 0 if nmax is None else nmax

    def generate() -> Iterator[Window]:
        buf: list[tuple[float, float, float, float, float]] = []
        emitted = 0
        n_seen = 0
        last_submit = -np.inf
        t0 = 0.0  # trace origin (first arrival), set on the first job
        bucket = 0  # current time-window slot (seconds axis only)

        def flush() -> Window | None:
            nonlocal emitted
            if len(buf) - warmup < min_jobs:
                buf.clear()
                return None
            window = _window_from_rows(
                buf, index=emitted, warmup=warmup, name=label, nmax=machine
            )
            emitted += 1
            buf.clear()
            return window

        for row in rows_iter:
            job_id, submit, runtime, size, estimate = row
            if submit < last_submit:
                raise ValueError(
                    f"stream_windows requires a submit-sorted trace: job"
                    f" {int(job_id)} arrives at {submit} after a job at"
                    f" {last_submit}"
                )
            last_submit = submit
            if machine and size > machine:
                # Same fail-fast contract as Workload.validate_for_machine,
                # applied per job so even jobs in eventually-dropped windows
                # are caught, exactly like the batch path's up-front check.
                raise ValueError(
                    f"job {int(job_id)} needs {int(size)} cores"
                    f" but the machine has only {machine}"
                )
            if n_seen == 0:
                t0 = float(submit)
            n_seen += 1
            if seconds is not None:
                # Advance to this job's slot, flushing every slot passed on
                # the way.  Slot edges are computed as t0 + k*seconds with
                # the same float64 arithmetic as slice_windows' edge array,
                # and a job exactly on an edge opens the next slot
                # (searchsorted side="left" semantics).
                while submit >= t0 + float(bucket + 1) * seconds:
                    window = flush()
                    bucket += 1
                    if not buf:
                        # Fast-forward across empty slots (a long idle gap
                        # would otherwise cost one iteration per slot).
                        # The quotient can be off by one ULP, so jump one
                        # slot short and let the exact edge comparison
                        # above take the final steps.
                        target = int((submit - t0) / seconds) - 1
                        if target > bucket:
                            bucket = target
                    if window is not None:
                        yield window
                        if max_windows is not None and emitted >= max_windows:
                            return
            buf.append((job_id, submit, runtime, size, estimate))
            if jobs is not None and len(buf) == jobs:
                window = flush()
                if window is not None:
                    yield window
                    if max_windows is not None and emitted >= max_windows:
                        return
        if n_seen == 0:
            raise ValueError("cannot slice an empty workload")
        window = flush()
        if window is not None:
            yield window

    return generate()
