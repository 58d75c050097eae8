"""Streaming/windowed trace slicing for the evaluation subsystem.

Real Parallel Workloads Archive traces span months and hundreds of
thousands of jobs; evaluating policies on them as one monolithic run
conflates epochs, drowns the metric in a single number and cannot be
fanned out.  This module cuts a trace into contiguous *windows* — of a
fixed job count or a fixed duration — each of which becomes an
independent evaluation scenario:

* every window's clock is re-based to start at zero (per-window
  normalization; the per-window simulations are independent, exactly
  like the paper's per-sequence experiments),
* the first *warmup* jobs of a window are simulated but excluded from
  the reported metrics, so a window's score is not dominated by the
  artificially empty machine it starts with,
* windows are contiguous and non-overlapping, so a million-job trace
  becomes many small scenarios streamed through the worker pool instead
  of one unshardable run.

One slicer cuts every window: :func:`stream_windows` reads a stream of
job blocks (:data:`repro.sim.job.BLOCK_COLUMNS`) — from
:meth:`repro.workloads.swf.SwfStream.blocks`, or from an in-memory
:class:`~repro.sim.job.Workload` fed a few rows at a time — and holds
at most one window plus one block in memory.  Job windows are sliced
and concatenated from the blocks, time windows are cut at the
float edges ``t0 + k*seconds`` by a search per slot, and the
submit-order and machine-size checks run vectorised per block.
:func:`slice_windows` is the same windows as a list.  Because there is
one cut rule, a window's content fingerprint, and so every per-cell
cache key, is the same whether the trace came from memory or from a
file.

Slicing is a pure function of ``(trace, parameters)`` — no RNG, no
clock — so the same trace always yields the same windows and per-window
results are cacheable by content (:func:`workload_fingerprint`).
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from repro.sim.job import BLOCK_COLUMNS, Workload, oversize_job_error
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


def _window_from_rows(
    mat: np.ndarray,
    *,
    index: int,
    warmup: int,
    name: str,
    nmax: int,
) -> Window:
    """Build one :class:`Window` from a fresh job block, re-based in place.

    Every submit time becomes ``submit - submit[0]`` in float64, so the
    window's clock starts at zero and its fingerprint depends only on
    the jobs it holds.
    """
    t0 = float(mat[0, 1])
    mat[:, 1] -= t0
    piece = Workload.from_block(mat, name=f"{name}[w{index}]", nmax=nmax)
    return Window(index=index, workload=piece, warmup=warmup, t0=t0)


#: Rows per block when a workload is cut into time windows.
_ROW_BLOCK = 1024


def _as_blocks(
    source: Workload | Iterable[np.ndarray], group: int
) -> Iterator[np.ndarray]:
    """*source* as job blocks (:data:`~repro.sim.job.BLOCK_COLUMNS` order).

    A workload is cut into blocks of *group* rows; an iterable of job
    blocks passes through.  Any item that is not a 2-D array five
    columns wide (a row tuple included) raises :class:`ValueError`.
    """
    if isinstance(source, Workload):
        yield from source.blocks(group)
        return
    width = len(BLOCK_COLUMNS)
    for block in source:
        is_array = isinstance(block, np.ndarray)
        if is_array and block.ndim == 2 and block.shape[1] == width:
            yield np.asarray(block, dtype=np.float64)
            continue
        got = f"a {type(block).__name__}"
        if is_array:
            got = f"a block of shape {block.shape}"
        raise ValueError(
            f"stream_windows expects job blocks with the {width} columns"
            f" ({', '.join(BLOCK_COLUMNS)}), got {got}"
        )


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
    # per job so even jobs in eventually-dropped windows are caught.
    return oversize_job_error(job_id, size, machine)


def stream_windows(
    source: Workload | Iterable[np.ndarray],
    *,
    jobs: int | None = None,
    seconds: float | None = None,
    warmup: int = 0,
    min_jobs: int = 2,
    max_windows: int | None = None,
    name: str | None = None,
    nmax: int | None = None,
) -> Iterator[Window]:
    """Lazily cut a job stream into contiguous evaluation windows.

    Exactly one of *jobs* (windows of N consecutive jobs) or *seconds*
    (windows of T seconds of trace time, cut at the float edges
    ``t0 + k*seconds``) must be given; bad parameters raise at call
    time.  Each window is re-based to t=0 and named ``<name>[w<k>]``;
    its first *warmup* jobs are marked for metric exclusion.  Windows
    with fewer than *min_jobs* scored jobs are dropped (a short job
    tail, or a sparse epoch of time windows); *max_windows* truncates
    the plan.

    *source* is an iterable of job blocks (``(k, 5)`` arrays, columns
    ``(job_id, submit, runtime, size, estimate)``) such as
    :meth:`repro.workloads.swf.SwfStream.blocks`, or a
    :class:`~repro.sim.job.Workload`, read in blocks of one job window,
    or of 1024 rows for time windows.  A workload supplies *name* and
    *nmax* unless they are given; a bare stream should come with them.
    Any item of the stream that is not a 2-D array five columns wide (a
    row tuple included) raises :class:`ValueError`.

    Memory is O(window + block) however long the trace is, and with
    *max_windows* the source is abandoned once the quota is reached.
    Each window is a pure function of the jobs it holds, so its content
    fingerprint, and with it every per-cell cache key, does not depend
    on the source or on how it was split into blocks (tested).

    The stream must be submit-sorted (the SWF definition requires it):
    an out-of-order arrival raises :class:`ValueError` naming the job.
    When *nmax* is non-zero, so does a job larger than the machine,
    even in a window later dropped as too short.  Both checks run per
    block; jobs past a reached *max_windows* quota are never checked.
    """
    if (jobs is None) == (seconds is None):
        raise ValueError("pass exactly one of jobs= or seconds=")
    check_positive_int("warmup", warmup, allow_zero=True)
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
                        # The rows before this slot's float64 edge
                        # t0 + (bucket+1)*seconds join it; a job exactly on
                        # an edge opens the next slot.
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


def slice_windows(workload: Workload, **kwargs) -> list[Window]:
    """The windows :func:`stream_windows` cuts from *workload*, as a list.

    Takes the same keyword arguments.  Invariants (tested): windows are
    non-overlapping and in trace order, job windows partition the trace
    except for a dropped tail shorter than ``warmup + min_jobs``, and
    every window re-starts its clock at zero.  When the workload's
    ``nmax`` (or a given *nmax*) is non-zero, a job larger than the
    machine raises :class:`ValueError` naming it.
    """
    return list(stream_windows(workload, **kwargs))
