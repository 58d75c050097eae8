"""The two shapes of a job set: the workload container and the job block.

A *job* (the paper calls it a task) is a rigid parallel job described by the
four quantities of §3.1 of the paper:

``submit``
    arrival time :math:`s_t` (seconds, also called release date),
``runtime``
    actual processing time :math:`r_t` (only known after execution),
``size``
    resource requirement :math:`n_t` (number of cores),
``estimate``
    user-provided processing-time estimate :math:`e_t`.

Jobs have two shapes: :class:`Workload` in memory (structure-of-arrays,
used by the simulator and every generator — the hot paths are all
vectorized over these arrays) and the *job block* in a stream (a
``(k, 5)`` float64 array, columns :data:`BLOCK_COLUMNS`), which the SWF
reader yields and the window slicer cuts.

:class:`Workload.__post_init__` guarantees C-contiguous float64/int64
attribute arrays sorted by submit time — the exact layout the unified
simulation kernel (:mod:`repro.sim.kernel`) hands to its compiled
backend without copying.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field, replace

import numpy as np

from repro.util.validation import check_finite

__all__ = [
    "BLOCK_COLUMNS",
    "Workload",
    "as_sizes",
    "concat_workloads",
    "job_block",
    "oversize_job_error",
]

#: Columns of a *job block*: the ``(k, 5)`` float64 array of ``k`` jobs
#: that :func:`repro.workloads.swf.iter_swf_blocks` yields and
#: :func:`repro.eval.windows.stream_windows` cuts.
BLOCK_COLUMNS = ("job_id", "submit", "runtime", "size", "estimate")


def job_block(job_ids, submit, runtime, size, estimate) -> np.ndarray:
    """Stack per-job columns into a job block, in :data:`BLOCK_COLUMNS` order."""
    return np.column_stack((job_ids, submit, runtime, size, estimate))


def oversize_job_error(job_id, size, nmax: int) -> ValueError:
    """The error for job *job_id*, of *size* cores, on an *nmax*-core machine."""
    return ValueError(
        f"job {int(job_id)} needs {int(size)} cores but the machine has only {nmax}"
    )


def as_sizes(size, job_ids: np.ndarray | None = None) -> np.ndarray:
    """*size* as a C-contiguous int64 array.

    An integer array passes as is; any other input must hold finite whole
    numbers, so ``2.5`` or NaN raises :class:`ValueError` naming the first
    such job (by its id in *job_ids*, else by position) instead of being
    cast silently.
    """
    raw = np.asarray(size)
    if raw.dtype.kind not in "biu":
        values = raw.astype(np.float64)
        ok = np.isfinite(values) & (values == np.floor(values))
        if not ok.all():
            k = int(np.argmin(ok))
            job = k if job_ids is None else int(job_ids[k])
            raise ValueError(
                f"job {job}: size must be a finite whole number, got {raw[k].item()!r}"
            )
    return np.ascontiguousarray(raw, dtype=np.int64)


@dataclass(frozen=True)
class Workload:
    """A structure-of-arrays batch of jobs, sorted by submit time.

    All arrays share one length.  ``job_ids`` preserves provenance when a
    workload is sliced into sequences, so results can be traced back to the
    originating trace line.
    """

    submit: np.ndarray
    runtime: np.ndarray
    size: np.ndarray
    estimate: np.ndarray
    job_ids: np.ndarray
    name: str = "workload"
    nmax: int = 0  # machine size context; 0 means "unknown"
    extra: dict = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        submit = np.ascontiguousarray(self.submit, dtype=np.float64)
        runtime = np.ascontiguousarray(self.runtime, dtype=np.float64)
        estimate = np.ascontiguousarray(self.estimate, dtype=np.float64)
        job_ids = np.ascontiguousarray(self.job_ids, dtype=np.int64)
        size = np.asarray(self.size)
        n = len(submit)
        for label, arr in (
            ("runtime", runtime),
            ("size", size),
            ("estimate", estimate),
            ("job_ids", job_ids),
        ):
            if len(arr) != n:
                raise ValueError(
                    f"array length mismatch: submit has {n}, {label} has {len(arr)}"
                )
        size = as_sizes(size, job_ids)
        check_finite("submit", submit)
        check_finite("runtime", runtime)
        check_finite("estimate", estimate)
        if n:
            if submit.min() < 0:
                raise ValueError("submit times must be >= 0")
            if runtime.min() <= 0:
                raise ValueError("runtimes must be > 0")
            if estimate.min() <= 0:
                raise ValueError("estimates must be > 0")
            if size.min() < 1:
                raise ValueError("sizes must be >= 1")
            if not np.all(np.diff(submit) >= 0):
                order = np.argsort(submit, kind="stable")
                submit = submit[order]
                runtime = runtime[order]
                size = size[order]
                estimate = estimate[order]
                job_ids = job_ids[order]
        for name, arr in (
            ("submit", submit),
            ("runtime", runtime),
            ("size", size),
            ("estimate", estimate),
            ("job_ids", job_ids),
        ):
            object.__setattr__(self, name, arr)

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_arrays(
        cls,
        submit: Sequence[float],
        runtime: Sequence[float],
        size: Sequence[int],
        estimate: Sequence[float] | None = None,
        *,
        name: str = "workload",
        nmax: int = 0,
    ) -> "Workload":
        """Build a workload from plain sequences; estimates default to runtimes."""
        submit = np.asarray(submit, dtype=np.float64)
        runtime = np.asarray(runtime, dtype=np.float64)
        if estimate is None:
            estimate = runtime.copy()
        return cls(
            submit=submit,
            runtime=runtime,
            size=size,
            estimate=np.asarray(estimate, dtype=np.float64),
            job_ids=np.arange(len(submit), dtype=np.int64),
            name=name,
            nmax=nmax,
        )

    @classmethod
    def from_block(
        cls, mat: np.ndarray, *, name: str, nmax: int, extra: dict | None = None
    ) -> "Workload":
        """Build a workload from a job block (:data:`BLOCK_COLUMNS` order).

        Sizes must be whole numbers (see :func:`as_sizes`); submit times
        are taken as they are, so re-base the block first if it should
        start at t=0.
        """
        return cls(
            submit=mat[:, 1],
            runtime=mat[:, 2],
            size=mat[:, 3],
            estimate=mat[:, 4],
            job_ids=mat[:, 0].astype(np.int64),
            name=name,
            nmax=nmax,
            extra={} if extra is None else extra,
        )

    # ------------------------------------------------------------------
    # views and derived quantities
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.submit)

    @property
    def area(self) -> float:
        """Total core-seconds over all jobs."""
        return float(np.sum(self.runtime * self.size))

    @property
    def span(self) -> float:
        """Distance between first and last arrival."""
        if len(self) == 0:
            return 0.0
        return float(self.submit[-1] - self.submit[0])

    def utilization(self, nmax: int | None = None) -> float:
        """Offered load: total area over ``nmax * span`` (a lower bound on
        achievable machine utilization; > 1 means overload)."""
        nmax = nmax or self.nmax
        if nmax <= 0:
            raise ValueError("nmax must be provided (workload has no machine size)")
        span = self.span
        if span <= 0:
            return float("inf") if len(self) else 0.0
        return self.area / (nmax * span)

    def blocks(self, rows: int) -> Iterator[np.ndarray]:
        """The jobs as job blocks of at most *rows* jobs, in submit order."""
        for lo in range(0, len(self), rows):
            hi = lo + rows
            yield job_block(
                self.job_ids[lo:hi],
                self.submit[lo:hi],
                self.runtime[lo:hi],
                self.size[lo:hi],
                self.estimate[lo:hi],
            )

    def select(self, mask_or_index: np.ndarray) -> "Workload":
        """Return a sub-workload (arrays re-sorted by submit automatically)."""
        return replace(
            self,
            submit=self.submit[mask_or_index],
            runtime=self.runtime[mask_or_index],
            size=self.size[mask_or_index],
            estimate=self.estimate[mask_or_index],
            job_ids=self.job_ids[mask_or_index],
        )

    def shifted(self, *, t0: float | None = None, min_submit: float = 0.0) -> "Workload":
        """Shift submit times so the earliest becomes *min_submit*.

        Used when slicing a long trace into sequences: each sequence's clock
        restarts, matching the paper's per-sequence experiments.
        """
        if len(self) == 0:
            return self
        origin = self.submit[0] if t0 is None else t0
        return replace(self, submit=self.submit - origin + min_submit)

    def with_estimates(self, estimate: np.ndarray) -> "Workload":
        """Return a copy with user estimates replaced."""
        estimate = np.asarray(estimate, dtype=np.float64)
        if len(estimate) != len(self):
            raise ValueError("estimate array length mismatch")
        return replace(self, estimate=estimate)

    def with_name(self, name: str) -> "Workload":
        """Return a copy carrying a new display name."""
        return replace(self, name=name)

    def validate_for_machine(self, nmax: int) -> None:
        """Raise if any job cannot ever run on an ``nmax``-core machine."""
        if len(self) and int(self.size.max()) > nmax:
            worst = int(np.argmax(self.size))
            raise oversize_job_error(self.job_ids[worst], self.size[worst], nmax)


def concat_workloads(parts: Sequence[Workload], *, name: str = "concat") -> Workload:
    """Concatenate workloads (job ids are re-assigned to stay unique)."""
    if not parts:
        raise ValueError("nothing to concatenate")
    submit = np.concatenate([p.submit for p in parts])
    runtime = np.concatenate([p.runtime for p in parts])
    size = np.concatenate([p.size for p in parts])
    estimate = np.concatenate([p.estimate for p in parts])
    return Workload(
        submit=submit,
        runtime=runtime,
        size=size,
        estimate=estimate,
        job_ids=np.arange(len(submit), dtype=np.int64),
        name=name,
        nmax=max(p.nmax for p in parts),
    )
