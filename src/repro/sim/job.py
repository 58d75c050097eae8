"""Job and workload containers.

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

Two representations are provided: :class:`Job` (one record, convenient for
construction and tests) and :class:`Workload` (structure-of-arrays, used by
the simulator and every generator — the hot paths are all vectorized over
these arrays, per the hpc-parallel guide's "vectorize the bottleneck"
idiom).

:class:`Workload.__post_init__` guarantees C-contiguous float64/int64
attribute arrays sorted by submit time — the exact layout the unified
simulation kernel (:mod:`repro.sim.kernel`) hands to its compiled
backend without copying.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field, replace

import numpy as np

from repro.util.validation import check_finite, check_positive_int

__all__ = ["Job", "Workload", "as_sizes", "concat_workloads"]


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


@dataclass(frozen=True, slots=True)
class Job:
    """One rigid job.  Immutable; simulation outcomes live in results."""

    job_id: int
    submit: float
    runtime: float
    size: int
    estimate: float = -1.0  # -1 means "defaults to runtime" (perfect estimate)

    def __post_init__(self) -> None:
        if self.submit < 0 or not math.isfinite(self.submit):
            raise ValueError(f"job {self.job_id}: submit must be >= 0 and finite")
        if self.runtime <= 0 or not math.isfinite(self.runtime):
            raise ValueError(f"job {self.job_id}: runtime must be > 0 and finite")
        check_positive_int("size", self.size)
        if self.estimate == -1.0:
            object.__setattr__(self, "estimate", float(self.runtime))
        elif self.estimate <= 0 or not math.isfinite(self.estimate):
            raise ValueError(f"job {self.job_id}: estimate must be > 0 and finite")

    @property
    def area(self) -> float:
        """Core-seconds consumed by the job (``runtime * size``)."""
        return self.runtime * self.size


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
    def from_jobs(
        cls, jobs: Iterable[Job], *, name: str = "workload", nmax: int = 0
    ) -> "Workload":
        """Build a workload from :class:`Job` records."""
        jobs = list(jobs)
        return cls(
            submit=np.array([j.submit for j in jobs], dtype=np.float64),
            runtime=np.array([j.runtime for j in jobs], dtype=np.float64),
            size=np.array([j.size for j in jobs], dtype=np.int64),
            estimate=np.array([j.estimate for j in jobs], dtype=np.float64),
            job_ids=np.array([j.job_id for j in jobs], dtype=np.int64),
            name=name,
            nmax=nmax,
        )

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

    # ------------------------------------------------------------------
    # views and derived quantities
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.submit)

    def to_jobs(self) -> list[Job]:
        """Materialise :class:`Job` records (intended for tests/debugging)."""
        return [
            Job(
                job_id=int(self.job_ids[i]),
                submit=float(self.submit[i]),
                runtime=float(self.runtime[i]),
                size=int(self.size[i]),
                estimate=float(self.estimate[i]),
            )
            for i in range(len(self))
        ]

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
            raise ValueError(
                f"job {int(self.job_ids[worst])} needs {int(self.size[worst])} cores"
                f" but the machine has only {nmax}"
            )


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
