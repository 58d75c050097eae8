"""Workload characterisation.

Summaries of the distributions that matter for scheduling behaviour —
job-size mix (serial / power-of-two fractions), runtime spread, arrival
rhythm, offered load.  Used three ways:

* tests validate the Lublin model and the trace stand-ins against their
  published shape properties,
* examples print them so users can sanity-check their own SWF traces,
* the trace calibration in :mod:`repro.workloads.traces` is verified
  against the Table 5 vitals through these numbers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.sim.job import Workload

__all__ = ["WorkloadProfile", "profile_workload"]


@dataclass(frozen=True)
class WorkloadProfile:
    """Shape summary of one workload."""

    name: str
    n_jobs: int
    span_days: float
    offered_load: float  # area / (nmax * span); nan when nmax unknown
    serial_fraction: float
    pow2_fraction: float  # among parallel jobs
    size_p50: float
    size_p95: float
    runtime_p50: float
    runtime_p95: float
    mean_interarrival: float
    day_night_ratio: float  # arrival rate 9-17h over 0-8h
    estimate_accuracy_p50: float  # median r/e (1.0 = perfect estimates)

    def to_text(self) -> str:
        """Multi-line human-readable rendering."""
        return "\n".join(
            [
                f"workload {self.name}: {self.n_jobs} jobs over {self.span_days:.1f} days",
                f"  offered load        {self.offered_load:.3f}",
                f"  serial fraction     {self.serial_fraction:.3f}",
                f"  pow2 fraction       {self.pow2_fraction:.3f} (parallel jobs)",
                f"  size p50/p95        {self.size_p50:.0f} / {self.size_p95:.0f} cores",
                f"  runtime p50/p95     {self.runtime_p50:.0f} / {self.runtime_p95:.0f} s",
                f"  mean inter-arrival  {self.mean_interarrival:.1f} s",
                f"  day/night arrivals  {self.day_night_ratio:.2f}x",
                f"  estimate accuracy   {self.estimate_accuracy_p50:.2f} (median r/e)",
            ]
        )


def profile_workload(workload: Workload, nmax: int | None = None) -> WorkloadProfile:
    """Compute the :class:`WorkloadProfile` of *workload*."""
    if len(workload) == 0:
        raise ValueError("cannot profile an empty workload")
    nmax = nmax or workload.nmax
    size = workload.size
    runtime = workload.runtime
    submit = workload.submit

    serial = size == 1
    parallel = size[~serial]
    if len(parallel):
        pow2 = float(np.mean((parallel & (parallel - 1)) == 0))
    else:
        pow2 = float("nan")

    gaps = np.diff(submit)
    mean_gap = float(gaps.mean()) if len(gaps) else float("nan")

    hours = (submit / 3600.0) % 24.0
    day = float(np.mean((hours >= 9) & (hours < 17)))
    night = float(np.mean(hours < 8))
    # rates per hour of window width
    day_rate = day / 8.0
    night_rate = night / 8.0
    ratio = day_rate / night_rate if night_rate > 0 else float("inf")

    try:
        offered = workload.utilization(nmax) if nmax else float("nan")
    except ValueError:
        offered = float("nan")

    return WorkloadProfile(
        name=workload.name,
        n_jobs=len(workload),
        span_days=workload.span / 86400.0,
        offered_load=float(offered),
        serial_fraction=float(np.mean(serial)),
        pow2_fraction=pow2,
        size_p50=float(np.percentile(size, 50)),
        size_p95=float(np.percentile(size, 95)),
        runtime_p50=float(np.percentile(runtime, 50)),
        runtime_p95=float(np.percentile(runtime, 95)),
        mean_interarrival=mean_gap,
        day_night_ratio=float(ratio),
        estimate_accuracy_p50=float(np.median(runtime / workload.estimate)),
    )

