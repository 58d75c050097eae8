"""Lublin–Feitelson workload model (Lublin & Feitelson, JPDC 2003).

The paper trains its policies on jobs "generated by the Lublin and
Feitelson workload model" (§4.2).  This module reimplements the published
model — the reference implementation is ``lublin99.c`` from the Parallel
Workloads Archive — with its three components:

1. **Job size** (number of cores): a job is serial with probability
   ``serial_prob``; otherwise ``log2(size)`` follows a *two-stage uniform*
   distribution on ``[ulow, umed] ∪ [umed, uhi]`` (``uhi = log2(nmax)``),
   and with probability ``pow2_prob`` the size is rounded to a power of
   two.  This reproduces the hallmark power-of-two spikes of real traces.
2. **Runtime**: ``2**x`` where ``x`` follows a *hyper-gamma* distribution
   — a two-component gamma mixture whose first component models short
   jobs and second component long jobs.  The mixture probability depends
   linearly on the job size (``p = pa * n + pb``), reproducing the
   observed correlation between job size and runtime.
3. **Inter-arrival times**: ``2**x`` with gamma-distributed ``x``,
   modulated by a daily cycle so that arrivals concentrate in working
   hours.  (``lublin99.c`` uses a 48-slot empirical weight table; we use
   a smooth two-peak day profile with the same peak-to-trough ratio —
   the simplification is covered by the rhythm tests in
   ``tests/test_workloads_lublin.py``.)

All constants default to the ``lublin99.c`` batch-job values.  Every
sampler takes an explicit :class:`numpy.random.Generator`, so workloads
are reproducible from a single seed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.sim.job import Workload
from repro.util.rng import SeedLike, as_generator
from repro.util.validation import check_in_range, check_positive, check_positive_int

__all__ = [
    "LublinParams",
    "lublin_workload",
    "sample_sizes",
    "sample_runtimes",
    "sample_arrivals",
    "two_stage_uniform",
    "scale_to_utilization",
]


@dataclass(frozen=True)
class LublinParams:
    """Model constants (defaults: ``lublin99.c`` batch parameters)."""

    nmax: int = 256

    # --- job size -----------------------------------------------------
    serial_prob: float = 0.244
    pow2_prob: float = 0.576
    ulow: float = 0.8  # log2 of the smallest parallel size
    umed: float = 4.5  # log2 break-point of the two-stage uniform
    uprob: float = 0.86  # probability of the low range

    # --- runtime hyper-gamma (log2 seconds) ----------------------------
    a1: float = 4.2
    b1: float = 0.94
    a2: float = 312.0
    b2: float = 0.03
    pa: float = -0.0054
    pb: float = 0.78
    runtime_cap: float = 7 * 86400.0  # clamp at one week

    # --- inter-arrival (log2 seconds) ----------------------------------
    aarr: float = 10.23
    barr: float = 0.4871
    daily_cycle: bool = True
    cycle_base: float = 0.35  # night-time relative intensity
    cycle_peak_hour: float = 13.0  # from lublin99's weight table maximum
    cycle_width_hours: float = 4.8

    def __post_init__(self) -> None:
        check_positive_int("nmax", self.nmax)
        check_in_range("serial_prob", self.serial_prob, 0.0, 1.0)
        check_in_range("pow2_prob", self.pow2_prob, 0.0, 1.0)
        check_in_range("uprob", self.uprob, 0.0, 1.0)
        for nm in ("a1", "b1", "a2", "b2", "aarr", "barr", "runtime_cap"):
            check_positive(nm, getattr(self, nm))
        check_positive("cycle_base", self.cycle_base)

    @property
    def uhi(self) -> float:
        """Upper log2-size bound, ``log2(nmax)``."""
        return float(np.log2(self.nmax))

    @property
    def effective_umed(self) -> float:
        """The model keeps the break-point at least one octave below uhi."""
        return min(self.umed, self.uhi - 1.0) if self.uhi > 1.0 else self.uhi / 2.0

    def for_machine(self, nmax: int) -> "LublinParams":
        """Same distributional shape, different machine size."""
        return replace(self, nmax=nmax)


def two_stage_uniform(
    rng: np.random.Generator,
    count: int,
    low: float,
    med: float,
    high: float,
    prob: float,
) -> np.ndarray:
    """Sample the model's two-stage uniform distribution.

    With probability *prob* the value is uniform on ``[low, med]``,
    otherwise uniform on ``[med, high]``.
    """
    if not (low <= med <= high):
        raise ValueError(f"need low <= med <= high, got {low}, {med}, {high}")
    pick_low = rng.random(count) < prob
    lo_vals = rng.uniform(low, med, size=count)
    hi_vals = rng.uniform(med, high, size=count)
    return np.where(pick_low, lo_vals, hi_vals)


def sample_sizes(
    rng: np.random.Generator, count: int, params: LublinParams
) -> np.ndarray:
    """Sample job core counts (int64 in ``[1, nmax]``)."""
    u = two_stage_uniform(
        rng, count, params.ulow, params.effective_umed, params.uhi, params.uprob
    )
    pow2 = rng.random(count) < params.pow2_prob
    sizes = np.where(pow2, 2.0 ** np.round(u), np.round(2.0**u))
    sizes = np.clip(sizes, 1, params.nmax).astype(np.int64)
    serial = rng.random(count) < params.serial_prob
    sizes[serial] = 1
    return sizes


def sample_runtimes(
    rng: np.random.Generator, sizes: np.ndarray, params: LublinParams
) -> np.ndarray:
    """Sample runtimes (seconds) from the size-correlated hyper-gamma."""
    count = len(sizes)
    # Mixture probability of the *short* component decreases with size.
    p = np.clip(params.pa * sizes.astype(float) + params.pb, 0.01, 0.99)
    short = rng.random(count) < p
    x_short = rng.gamma(shape=params.a1, scale=params.b1, size=count)
    x_long = rng.gamma(shape=params.a2, scale=params.b2, size=count)
    log2_rt = np.where(short, x_short, x_long)
    runtime = np.exp2(log2_rt)
    return np.clip(runtime, 1.0, params.runtime_cap)


def sample_arrivals(
    rng: np.random.Generator,
    count: int,
    params: LublinParams,
    *,
    start_of_day_s: float = 8.0 * 3600.0,
) -> np.ndarray:
    """Sample *count* absolute arrival times (seconds from t=0).

    Base inter-arrival gaps are ``2**Gamma(aarr, barr)``; each gap is then
    divided by the current daily-cycle intensity, so arrivals bunch during
    working hours.  Returned times are **absolute seconds since midnight**
    of day zero, with the clock opening at *start_of_day_s* (8 am by
    default — traces usually begin during the working day); keeping the
    midnight origin preserves the time-of-day phase for rhythm analysis,
    exactly like real SWF timestamps.
    """
    gaps = np.exp2(rng.gamma(shape=params.aarr, scale=params.barr, size=count))
    if not params.daily_cycle:
        return start_of_day_s + np.cumsum(gaps)
    # The intensity is two Gaussian bumps around the peak hour over a flat
    # base, normalised to a daily mean of ~1 (the 1 pm peak is ~3x the
    # night trough, as in lublin99.c's weight table).  Scalar fast path
    # for the sequential modulation loop (the intensity at time t feeds
    # back into t, so the loop cannot be fully vectorized; a pure-math
    # inner loop is ~20x faster than numpy scalar ops here).
    import math

    base = params.cycle_base
    peak1 = params.cycle_peak_hour - 2.5
    peak2 = params.cycle_peak_hour + 1.5
    width = params.cycle_width_hours
    norm = base + 2.0 * width * math.sqrt(2 * math.pi) / 24.0
    times = np.empty(count, dtype=float)
    t = float(start_of_day_s)
    gaps_list = gaps.tolist()
    for i, gap in enumerate(gaps_list):
        hours = (t / 3600.0) % 24.0
        w = (
            base
            + math.exp(-0.5 * ((hours - peak1) / width) ** 2)
            + math.exp(-0.5 * ((hours - peak2) / width) ** 2)
        ) / norm
        t += gap / w
        times[i] = t
    return times


def lublin_workload(
    n_jobs: int,
    nmax: int = 256,
    *,
    seed: SeedLike = None,
    params: LublinParams | None = None,
    name: str | None = None,
) -> Workload:
    """Generate a Lublin–Feitelson workload of *n_jobs* jobs for *nmax* cores.

    Estimates are initialised to the actual runtimes (perfect
    information); apply :func:`repro.workloads.tsafrir.apply_tsafrir` to
    obtain realistic user estimates.
    """
    check_positive_int("n_jobs", n_jobs)
    rng = as_generator(seed)
    p = (params or LublinParams()).for_machine(nmax)
    sizes = sample_sizes(rng, n_jobs, p)
    runtimes = sample_runtimes(rng, sizes, p)
    submits = sample_arrivals(rng, n_jobs, p)
    return Workload(
        submit=submits,
        runtime=runtimes,
        size=sizes,
        estimate=runtimes.copy(),
        job_ids=np.arange(n_jobs, dtype=np.int64),
        name=name or f"lublin_{nmax}",
        nmax=nmax,
    )


def scale_to_utilization(
    workload: Workload, target_util: float, nmax: int | None = None
) -> Workload:
    """Stretch/compress arrival times so the offered load hits *target_util*.

    Used to calibrate synthetic traces to the utilizations of Table 5.
    The arrival *pattern* (relative gaps, daily rhythm) is preserved; only
    the global time scale changes.
    """
    check_in_range("target_util", target_util, 0.0, 2.0, inclusive=False)
    nmax = nmax or workload.nmax
    current = workload.utilization(nmax)
    if not np.isfinite(current) or current <= 0:
        raise ValueError("workload has no measurable offered load")
    factor = current / target_util
    scaled = workload.submit * factor
    return replace(workload, submit=scaled - scaled[0] if len(scaled) else scaled)
