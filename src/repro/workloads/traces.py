"""Synthetic stand-ins for the paper's four real workload traces.

The evaluation of §4.3 replays ten 15-day sequences from four Parallel
Workloads Archive traces (Table 5).  The archive is unreachable offline,
so each trace is replaced by a *seeded synthetic stand-in*: a
Lublin-parameterized generator whose knobs are tuned per machine and whose
arrival time-scale is calibrated so the offered load matches the published
mean utilization.  The evaluation pipeline consumes nothing but the
``(r, e, n, s)`` stream, so a stream with matched vitals exercises exactly
the code paths the real trace would.  A fetched real trace is used
through a ``pwa:<name>`` reference instead (docs/evaluate.md §1).

Published vitals (paper Table 5) are kept verbatim in :data:`TRACES` and
asserted in unit tests; per-machine *character* (size mix, runtime scale)
follows the PWA trace descriptions:

* **Curie** (CEA, 2011) — huge thin-node machine, many small/short jobs.
* **ANL Intrepid** (2009) — BlueGene/P; allocations in 512-core blocks,
  power-of-two heavy, low utilization.
* **SDSC Blue** (2003) — Blue Horizon; 8-way nodes, mid-size jobs,
  high utilization.
* **CTC SP2** (1997) — small machine, mostly serial/small jobs, very
  high utilization.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.sim.job import Workload
from repro.util.rng import SeedLike, as_generator, spawn_generators
from repro.workloads.lublin import (
    LublinParams,
    sample_arrivals,
    sample_runtimes,
    sample_sizes,
    scale_to_utilization,
)
from repro.workloads.tsafrir import TsafrirParams, tsafrir_estimates

__all__ = ["TraceSpec", "TRACES", "synthetic_trace", "trace_names"]


@dataclass(frozen=True)
class TraceSpec:
    """Published vitals (Table 5) + generator character for one trace."""

    key: str
    display_name: str
    year: int
    cores: int
    n_jobs: int
    utilization: float  # mean utilization, fraction
    duration_months: int
    lublin_overrides: dict = field(default_factory=dict)
    size_quantum: int = 1  # allocation granularity (ANL: 512-core blocks)
    max_request_s: float = 24 * 3600.0  # site wall-clock limit for estimates


TRACES: dict[str, TraceSpec] = {
    "curie": TraceSpec(
        key="curie",
        display_name="Curie",
        year=2011,
        cores=93312,
        n_jobs=312826,
        utilization=0.620,
        duration_months=20,
        lublin_overrides=dict(
            serial_prob=0.30,
            pow2_prob=0.50,
            uprob=0.92,  # strong small-job dominance
            b1=0.80,  # slightly shorter interactive jobs
        ),
        max_request_s=72 * 3600.0,
    ),
    "anl_intrepid": TraceSpec(
        key="anl_intrepid",
        display_name="ANL Interpid",  # [sic] — the paper's spelling
        year=2009,
        cores=163840,
        n_jobs=68936,
        utilization=0.596,
        duration_months=8,
        lublin_overrides=dict(
            serial_prob=0.0,  # BG/P has no serial jobs
            pow2_prob=0.95,
            ulow=9.0,  # smallest allocation: 2^9 = 512 cores
            umed=11.0,
            uprob=0.75,
        ),
        size_quantum=512,
        max_request_s=12 * 3600.0,
    ),
    "sdsc_blue": TraceSpec(
        key="sdsc_blue",
        display_name="SDSC Blue",
        year=2003,
        cores=1152,
        n_jobs=243306,
        utilization=0.767,
        duration_months=32,
        lublin_overrides=dict(
            serial_prob=0.05,
            pow2_prob=0.70,
            ulow=3.0,  # 8-way nodes: min allocation 8 cores
            umed=5.0,
        ),
        size_quantum=8,
        max_request_s=36 * 3600.0,
    ),
    "ctc_sp2": TraceSpec(
        key="ctc_sp2",
        display_name="CTC SP2",
        year=1997,
        cores=338,
        n_jobs=77222,
        utilization=0.852,
        duration_months=11,
        lublin_overrides=dict(
            serial_prob=0.35,
            pow2_prob=0.40,
            b2=0.032,  # slightly longer batch jobs on the small machine
        ),
        max_request_s=18 * 3600.0,
    ),
}


def trace_names() -> list[str]:
    """Trace keys in the paper's presentation order."""
    return ["curie", "anl_intrepid", "sdsc_blue", "ctc_sp2"]


def synthetic_trace(
    key: str,
    *,
    seed: SeedLike = 0,
    n_jobs: int | None = None,
) -> Workload:
    """Generate the synthetic stand-in for trace *key*.

    *n_jobs* defaults to the published job count (Table 5); pass something
    smaller for quick experiments — utilization calibration is preserved
    at any size.  Estimates (Tsafrir model, clamped at the site's maximum
    request) are always attached, so the same workload serves the
    actual-runtime, estimate and backfilling experiments.
    """
    try:
        spec = TRACES[key]
    except KeyError:
        raise KeyError(
            f"unknown trace {key!r}; available: {', '.join(trace_names())}"
        ) from None
    count = int(n_jobs) if n_jobs is not None else spec.n_jobs
    if count < 1:
        raise ValueError("n_jobs must be >= 1")

    rng = as_generator(seed)
    r_sizes, r_runs, r_arr, r_est = spawn_generators(rng, 4)

    params = LublinParams(nmax=spec.cores, **spec.lublin_overrides)
    sizes = sample_sizes(r_sizes, count, params)
    if spec.size_quantum > 1:
        sizes = np.maximum(
            (sizes + spec.size_quantum - 1) // spec.size_quantum, 1
        ) * spec.size_quantum
        sizes = np.minimum(sizes, spec.cores)
    runtimes = sample_runtimes(r_runs, sizes, params)
    submits = sample_arrivals(r_arr, count, params)

    wl = Workload(
        submit=submits,
        runtime=runtimes,
        size=sizes,
        estimate=runtimes.copy(),
        job_ids=np.arange(count, dtype=np.int64),
        name=spec.display_name,
        nmax=spec.cores,
        extra={"spec": spec},
    )
    wl = scale_to_utilization(wl, spec.utilization, spec.cores)
    est = tsafrir_estimates(
        wl.runtime,
        seed=r_est,
        params=TsafrirParams(e_max=spec.max_request_s),
    )
    return wl.with_estimates(est)
