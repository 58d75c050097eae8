"""Robustness studies: how stable are the experiment conclusions?

A reproduction is only convincing if its conclusions survive the knobs
the paper fixed silently: the RNG seed behind workload generation and
the ``tau`` constant of the bounded-slowdown metric (Eq. 1).  This
module sweeps both and reports whether the *policy ranking* — the
paper's actual claim — is stable.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from repro.experiments.dynamic import run_dynamic_experiment
from repro.experiments.scale import Scale
from repro.experiments.table4 import Table4Row, build_row_workload, run_row
from repro.runtime import TrialRunner

__all__ = ["SeedSweepResult", "seed_sweep", "tau_sweep", "ranking_stability"]


@dataclass(frozen=True)
class SeedSweepResult:
    """Medians per policy per seed, plus ranking agreement."""

    row_id: str
    seeds: tuple[int, ...]
    medians: dict[int, dict[str, float]]  # seed -> policy -> median

    def rankings(self) -> dict[int, list[str]]:
        """Policy order (best first) per seed."""
        return {
            seed: sorted(med, key=med.get) for seed, med in self.medians.items()
        }

    def winner_counts(self) -> dict[str, int]:
        """How often each policy ranks first across seeds."""
        counts: dict[str, int] = {}
        for ranking in self.rankings().values():
            counts[ranking[0]] = counts.get(ranking[0], 0) + 1
        return counts


def _seed_point(
    spec: tuple[Table4Row, Scale, int, tuple[str, ...]],
) -> tuple[int, dict[str, float]]:
    """Picklable one-seed task dispatched by :func:`seed_sweep`."""
    row, scale, seed, policies = spec
    return seed, run_row(row, scale, seed=seed, policies=policies).medians()


def seed_sweep(
    row: Table4Row,
    scale: Scale,
    seeds: Sequence[int],
    *,
    policies: tuple[str, ...] = ("FCFS", "SPT", "F1"),
    workers: int | str | None = None,
) -> SeedSweepResult:
    """Re-run one Table 4 row under several workload seeds.

    Sweep points are independent, so *workers* fans them over the
    :mod:`repro.runtime` pool; each point computes exactly what the
    serial loop would.
    """
    if not seeds:
        raise ValueError("need at least one seed")
    specs = [(row, scale, int(seed), tuple(policies)) for seed in seeds]
    with TrialRunner(workers) as runner:
        medians = dict(runner.map(_seed_point, specs, phase="seeds"))
    return SeedSweepResult(
        row_id=row.row_id, seeds=tuple(int(s) for s in seeds), medians=medians
    )


def tau_sweep(
    row: Table4Row,
    scale: Scale,
    taus: Sequence[float],
    *,
    seed: int = 0,
    policies: tuple[str, ...] = ("FCFS", "SPT", "F1"),
) -> dict[float, dict[str, float]]:
    """Medians per policy for several Eq. 1 ``tau`` constants.

    The paper fixes tau = 10 s; the ranking should not hinge on it.
    Workload and schedules are identical across taus — only the metric
    changes — so this isolates the metric's influence exactly.
    """
    if not taus:
        raise ValueError("need at least one tau")
    workload, nmax = build_row_workload(row, scale, seed=seed)
    out: dict[float, dict[str, float]] = {}
    for tau in taus:
        result = run_dynamic_experiment(
            workload,
            policies,
            nmax,
            name=f"{row.row_id}@tau{tau}",
            use_estimates=row.use_estimates,
            backfill=row.backfill,
            n_sequences=scale.n_sequences,
            days=scale.days,
            tau=float(tau),
        )
        out[float(tau)] = result.medians()
    return out


def ranking_stability(rankings: dict, reference: list[str] | None = None) -> float:
    """Fraction of sweep points whose ranking equals the reference.

    *reference* defaults to the modal ranking.  1.0 means the conclusion
    is invariant over the sweep.
    """
    if not rankings:
        raise ValueError("no rankings to compare")
    ordered = [tuple(r) for r in rankings.values()]
    if reference is None:
        # modal ranking
        counts: dict[tuple, int] = {}
        for r in ordered:
            counts[r] = counts.get(r, 0) + 1
        reference = list(max(counts, key=counts.get))
    ref = tuple(reference)
    return sum(r == ref for r in ordered) / len(ordered)
