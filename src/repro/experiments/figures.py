"""Figure regeneration (Figures 1–3; Figures 4–9 are Table 4 rows).

Matplotlib is unavailable offline, so each function returns the *data*
the corresponding figure plots (plus CSV export helpers); the benchmark
harnesses (``benchmarks/bench_fig*.py``) print the series.

* Figure 1 — example trial score distributions for a tuple (S, Q).
* Figure 2 — convergence of trial scores with the number of trials.
* Figure 3 — priority heat maps of F1–F4 over (r, n), (r, s), (n, s).
* Figures 4–9 — boxplots of the dynamic experiments; their data comes
  from :func:`repro.experiments.table4.run_row` (one row per panel).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.taskgen import TaskSetTuple, generate_tuples
from repro.core.trials import run_trials
from repro.policies.base import Policy
from repro.policies.learned import paper_policies
from repro.util.rng import SeedLike, as_generator, spawn_generators

__all__ = [
    "Fig1Result",
    "fig1_trial_score_distributions",
    "Fig2Result",
    "fig2_trial_convergence",
    "Fig3Maps",
    "fig3_policy_maps",
]


# ----------------------------------------------------------------------
# Figure 1
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Fig1Result:
    """Scores per task for example tuples (panels of Figure 1)."""

    panels: list[np.ndarray]  # one score vector per tuple
    q_size: int

    @property
    def mean_line(self) -> float:
        """The figure's horizontal reference line, ``1/|Q|``."""
        return 1.0 / self.q_size


def fig1_trial_score_distributions(
    *,
    n_panels: int = 2,
    nmax: int = 256,
    s_size: int = 16,
    q_size: int = 32,
    n_trials: int = 1024,
    seed: SeedLike = 0,
) -> Fig1Result:
    """Reproduce Figure 1: trial score distributions for example tuples."""
    tuples = generate_tuples(
        n_panels, nmax=nmax, s_size=s_size, q_size=q_size, seed=seed
    )
    rngs = spawn_generators(as_generator(seed).integers(2**31), n_panels)
    panels = [
        run_trials(tup, nmax, n_trials, seed=rng).scores
        for tup, rng in zip(tuples, rngs)
    ]
    return Fig1Result(panels=panels, q_size=q_size)


# ----------------------------------------------------------------------
# Figure 2
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Fig2Result:
    """Normalized score standard deviation as a function of trial count."""

    trial_counts: tuple[int, ...]
    normalized_std: np.ndarray  # aligned with trial_counts
    repeats: int

    def series(self) -> list[tuple[int, float]]:
        """(trials, normalized std) pairs, ready for plotting/CSV."""
        return list(zip(self.trial_counts, map(float, self.normalized_std)))


def fig2_trial_convergence(
    trial_counts: tuple[int, ...],
    *,
    repeats: int = 10,
    nmax: int = 256,
    s_size: int = 16,
    q_size: int = 32,
    seed: SeedLike = 0,
    tup: TaskSetTuple | None = None,
) -> Fig2Result:
    """Reproduce Figure 2's convergence study on one tuple.

    For each trial budget the scoring is repeated *repeats* times with
    fresh permutations; the reported value is the per-task standard
    deviation across repetitions normalized by the mean score ``1/|Q|``,
    averaged over tasks.  The paper observes a normalized std of ~0.02
    at 256 k trials; the curve shape (fast initial drop, slow tail) is
    the reproduction target at smaller budgets.
    """
    if tup is None:
        tup = generate_tuples(1, nmax=nmax, s_size=s_size, q_size=q_size, seed=seed)[0]
    q_size = len(tup.Q)
    root = as_generator(seed)
    out = np.empty(len(trial_counts), dtype=float)
    for ci, count in enumerate(trial_counts):
        reps = np.empty((repeats, q_size), dtype=float)
        for rep, rng in enumerate(spawn_generators(root.integers(2**31), repeats)):
            reps[rep] = run_trials(tup, nmax, count, seed=rng).scores
        per_task_std = reps.std(axis=0, ddof=1)
        out[ci] = float(per_task_std.mean() * q_size)  # / (1/|Q|)
    return Fig2Result(trial_counts=tuple(trial_counts), normalized_std=out, repeats=repeats)


# ----------------------------------------------------------------------
# Figure 3
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Fig3Maps:
    """Normalized priority maps per policy for one axis pair."""

    axis_pair: str  # "rn", "rs" or "ns"
    x_values: np.ndarray
    y_values: np.ndarray
    maps: dict[str, np.ndarray]  # policy -> (len(y), len(x)) in [0, 1]


def _normalize(grid: np.ndarray) -> np.ndarray:
    lo, hi = float(grid.min()), float(grid.max())
    if hi - lo <= 0:
        return np.zeros_like(grid)
    return (grid - lo) / (hi - lo)


def fig3_policy_maps(
    axis_pair: str,
    *,
    policies: list[Policy] | None = None,
    r_range: tuple[float, float] = (1.0, 2.7e4),
    n_range: tuple[float, float] = (1.0, 256.0),
    s_range: tuple[float, float] = (1.0, 256.0),
    fixed: dict[str, float] | None = None,
    resolution: int = 64,
) -> Fig3Maps:
    """Reproduce one panel row of Figure 3.

    *axis_pair* selects the varying attributes (``"rn"``: runtime vs
    cores, ``"rs"``: runtime vs submit, ``"ns"``: cores vs submit); the
    third attribute is held at its range midpoint unless *fixed*
    overrides it.  Values are min-max normalized per panel, exactly how
    the figure's colormap is scaled.
    """
    if axis_pair not in ("rn", "rs", "ns"):
        raise ValueError("axis_pair must be one of 'rn', 'rs', 'ns'")
    policies = policies if policies is not None else paper_policies()
    fixed = fixed or {}
    ranges = {"r": r_range, "n": n_range, "s": s_range}
    x_attr, y_attr = axis_pair[0], axis_pair[1]
    (x_lo, x_hi), (y_lo, y_hi) = ranges[x_attr], ranges[y_attr]
    x = np.linspace(x_lo, x_hi, resolution)
    y = np.linspace(y_lo, y_hi, resolution)
    other = ({"r", "n", "s"} - {x_attr, y_attr}).pop()
    o_lo, o_hi = ranges[other]
    o_val = fixed.get(other, 0.5 * (o_lo + o_hi))

    xv, yv = np.meshgrid(x, y)
    attrs = {x_attr: xv.ravel(), y_attr: yv.ravel(), other: np.full(xv.size, o_val)}
    maps: dict[str, np.ndarray] = {}
    for policy in policies:
        scores = policy.scores(
            0.0, attrs["s"], attrs["r"], attrs["n"]
        )  # (now, submit, proc, size)
        maps[policy.name] = _normalize(scores.reshape(resolution, resolution))
    return Fig3Maps(axis_pair=axis_pair, x_values=x, y_values=y, maps=maps)
