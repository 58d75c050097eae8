"""Experiment scale presets.

The paper's full experimental scale — 256 k trials per tuple, ten 15-day
sequences per experiment, machines up to 163 840 cores — was run on a Xeon
with a C simulation core.  A pure-Python single-core session reproduces
the same *shapes* at reduced scale; every harness therefore takes a
:class:`Scale`, and :func:`current_scale` picks the preset (``smoke`` <
``small`` < ``medium`` < ``paper``): a named one, else ``REPRO_SCALE``,
else ``small`` (resolved by :func:`repro.runtime.config.resolve_scale`).

Execution width is orthogonal to scale: ``REPRO_WORKERS`` sets the
default worker count (see :mod:`repro.runtime.config`).  Results never
depend on it, so it is a run knob, not a :class:`Scale` field.

Each benchmark report under ``results/`` names the preset it ran at
(``# <bench> @ scale=<preset>``).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.runtime.config import resolve_scale

__all__ = ["Scale", "SCALES", "current_scale"]


@dataclass(frozen=True)
class Scale:
    """Knobs that trade fidelity for runtime."""

    name: str
    # dynamic scheduling experiments (§4.2/4.3)
    n_sequences: int
    days: float
    trace_jobs: int  # synthetic-trace length fed to sequence extraction
    # training pipeline (§3.2/3.3)
    n_tuples: int
    trials_per_tuple: int
    regression_max_points: int
    # figure 2 convergence study
    fig2_trial_counts: tuple[int, ...]
    fig2_repeats: int

    def __post_init__(self) -> None:
        if self.n_sequences < 1 or self.days <= 0:
            raise ValueError("scale must have >= 1 sequence of positive length")


SCALES: dict[str, Scale] = {
    # CI-speed sanity run: seconds.
    "smoke": Scale(
        name="smoke",
        n_sequences=2,
        days=0.25,
        trace_jobs=1200,
        n_tuples=2,
        trials_per_tuple=64,
        regression_max_points=500,
        fig2_trial_counts=(32, 64, 128),
        fig2_repeats=3,
    ),
    # Default for the checked-in benchmark outputs: minutes.
    "small": Scale(
        name="small",
        n_sequences=4,
        days=1.0,
        trace_jobs=6000,
        n_tuples=8,
        trials_per_tuple=256,
        regression_max_points=4000,
        fig2_trial_counts=(32, 64, 128, 256, 512, 1024),
        fig2_repeats=5,
    ),
    # Closer to the paper: tens of minutes.
    "medium": Scale(
        name="medium",
        n_sequences=10,
        days=4.0,
        trace_jobs=40000,
        n_tuples=24,
        trials_per_tuple=2048,
        regression_max_points=10000,
        fig2_trial_counts=(128, 256, 512, 1024, 2048, 4096, 8192),
        fig2_repeats=8,
    ),
    # The paper's configuration.  On one core with the C kernel,
    # obtain_policies takes about 1 min and run_rows about 6.5 min.
    # Caching costs little: build_distribution over 6 tuples x 256,000
    # trials took 2.77-2.99 s uncached and 2.90-3.29 s with a cold cache
    # (one 17 kB artifact; three runs each, one worker, 2-CPU Intel Xeon
    # container).
    "paper": Scale(
        name="paper",
        n_sequences=10,
        days=15.0,
        trace_jobs=250000,
        n_tuples=128,
        trials_per_tuple=256000,
        regression_max_points=50000,
        fig2_trial_counts=(
            1000,
            2000,
            4000,
            8000,
            16000,
            32000,
            64000,
            128000,
            256000,
            512000,
        ),
        fig2_repeats=10,
    ),
}


def current_scale(name: str | None = None) -> Scale:
    """The preset *name*, else ``$REPRO_SCALE``'s, else ``small``."""
    return SCALES[resolve_scale(name)]
