"""CSV export of figure and table data.

Matplotlib is unavailable offline, so the repository's "figures" are
their underlying series.  These exporters write them in a layout any
plotting tool ingests directly; the CLI (``repro-sched figures
--output-dir``) and the examples use them.
"""

from __future__ import annotations

import io
from pathlib import Path

from repro.experiments.dynamic import DynamicExperimentResult
from repro.experiments.figures import Fig1Result, Fig2Result, Fig3Maps

__all__ = [
    "fig1_to_csv",
    "fig2_to_csv",
    "fig3_to_csv",
    "experiment_to_csv",
    "write_all",
]


def fig1_to_csv(fig1: Fig1Result) -> str:
    """``panel,task_id,score`` rows plus the 1/|Q| mean as a comment."""
    buf = io.StringIO()
    buf.write(f"# mean_line={fig1.mean_line:.10g}\n")
    buf.write("panel,task_id,score\n")
    for p, panel in enumerate(fig1.panels):
        for task_id, score in enumerate(panel):
            buf.write(f"{p},{task_id},{score:.10g}\n")
    return buf.getvalue()


def fig2_to_csv(fig2: Fig2Result) -> str:
    """``trials,normalized_std`` rows."""
    buf = io.StringIO()
    buf.write(f"# repeats={fig2.repeats}\n")
    buf.write("trials,normalized_std\n")
    for count, std in fig2.series():
        buf.write(f"{count},{std:.10g}\n")
    return buf.getvalue()


def fig3_to_csv(maps: Fig3Maps) -> str:
    """Long-format ``policy,x,y,priority`` rows for one panel row."""
    buf = io.StringIO()
    buf.write(f"# axis_pair={maps.axis_pair}\n")
    buf.write(f"policy,{maps.axis_pair[0]},{maps.axis_pair[1]},priority\n")
    for name, grid in sorted(maps.maps.items()):
        for yi, y in enumerate(maps.y_values):
            for xi, x in enumerate(maps.x_values):
                buf.write(f"{name},{x:.6g},{y:.6g},{grid[yi, xi]:.6g}\n")
    return buf.getvalue()


def experiment_to_csv(result: DynamicExperimentResult) -> str:
    """``policy,sequence,ave_bsld`` rows (the boxplots' raw samples)."""
    buf = io.StringIO()
    buf.write(
        f"# experiment={result.name} nmax={result.nmax}"
        f" estimates={result.use_estimates} backfill={result.backfill}\n"
    )
    buf.write("policy,sequence,ave_bsld\n")
    for name in result.policy_names:
        for k, value in enumerate(result.samples[name]):
            buf.write(f"{name},{k},{value:.10g}\n")
    return buf.getvalue()


def write_all(
    directory: str | Path,
    *,
    fig1: Fig1Result | None = None,
    fig2: Fig2Result | None = None,
    fig3_panels: list[Fig3Maps] | None = None,
    experiments: list[DynamicExperimentResult] | None = None,
) -> list[Path]:
    """Write every provided artifact into *directory*; returns the paths."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []

    def emit(name: str, text: str) -> None:
        path = directory / name
        path.write_text(text, encoding="utf-8")
        written.append(path)

    if fig1 is not None:
        emit("fig1_trial_scores.csv", fig1_to_csv(fig1))
    if fig2 is not None:
        emit("fig2_convergence.csv", fig2_to_csv(fig2))
    for maps in fig3_panels or []:
        emit(f"fig3_{maps.axis_pair}.csv", fig3_to_csv(maps))
    for result in experiments or []:
        emit(f"experiment_{result.name}.csv", experiment_to_csv(result))
    return written
