"""Text rendering of experiment results, artifact-output style.

The paper's artifact prints, per experiment, a statistics block
(medians / means / standard deviations per policy).  These helpers
reproduce that format and add paper-vs-measured comparison tables used
by the CLI, the benchmarks and the examples.
"""

from __future__ import annotations

from repro.experiments.dynamic import DynamicExperimentResult
from repro.experiments.paper_data import POLICY_COLUMNS

__all__ = ["render_statistics", "render_comparison"]


def _fmt_row(values: dict[str, float], names: tuple[str, ...]) -> str:
    return " ".join(f"{n}={values[n]:.2f}" for n in names if n in values)


def render_statistics(
    result: DynamicExperimentResult, *, header: str | None = None
) -> str:
    """Artifact-style statistics block for one experiment."""
    names = result.policy_names
    summaries = result.summaries()
    medians = {n: summaries[n].median for n in names}
    means = {n: summaries[n].mean for n in names}
    stds = {n: summaries[n].std for n in names}
    cfg = (
        f"Using {'runtime estimates' if result.use_estimates else 'actual runtimes'}, "
        f"backfilling {'enabled' if result.backfill else 'disabled'}"
    )
    lines = [
        header
        or f"Performing scheduling performance test for the workload trace {result.name}.",
        "Configuration:",
        f"  {cfg} (nmax={result.nmax}, {result.n_sequences} sequences x {result.days:g} days)",
        "Experiment Statistics:",
        "Medians:",
        f"  {_fmt_row(medians, names)}",
        "Means:",
        f"  {_fmt_row(means, names)}",
        "Standard Deviations:",
        f"  {_fmt_row(stds, names)}",
    ]
    return "\n".join(lines)


def render_comparison(
    result: DynamicExperimentResult,
    paper_medians: dict[str, float],
    *,
    title: str | None = None,
) -> str:
    """Two-row table: measured medians vs the paper's Table 4 row."""
    names = [n for n in POLICY_COLUMNS if n in result.policy_names]
    measured = result.medians()
    width = max(9, *(len(n) + 2 for n in names))
    head = "policy".ljust(10) + "".join(n.rjust(width) for n in names)
    row_m = "measured".ljust(10) + "".join(f"{measured[n]:.2f}".rjust(width) for n in names)
    row_p = "paper".ljust(10) + "".join(
        f"{paper_medians[n]:.2f}".rjust(width) for n in names
    )
    lines = [title or result.name, head, row_m, row_p]
    return "\n".join(lines)

