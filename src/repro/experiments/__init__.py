"""Experiment harnesses: dynamic experiments, Table 4 rows, Figures 1-9."""

from repro.experiments.dynamic import (
    DynamicExperimentResult,
    model_stream_for_span,
    run_dynamic_experiment,
)
from repro.experiments.export import (
    experiment_to_csv,
    fig1_to_csv,
    fig2_to_csv,
    fig3_to_csv,
    write_all,
)
from repro.experiments.figures import (
    Fig1Result,
    Fig2Result,
    Fig3Maps,
    fig1_trial_score_distributions,
    fig2_trial_convergence,
    fig3_policy_maps,
)
from repro.experiments.paper_data import (
    PAPER_TABLE3,
    PAPER_TABLE4,
    POLICY_COLUMNS,
    paper_row,
    paper_row_id,
)
from repro.experiments.report import render_comparison, render_statistics
from repro.experiments.scale import SCALES, Scale, current_scale
from repro.experiments.sensitivity import (
    SeedSweepResult,
    ranking_stability,
    seed_sweep,
    tau_sweep,
)
from repro.experiments.table4 import (
    TABLE4_ROWS,
    Table4Row,
    build_row_workload,
    row_ids,
    run_row,
    run_rows,
)

__all__ = [
    "DynamicExperimentResult",
    "Fig1Result",
    "Fig2Result",
    "Fig3Maps",
    "PAPER_TABLE3",
    "PAPER_TABLE4",
    "POLICY_COLUMNS",
    "SCALES",
    "Scale",
    "SeedSweepResult",
    "TABLE4_ROWS",
    "Table4Row",
    "build_row_workload",
    "current_scale",
    "experiment_to_csv",
    "fig1_to_csv",
    "fig2_to_csv",
    "fig3_to_csv",
    "fig1_trial_score_distributions",
    "fig2_trial_convergence",
    "fig3_policy_maps",
    "model_stream_for_span",
    "paper_row",
    "paper_row_id",
    "render_comparison",
    "ranking_stability",
    "render_statistics",
    "seed_sweep",
    "row_ids",
    "run_row",
    "run_rows",
    "tau_sweep",
    "write_all",
]
