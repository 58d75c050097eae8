"""Tests for the experiment report rendering."""

import numpy as np
import pytest

from repro.experiments.dynamic import DynamicExperimentResult
from repro.experiments.paper_data import paper_row
from repro.experiments.report import render_comparison, render_statistics


@pytest.fixture
def result():
    return DynamicExperimentResult(
        name="model_256_actual",
        policy_names=("FCFS", "F1"),
        samples={
            "FCFS": np.array([100.0, 200.0, 300.0]),
            "F1": np.array([1.0, 2.0, 3.0]),
        },
        nmax=256,
        use_estimates=False,
        backfill=False,
        n_sequences=3,
        days=0.5,
    )


class TestRenderStatistics:
    def test_artifact_blocks_present(self, result):
        text = render_statistics(result)
        assert "Medians:" in text
        assert "Means:" in text
        assert "Standard Deviations:" in text
        assert "FCFS=200.00" in text
        assert "F1=2.00" in text

    def test_configuration_line(self, result):
        text = render_statistics(result)
        assert "actual runtimes" in text
        assert "backfilling disabled" in text

    def test_custom_header(self, result):
        text = render_statistics(result, header="Custom title")
        assert text.startswith("Custom title")


class TestRenderComparison:
    def test_both_rows(self, result):
        text = render_comparison(result, paper_row("model_256_actual"))
        assert "measured" in text
        assert "paper" in text
        assert "5846.87" in text  # paper's FCFS median
        assert "200.00" in text  # measured FCFS median

    def test_respects_paper_column_order(self, result):
        text = render_comparison(result, paper_row("model_256_actual"))
        head = text.splitlines()[1]
        assert head.index("FCFS") < head.index("F1")

