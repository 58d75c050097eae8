"""Tests for the dynamic scheduling experiment harness."""

import numpy as np
import pytest

from repro.experiments.dynamic import model_stream_for_span, run_dynamic_experiment
from repro.policies.classic import SPT
from repro.workloads.lublin import lublin_workload


@pytest.fixture(scope="module")
def stream():
    # ~2 half-day sequences worth of the Lublin model on 64 cores
    return model_stream_for_span(2 * 0.5 * 86400.0, 64, seed=4)


@pytest.fixture(scope="module")
def result(stream):
    return run_dynamic_experiment(
        stream,
        ["FCFS", "SPT", "F1"],
        64,
        n_sequences=2,
        days=0.5,
    )


class TestModelStream:
    def test_span_sufficient(self, stream):
        assert stream.span >= 86400.0

    def test_estimates_attached(self, stream):
        assert np.any(stream.estimate > stream.runtime)
        assert np.all(stream.estimate >= stream.runtime)

    def test_without_estimates(self):
        wl = model_stream_for_span(3600.0, 64, seed=1, with_estimates=False)
        np.testing.assert_array_equal(wl.estimate, wl.runtime)

    def test_bad_span(self):
        with pytest.raises(ValueError):
            model_stream_for_span(0.0, 64)

    def test_reproducible(self):
        a = model_stream_for_span(3600.0, 64, seed=2)
        b = model_stream_for_span(3600.0, 64, seed=2)
        np.testing.assert_array_equal(a.submit, b.submit)


class TestRunDynamicExperiment:
    def test_sample_shapes(self, result):
        assert result.policy_names == ("FCFS", "SPT", "F1")
        for name in result.policy_names:
            assert result.samples[name].shape == (2,)
            assert np.all(result.samples[name] >= 1.0)

    def test_medians(self, result):
        med = result.medians()
        for name in result.policy_names:
            assert med[name] == pytest.approx(float(np.median(result.samples[name])))

    def test_summaries_and_boxstats(self, result):
        assert set(result.summaries()) == set(result.policy_names)
        assert set(result.medians()) == set(result.policy_names)

    def test_policy_objects_accepted(self, stream):
        res = run_dynamic_experiment(
            stream, [SPT()], 64, n_sequences=2, days=0.5
        )
        assert res.policy_names == ("SPT",)

    def test_ascii_plot(self, result):
        out = result.ascii_plot()
        assert "FCFS" in out and "F1" in out

    def test_flags_recorded(self, stream):
        res = run_dynamic_experiment(
            stream,
            ["FCFS"],
            64,
            use_estimates=True,
            backfill=True,
            n_sequences=2,
            days=0.5,
        )
        assert res.use_estimates and res.backfill

    def test_sequences_shared_across_policies(self, stream):
        """Paired design: same sequences for every policy => FCFS==FCFS."""
        a = run_dynamic_experiment(stream, ["FCFS"], 64, n_sequences=2, days=0.5)
        b = run_dynamic_experiment(stream, ["FCFS", "SPT"], 64, n_sequences=2, days=0.5)
        np.testing.assert_array_equal(a.samples["FCFS"], b.samples["FCFS"])


class TestExperimentShape:
    def test_f1_beats_fcfs_on_model(self):
        """The paper's headline ordering at reduced scale."""
        wl = model_stream_for_span(3 * 0.5 * 86400.0, 256, seed=11)
        res = run_dynamic_experiment(
            wl, ["FCFS", "F1"], 256, n_sequences=3, days=0.5
        )
        med = res.medians()
        assert med["F1"] < med["FCFS"]
