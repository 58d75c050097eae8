"""End-to-end integration tests: the full §3 procedure at small scale.

These are the tests that certify the *reproduction*, not just the parts:
train policies from simulation observations, then verify they schedule
better than the baselines they are supposed to beat.
"""

import numpy as np
import pytest

import repro
from repro.core.pipeline import PipelineConfig, obtain_policies
from repro.core.regression import RegressionConfig
from repro.experiments.dynamic import model_stream_for_span, run_dynamic_experiment


@pytest.fixture(scope="module")
def trained():
    np.seterr(all="ignore")
    config = PipelineConfig(
        n_tuples=6,
        trials_per_tuple=192,
        seed=2024,
        regression=RegressionConfig(max_points=2000),
    )
    return obtain_policies(config)


class TestTrainedPolicies:
    def test_top_shape_is_size_plus_submit_family(self, trained):
        """The best fits combine a size term with a submit term, as in
        Table 3 (the exact base functions may differ run to run)."""
        top5 = [f.spec for f in trained.fitted[:5]]
        assert any(sp.op2 == "+" for sp in top5)

    def test_submit_coefficient_positive(self, trained):
        """score grows with s: later tasks are worse first choices, the
        origin of Table 3's large positive log10(s) terms."""
        best_additive = next(
            f
            for f in trained.fitted
            if f.spec.op1 == "*" and f.spec.op2 == "+" and f.spec.gamma == "log"
        )
        assert best_additive.coeffs[2] > 0

    def test_trained_policy_beats_fcfs_out_of_sample(self, trained):
        """The money test: policies learned from (S,Q) tuples schedule a
        *different* long workload far better than FCFS."""
        wl = model_stream_for_span(2 * 0.5 * 86400.0, 256, seed=777)
        res = run_dynamic_experiment(
            wl,
            ["FCFS", trained.policies[0]],
            256,
            n_sequences=2,
            days=0.5,
        )
        med = res.medians()
        assert med["P1"] < med["FCFS"]

    def test_trained_policy_competitive_with_published_f1(self, trained):
        """Learned-here vs the paper's published F1 on a fresh stream:
        same order of magnitude (both are 'good' policies)."""
        wl = model_stream_for_span(2 * 0.5 * 86400.0, 256, seed=31337)
        res = run_dynamic_experiment(
            wl,
            ["F1", trained.policies[0], "FCFS"],
            256,
            n_sequences=2,
            days=0.5,
        )
        med = res.medians()
        assert med["P1"] < med["FCFS"]
        assert med["P1"] < 50 * max(med["F1"], 1.0)


class TestPublicApiRoundTrip:
    def test_quickstart_sequence(self):
        """The README quickstart, as a test."""
        wl = repro.lublin_workload(500, nmax=256, seed=42)
        result = repro.simulate(wl, repro.get_policy("F1"), nmax=256)
        assert result.ave_bsld >= 1.0

    def test_swf_to_schedule(self, tmp_path):
        wl = repro.synthetic_trace("ctc_sp2", seed=0, n_jobs=300)
        path = tmp_path / "ctc.swf"
        repro.write_swf(wl, path)
        back = repro.read_swf(path)
        result = repro.simulate(
            back, repro.get_policy("F2"), back.nmax, use_estimates=True, backfill=True
        )
        assert np.all(np.isfinite(result.start))

    def test_sequences_to_experiment(self):
        wl = repro.lublin_workload(4000, nmax=256, seed=9)
        days = wl.span / 86400.0 / 5
        seqs = repro.extract_sequences(wl, 2, days)
        assert len(seqs) == 2

    def test_version(self):
        assert repro.__version__ == "1.0.0"


class TestPaperOrderingShape:
    """The qualitative Table 4 claims at smoke scale with a pinned seed."""

    @pytest.fixture(scope="class")
    def row(self):
        from repro.experiments.scale import SCALES
        from repro.experiments.table4 import run_row

        return run_row("model_256_actual", SCALES["smoke"], seed=1)

    def test_learned_beat_every_adhoc(self, row):
        med = row.medians()
        best_learned = min(med["F1"], med["F2"], med["F3"], med["F4"])
        best_adhoc = min(med["FCFS"], med["WFP"], med["UNI"], med["SPT"])
        assert best_learned <= best_adhoc

    def test_fcfs_is_bad(self, row):
        med = row.medians()
        assert med["FCFS"] >= max(med["F1"], med["F2"])
