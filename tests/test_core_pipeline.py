"""Tests for the end-to-end policy-obtaining pipeline."""

import numpy as np
import pytest

from repro.core.pipeline import PipelineConfig, build_distribution, obtain_policies
from repro.core.regression import RegressionConfig
from repro.policies.learned import NonlinearPolicy

SMALL = PipelineConfig(
    n_tuples=2,
    trials_per_tuple=32,
    seed=0,
    regression=RegressionConfig(max_points=200),
)


@pytest.fixture(scope="module")
def result():
    np.seterr(all="ignore")
    return obtain_policies(SMALL)


class TestConfig:
    def test_defaults_match_paper(self):
        cfg = PipelineConfig()
        assert cfg.nmax == 256
        assert cfg.s_size == 16
        assert cfg.q_size == 32
        assert cfg.top_k == 4

    def test_validation(self):
        with pytest.raises(ValueError):
            PipelineConfig(n_tuples=0)


class TestBuildDistribution:
    def test_shapes(self):
        tuples, trials, dist = build_distribution(SMALL)
        assert len(tuples) == 2
        assert len(trials) == 2
        assert len(dist) == 2 * 32

    def test_progress(self):
        seen = []
        build_distribution(SMALL, lambda stage, d, t: seen.append(stage))
        assert seen == ["trials", "trials"]


class TestObtainPolicies:
    def test_all_576_ranked(self, result):
        assert len(result.fitted) == 576
        errors = [f.rank_error for f in result.fitted]
        assert errors == sorted(errors)

    def test_top_k_policies(self, result):
        assert len(result.policies) == 4
        assert all(isinstance(p, NonlinearPolicy) for p in result.policies)
        assert [p.name for p in result.policies] == ["P1", "P2", "P3", "P4"]

    def test_best_accessor(self, result):
        assert result.best is result.fitted[0]

    def test_best_fits_well(self, result):
        """Top candidate approximates scores to a few percent of the mean."""
        assert result.best.rank_error < 0.5 / 32

    def test_policies_usable_in_simulator(self, result):
        import repro

        wl = repro.lublin_workload(100, nmax=256, seed=3)
        sched = repro.simulate(wl, result.policies[0], 256)
        assert np.all(np.isfinite(sched.start))

    def test_report(self, result):
        text = result.report(2)
        assert text.count("rank") == 2
        assert "fitness=" in text

    def test_reproducible(self):
        np.seterr(all="ignore")
        again = obtain_policies(SMALL)
        np.testing.assert_array_equal(
            again.distribution.score, obtain_policies(SMALL).distribution.score
        )

    def test_learned_top_structure_is_papers_family(self, result):
        """The best-ranked shapes should be 'size-term + submit-term'
        combinations, the family Table 3 reports (op2 is + or the
        algebraically equivalent alternatives)."""
        top = result.fitted[0].spec
        assert top.gamma in ("log", "sqrt", "id")  # a growing submit term
