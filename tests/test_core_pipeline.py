"""Tests for the end-to-end policy-obtaining pipeline."""

import numpy as np
import pytest

from repro.core.functions import enumerate_function_space
from repro.core.pipeline import (
    PipelineConfig,
    _function_key,
    build_distribution,
    obtain_policies,
)
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


_SPECS = {spec.short_name: spec for spec in enumerate_function_space()}


def _spec(name):
    """The candidate spec with short name *name*, e.g. ``sqrt(r)*id(n)+log(s)``."""
    return _SPECS[name]


class TestDistinctPolicies:
    @pytest.mark.parametrize(
        "a, b",
        [
            ("sqrt(r)*id(n)+log(s)", "sqrt(r)/inv(n)+log(s)"),
            ("log(r)/id(n)*inv(s)", "log(r)*inv(n)*inv(s)"),
        ],
    )
    def test_n_side_pairs_share_a_key(self, a, b):
        assert _function_key(_spec(a)) == _function_key(_spec(b))

    @pytest.mark.parametrize(
        "a, b",
        [
            # submit times can be 0, where inv's guard breaks the identity
            ("log(r)*id(n)*id(s)", "log(r)*id(n)/inv(s)"),
            ("log(r)*id(n)/id(s)", "log(r)*id(n)*inv(s)"),
            # + has no such identity
            ("log(r)+id(n)+log(s)", "log(r)+inv(n)+log(s)"),
            ("log(r)*id(n)+log(s)", "log(r)*log(n)+log(s)"),
        ],
    )
    def test_other_pairs_keep_their_keys(self, a, b):
        assert _function_key(_spec(a)) != _function_key(_spec(b))

    def test_seed_300_full_space_yields_four_distinct_functions(self):
        """Ranks 1/2 (and 4/5) are one function written two ways here."""
        np.seterr(all="ignore")
        result = obtain_policies(
            PipelineConfig(
                n_tuples=16,
                trials_per_tuple=8192,
                seed=300,
                regression=RegressionConfig(max_points=4000),
            )
        )
        assert len(result.fitted) == 576
        top_keys = [_function_key(f.spec) for f in result.fitted[:4]]
        assert len(set(top_keys)) < 4  # the duplicate the policies skip
        specs = [p.fitted.spec for p in result.policies]
        assert len(specs) == 4
        assert len({_function_key(s) for s in specs}) == 4
        assert specs[0] == result.fitted[0].spec
        # keys, not names: which spelling of a pair ranks first is rounding
        assert [_function_key(s) for s in specs] == [
            _function_key(_spec(name))
            for name in (
                "sqrt(r)*id(n)+log(s)",
                "log(r)*sqrt(n)+log(s)",
                "sqrt(r)*id(n)+inv(s)",
                "id(r)*id(n)+log(s)",
            )
        ]
