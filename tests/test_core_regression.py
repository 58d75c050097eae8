"""Tests for the weighted nonlinear regression (Eqs. 4-5)."""

import numpy as np
import pytest

from repro.core import regression
from repro.core.distribution import ScoreDistribution
from repro.core.functions import FunctionSpec, enumerate_function_space
from repro.core.regression import RegressionConfig, fit_all, fit_function, rank_error


def planted_distribution(spec, coeffs, n=400, noise=0.0, seed=0):
    """Observations generated from a known member of the space."""
    rng = np.random.default_rng(seed)
    r = rng.uniform(1.0, 1e4, n)
    size = rng.integers(1, 256, n).astype(float)
    s = rng.uniform(1.0, 1e5, n)
    y = spec.evaluate(np.asarray(coeffs), r, size, s)
    y = y + noise * rng.standard_normal(n)
    return ScoreDistribution(runtime=r, size=size, submit=s, score=y)


class TestRankError:
    def test_zero_for_perfect_fit(self):
        y = np.array([1.0, 2.0])
        assert rank_error(y, y) == 0.0

    def test_mean_absolute(self):
        assert rank_error(np.array([1.0, 3.0]), np.array([0.0, 0.0])) == 2.0

    def test_nonfinite_penalised(self):
        assert rank_error(np.array([np.inf]), np.array([0.0])) > 1e5

    def test_all_bad_is_inf(self):
        assert rank_error(np.array([np.nan, np.inf]), np.zeros(2)) > 1e5


class TestFitFunction:
    def test_recovers_planted_linear(self):
        """Additive spec is exactly solvable; coefficients must be found."""
        spec = FunctionSpec("log", "id", "log", "+", "+")
        dist = planted_distribution(spec, (0.5, -0.01, 2.0))
        fit = fit_function(spec, dist, RegressionConfig(weighted=False))
        assert fit.rank_error < 1e-4
        np.testing.assert_allclose(fit.coeffs, (0.5, -0.01, 2.0), rtol=1e-3)

    def test_recovers_planted_product_form(self):
        """The paper's family: (c1 a(r))·(c2 b(n)) + c3 g(s)."""
        spec = FunctionSpec("id", "id", "log", "*", "+")
        dist = planted_distribution(spec, (1e-3, 1e-2, 5.0))
        fit = fit_function(spec, dist, RegressionConfig(weighted=False))
        # product coefficients are only identified up to c1*c2
        c1, c2, c3 = fit.coeffs
        assert c1 * c2 == pytest.approx(1e-5, rel=1e-3)
        assert c3 == pytest.approx(5.0, rel=1e-3)
        assert fit.rank_error < 1e-4

    def test_weighting_changes_fit(self):
        spec = FunctionSpec("id", "id", "log", "*", "+")
        truth = FunctionSpec("log", "id", "log", "*", "+")
        dist = planted_distribution(truth, (1e-2, 1e-2, 3.0), noise=0.01)
        weighted = fit_function(spec, dist, RegressionConfig(weighted=True))
        unweighted = fit_function(spec, dist, RegressionConfig(weighted=False))
        assert weighted.coeffs != unweighted.coeffs

    def test_never_raises_on_hostile_spec(self):
        """Division shapes can blow up; the fit must degrade gracefully."""
        spec = FunctionSpec("inv", "inv", "inv", "/", "/")
        dist = planted_distribution(FunctionSpec("id", "id", "id", "+", "+"), (1, 1, 1))
        fit = fit_function(spec, dist)
        assert fit.spec == spec  # returned, not raised
        assert np.isfinite(fit.rank_error) or fit.rank_error == float("inf")

    def test_subsample_bound_respected(self):
        spec = FunctionSpec("id", "id", "id", "+", "+")
        dist = planted_distribution(spec, (1, 1, 1), n=500)
        fit = fit_function(spec, dist, RegressionConfig(max_points=100))
        assert fit.n_observations == 100


class TestFitAll:
    @pytest.fixture(scope="class")
    def planted(self):
        spec = FunctionSpec("id", "id", "log", "*", "+")
        return spec, planted_distribution(spec, (1e-3, 1e-2, 5.0), noise=1e-4)

    def test_truth_ranks_first_among_subset(self, planted):
        truth, dist = planted
        specs = [
            truth,
            FunctionSpec("inv", "id", "log", "*", "+"),
            FunctionSpec("log", "log", "inv", "+", "+"),
            FunctionSpec("sqrt", "inv", "id", "/", "+"),
        ]
        ranked = fit_all(dist, specs=specs, config=RegressionConfig(weighted=False))
        assert ranked[0].spec == truth

    def test_sorted_by_rank_error(self, planted):
        _, dist = planted
        specs = [
            FunctionSpec("id", "id", "log", "*", "+"),
            FunctionSpec("inv", "inv", "inv", "+", "+"),
            FunctionSpec("log", "id", "id", "+", "*"),
        ]
        ranked = fit_all(dist, specs=specs)
        errors = [f.rank_error for f in ranked]
        assert errors == sorted(errors)

    def test_progress_callback(self, planted):
        _, dist = planted
        seen = []
        fit_all(
            dist,
            specs=[FunctionSpec("id", "id", "id", "+", "+")] * 3,
            progress=lambda done, total: seen.append((done, total)),
        )
        assert seen == [(1, 3), (2, 3), (3, 3)]

    def test_bases_filter(self, planted):
        _, dist = planted
        config = RegressionConfig(bases=("id", "log"), max_points=50)
        ranked = fit_all(dist, config=config)
        assert len(ranked) == 2**3 * 9  # 2 bases^3 slots * 9 operator combos
        for f in ranked:
            assert {f.spec.alpha, f.spec.beta, f.spec.gamma} <= {"id", "log"}


# one member of each operator shape, with coefficients giving O(1) scores;
# denominators avoid zeros so the division guard never fires
PLANTED_SHAPES = [
    (FunctionSpec("log", "id", "log", "+", "+"), (0.5, -0.01, 2.0)),
    (FunctionSpec("sqrt", "log", "inv", "+", "*"), (0.2, 3.0, 400.0)),
    (FunctionSpec("log", "sqrt", "id", "+", "/"), (2.0, 0.5, 1e-4)),
    (FunctionSpec("id", "id", "log", "*", "+"), (1e-3, 1e-2, 5.0)),
    (FunctionSpec("log", "sqrt", "inv", "*", "*"), (2.0, 0.5, 1e3)),
    (FunctionSpec("sqrt", "id", "sqrt", "*", "/"), (0.3, 0.1, 2.0)),
    (FunctionSpec("id", "sqrt", "log", "/", "+"), (1e-3, 2.0, 0.4)),
    (FunctionSpec("log", "inv", "inv", "/", "*"), (0.2, 50.0, 1e3)),
    (FunctionSpec("sqrt", "sqrt", "sqrt", "/", "/"), (2.0, 0.5, 0.01)),
]


def guarded_data(seed=0, n=600):
    """Integer runtimes and sizes from 1, submit times from 0: every guard can fire."""
    rng = np.random.default_rng(seed)
    r = rng.integers(1, 50, n).astype(float)
    size = rng.integers(1, 5, n).astype(float)
    s = rng.integers(0, 4, n).astype(float)
    y = 1e-3 * r * size + 0.05 * np.log10(s + 1.0) + 0.01 * rng.standard_normal(n)
    return r, size, s, y


class TestClosedForm:
    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize(
        "spec, coeffs", PLANTED_SHAPES, ids=[sp.short_name for sp, _ in PLANTED_SHAPES]
    )
    def test_recovers_every_shape(self, spec, coeffs, weighted):
        dist = planted_distribution(spec, coeffs)
        fit = fit_function(spec, dist, RegressionConfig(weighted=weighted))
        assert fit.rank_error < 1e-6
        np.testing.assert_allclose(fit(dist.runtime, dist.size, dist.submit), dist.score,
                                   rtol=1e-8, atol=1e-9)

    def test_one_solve_and_one_evaluation_per_candidate(self, monkeypatch):
        spec, coeffs = PLANTED_SHAPES[3]
        dist = planted_distribution(spec, coeffs)
        solves = []
        original = regression.least_squares

        def counted(*args, **kwargs):
            solves.append(original(*args, **kwargs))
            return solves[-1]

        monkeypatch.setattr(regression, "least_squares", counted)
        ranked = fit_all(dist, config=RegressionConfig(bases=("id", "log")))
        assert len(solves) == len(ranked) == 72
        assert {sol.nfev for sol in solves} == {1}

    @pytest.mark.parametrize("op2", ["+", "*", "/"])
    def test_log_n_denominator_at_n_equal_1(self, op2):
        """n = 1 under log(n), including r = 1 rows where log(r) = 0."""
        spec = FunctionSpec("log", "log", "inv", "/", op2)
        r, size, s, _ = guarded_data(seed=1)
        s = s + 1.0  # inv(s) stays finite and nonzero
        assert ((size == 1) & (r == 1)).any() and ((size == 1) & (r > 1)).any()
        # where log(n) = 0 the guard's ±1e15 meets c3: for * and / a c3 of
        # 4e-15 or 2.5e14 scales it to O(1), and c1/c2 keeps the rest O(1)
        truth = {"+": (0.7, 1.0, 3.0), "*": (-5e14, -1.0, 4e-15), "/": (-2e14, 1.0, 2.5e14)}[op2]
        y = spec.evaluate(np.asarray(truth), r, size, s)
        if op2 == "+":  # ±1e15 + c3·γ: no coefficient reaches these rows
            y = np.where((size == 1) & (r > 1), 0.25, y)
        fit = fit_function(spec, ScoreDistribution(r, size, s, y), RegressionConfig(weighted=False))
        constant = int(((size == 1) & (r > 1)).sum()) if op2 == "+" else 0
        assert fit.weighted_sse == pytest.approx(constant * 1e12, rel=1e-9, abs=1e-12)
        if op2 != "+":  # the guard rows are fitted through sign(c1) and c3
            np.testing.assert_allclose(fit(r, size, s), y, rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize("op1", ["+", "*"])
    def test_id_s_denominator_at_s_equal_0(self, op1):
        spec = FunctionSpec("id", "id", "id", op1, "/")
        r, size, s, _ = guarded_data(seed=2)
        assert (s == 0).any()
        y = spec.evaluate(np.array([0.3, 2.0, 1.0]), r, size, s)
        y = np.where(s == 0, 0.5, y)  # the guard's ±1e15 is clipped whatever c is
        fit = fit_function(spec, ScoreDistribution(r, size, s, y))
        assert fit.weighted_sse == pytest.approx((s == 0).sum() * 1e12, rel=1e-9)
        keep = s > 0
        np.testing.assert_allclose(fit(r, size, s)[keep], y[keep], rtol=1e-9)

    @pytest.mark.parametrize(
        "spec",
        [FunctionSpec("id", "log", "id", "/", "+"), FunctionSpec("id", "log", "id", "/", "/")],
        ids=lambda sp: sp.short_name,
    )
    def test_every_row_guarded_gives_inf(self, spec):
        r = np.arange(2.0, 12.0)
        dist = ScoreDistribution(r, np.ones(10), np.zeros(10), np.linspace(0, 1, 10))
        fit = fit_function(spec, dist)
        assert fit.rank_error == float("inf")
        with pytest.raises(np.linalg.LinAlgError):
            regression.least_squares(spec, r, np.ones(10), np.zeros(10), dist.score, np.ones(10))

    @pytest.mark.parametrize("seed", [0, 1])
    def test_optimal_against_coefficient_perturbation(self, seed):
        """No coefficient moved by ±1e-4 relative lowers the real clipped cost,
        and the cost the linear systems predict is the real one."""
        r, size, s, y = guarded_data(seed=seed, n=300)
        w = r * size / (r * size).mean()
        for spec in enumerate_function_space():
            sol = regression.least_squares(spec, r, size, s, y, w)
            residuals = regression._residual_fn(spec, r, size, s, y, w)
            assert sol.cost == pytest.approx(sol.model_cost, rel=1e-9), spec.short_name
            for i in range(3):
                for step in (1e-4, -1e-4):
                    x = sol.x.copy()
                    x[i] *= 1.0 + step
                    res = residuals(x)
                    assert 0.5 * (res @ res) >= sol.cost * (1 - 1e-12), (spec.short_name, i)
