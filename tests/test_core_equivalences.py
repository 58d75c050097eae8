"""Algebraic-equivalence properties of the function space.

The paper's artifact notes: "algebraic equivalent functions can be
enumerated and, in this case, their fitness value will be equal."  These
tests pin down the equivalences structurally (same values for matched
coefficients) and through the regression (same rank error after
independent fits).
"""

import numpy as np
import pytest

from repro.core.distribution import ScoreDistribution
from repro.core.functions import FunctionSpec
from repro.core.regression import RegressionConfig, fit_function


def grid():
    rng = np.random.default_rng(5)
    r = rng.uniform(1.0, 1e4, 300)
    n = rng.integers(1, 256, 300).astype(float)
    s = rng.uniform(1.0, 1e5, 300)
    return r, n, s


class TestStructuralEquivalence:
    def test_multiply_equals_divide_by_inverse(self):
        """(c1 a(r)) * (c2 id(n)) == (c1 a(r)) / (c2' inv(n)) with c2' = 1/c2."""
        r, n, s = grid()
        mul = FunctionSpec("log", "id", "log", "*", "+")
        div = FunctionSpec("log", "inv", "log", "/", "+")
        coeffs_mul = np.array([0.3, 2.0, 5.0])
        coeffs_div = np.array([0.3, 0.5, 5.0])  # 1/c2
        np.testing.assert_allclose(
            mul.evaluate(coeffs_mul, r, n, s),
            div.evaluate(coeffs_div, r, n, s),
            rtol=1e-10,
        )

    def test_inv_of_inv_is_id_on_domain(self):
        r, n, s = grid()
        a = FunctionSpec("inv", "id", "id", "+", "+")
        vals = a.evaluate(np.array([1.0, 0.0, 0.0]), 1.0 / r, n, s)
        np.testing.assert_allclose(vals, r, rtol=1e-9)

    def test_sum_commutes_in_first_operator(self):
        """(c1 α(r)) + (c2 β(n)) symmetric under swapping r/n slots when
        the data happens to be symmetric — verified by exchanging base
        functions and coefficients."""
        r, n, s = grid()
        ab = FunctionSpec("log", "sqrt", "id", "+", "+")
        ba = FunctionSpec("sqrt", "log", "id", "+", "+")
        va = ab.evaluate(np.array([2.0, 3.0, 4.0]), r, n, s)
        vb = ba.evaluate(np.array([3.0, 2.0, 4.0]), n, r, s)
        np.testing.assert_allclose(va, vb, rtol=1e-12)


class TestFittedEquivalence:
    @pytest.fixture(scope="class")
    def dist(self):
        r, n, s = grid()
        truth = FunctionSpec("id", "id", "log", "*", "+")
        y = truth.evaluate(np.array([1e-3, 1e-2, 4.0]), r, n, s)
        return ScoreDistribution(runtime=r, size=n, submit=s, score=y)

    @pytest.fixture(scope="class")
    def noisy(self, dist):
        noise = 0.05 * np.random.default_rng(6).standard_normal(len(dist))
        return ScoreDistribution(dist.runtime, dist.size, dist.submit, dist.score + noise)

    def test_equivalent_specs_reach_equal_fitness(self, dist):
        """r*n fitted directly or as r / inv(n): equal rank error.  The
        planted fit is exact, so both errors are rounding noise."""
        cfg = RegressionConfig(weighted=False)
        direct = fit_function(FunctionSpec("id", "id", "log", "*", "+"), dist, cfg)
        via_inv = fit_function(FunctionSpec("id", "inv", "log", "/", "+"), dist, cfg)
        assert direct.rank_error == pytest.approx(0.0, abs=1e-5)
        assert via_inv.rank_error == pytest.approx(direct.rank_error, rel=1e-9, abs=1e-12)

    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize(
        "direct, via_inv",
        [
            (FunctionSpec("id", "id", "log", "*", "+"), FunctionSpec("id", "inv", "log", "/", "+")),
            (
                FunctionSpec("sqrt", "id", "log", "*", "+"),
                FunctionSpec("sqrt", "inv", "log", "/", "+"),
            ),
        ],
        ids=["id(r)*id(n)", "sqrt(r)*id(n)"],
    )
    def test_equivalent_specs_reach_equal_optimum(self, noisy, direct, via_inv, weighted):
        """An exact solve gives both forms the same optimum up to rounding."""
        cfg = RegressionConfig(weighted=weighted)
        a = fit_function(direct, noisy, cfg)
        b = fit_function(via_inv, noisy, cfg)
        assert b.rank_error == pytest.approx(a.rank_error, rel=1e-9)
        assert b.weighted_sse == pytest.approx(a.weighted_sse, rel=1e-9)

    def test_swapped_size_runtime_bases_not_equivalent(self, dist):
        """Sanity: genuinely different shapes do NOT tie (the space is
        not degenerate)."""
        cfg = RegressionConfig(weighted=False)
        truth = fit_function(FunctionSpec("id", "id", "log", "*", "+"), dist, cfg)
        other = fit_function(FunctionSpec("inv", "inv", "log", "*", "+"), dist, cfg)
        assert other.rank_error > truth.rank_error + 1e-6


class TestOperatorPrecedence:
    def test_left_associativity_matters(self):
        """(A + B) * C != A + (B * C) in general — guards against a
        precedence regression silently changing the whole space."""
        r, n, s = grid()
        spec = FunctionSpec("id", "id", "id", "+", "*")
        coeffs = np.array([1.0, 1.0, 1.0])
        left = spec.evaluate(coeffs, r, n, s)
        right_assoc = r + n * s
        assert not np.allclose(left, right_assoc)
        np.testing.assert_allclose(left, (r + n) * s)
