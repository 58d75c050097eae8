"""Tests for the numpy Kendall tau-b behind policy rank agreement."""

import numpy as np
import pytest

from repro.policies.analysis import kendall_tau


def reference_tau_b(x, y):
    """Kendall's tau-b straight from its definition, over all O(n²) pairs."""
    dx = np.sign(x[:, None] - x[None, :])
    dy = np.sign(y[:, None] - y[None, :])
    upper = np.triu_indices(len(x), k=1)
    dx, dy = dx[upper], dy[upper]
    return float((dx * dy).sum() / np.sqrt(np.abs(dx).sum() * np.abs(dy).sum()))


@pytest.mark.parametrize("n", [2, 17, 500])
@pytest.mark.parametrize("seed", range(4))
def test_matches_quadratic_reference_with_many_ties(n, seed):
    rng = np.random.default_rng([n, seed])
    x = rng.integers(0, 5, n).astype(float)
    y = rng.integers(0, 4, n) + 0.5 * rng.integers(0, 2, n) * x
    if np.ptp(x) == 0 or np.ptp(y) == 0:
        x[0], y[0] = x[0] + 1.0, y[0] - 1.0  # keep both samples non-constant
    assert kendall_tau(x, y) == pytest.approx(reference_tau_b(x, y), rel=1e-12, abs=1e-15)


def test_matches_reference_without_ties():
    rng = np.random.default_rng(3)
    x = rng.standard_normal(300)
    y = x + rng.standard_normal(300)
    assert kendall_tau(x, y) == pytest.approx(reference_tau_b(x, y), rel=1e-12)


def test_constant_input_is_nan():
    assert np.isnan(kendall_tau(np.ones(10), np.arange(10.0)))
    assert np.isnan(kendall_tau(np.arange(10.0), np.full(10, 3.0)))


def test_reversed_input_is_minus_one():
    x = np.arange(50.0)
    assert kendall_tau(x, x[::-1]) == -1.0


def test_identical_input_is_one():
    x = np.random.default_rng(0).integers(0, 6, 40).astype(float)
    assert kendall_tau(x, x) == pytest.approx(1.0)


def test_too_short_or_nan_is_nan():
    assert np.isnan(kendall_tau(np.array([1.0]), np.array([2.0])))
    assert np.isnan(kendall_tau(np.array([1.0, np.nan, 3.0]), np.arange(3.0)))


def test_length_mismatch_rejected():
    with pytest.raises(ValueError, match="length"):
        kendall_tau(np.arange(3.0), np.arange(4.0))
