"""Tests for repro.sim.metrics (Eq. 1 and Eq. 2 of the paper)."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sim.metrics import (
    average_bounded_slowdown,
    bounded_slowdown,
    makespan,
    utilization,
    waiting_times,
)

pos_floats = st.floats(min_value=0.01, max_value=1e5)


class TestWaitingTimes:
    def test_basic(self):
        w = waiting_times(np.array([0.0, 5.0]), np.array([3.0, 5.0]))
        np.testing.assert_array_equal(w, [3.0, 0.0])

    def test_negative_wait_rejected(self):
        with pytest.raises(ValueError, match="negative wait"):
            waiting_times(np.array([10.0]), np.array([5.0]))

    def test_tiny_negative_rounding_clamped(self):
        w = waiting_times(np.array([1.0]), np.array([1.0 - 1e-12]))
        assert w[0] == 0.0


class TestBoundedSlowdown:
    def test_no_wait_is_one(self):
        """A job that starts immediately has bsld exactly 1."""
        out = bounded_slowdown(np.array([0.0]), np.array([100.0]))
        assert out[0] == 1.0

    def test_paper_formula_long_job(self):
        # r=100 > tau: bsld = (w + r) / r
        out = bounded_slowdown(np.array([100.0]), np.array([100.0]), tau=10.0)
        assert out[0] == pytest.approx(2.0)

    def test_tau_bounds_small_jobs(self):
        # r=1 < tau=10: divide by tau, not r
        out = bounded_slowdown(np.array([9.0]), np.array([1.0]), tau=10.0)
        assert out[0] == pytest.approx(1.0)  # (9+1)/10 = 1
        out = bounded_slowdown(np.array([99.0]), np.array([1.0]), tau=10.0)
        assert out[0] == pytest.approx(10.0)  # (99+1)/10

    def test_small_job_vs_unbounded_slowdown(self):
        """tau prevents the blow-up the paper guards against."""
        wait, rt = np.array([1000.0]), np.array([0.1])
        unbounded = (wait + rt) / rt
        bounded = bounded_slowdown(wait, rt, tau=10.0)
        assert bounded[0] < unbounded[0]
        assert bounded[0] == pytest.approx(1000.1 / 10.0)

    def test_invalid_tau(self):
        with pytest.raises(ValueError):
            bounded_slowdown(np.array([0.0]), np.array([1.0]), tau=0.0)

    @given(
        st.lists(pos_floats, min_size=1, max_size=30),
        st.lists(pos_floats, min_size=1, max_size=30),
    )
    def test_always_at_least_one(self, waits, runtimes):
        n = min(len(waits), len(runtimes))
        out = bounded_slowdown(np.array(waits[:n]), np.array(runtimes[:n]))
        assert np.all(out >= 1.0)

    @given(st.lists(pos_floats, min_size=1, max_size=30))
    def test_monotone_in_wait(self, runtimes):
        rt = np.array(runtimes)
        low = bounded_slowdown(np.full_like(rt, 10.0), rt)
        high = bounded_slowdown(np.full_like(rt, 20.0), rt)
        assert np.all(high >= low)


class TestAverageBoundedSlowdown:
    def test_mean_of_eq1(self):
        wait = np.array([0.0, 100.0])
        rt = np.array([100.0, 100.0])
        assert average_bounded_slowdown(wait, rt) == pytest.approx((1.0 + 2.0) / 2)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            average_bounded_slowdown(np.array([]), np.array([]))


class TestMakespanUtilization:
    def test_makespan(self):
        assert makespan(np.array([0.0, 5.0]), np.array([10.0, 2.0])) == 10.0

    def test_makespan_empty(self):
        assert makespan(np.array([]), np.array([])) == 0.0

    def test_utilization_full(self):
        # one job using the whole machine for the whole horizon
        u = utilization(np.array([0.0]), np.array([10.0]), np.array([4]), nmax=4)
        assert u == pytest.approx(1.0)

    def test_utilization_horizon(self):
        u = utilization(
            np.array([0.0]), np.array([10.0]), np.array([4]), nmax=4, horizon=20.0
        )
        assert u == pytest.approx(0.5)

    def test_utilization_never_above_one_when_valid(self):
        # two serial jobs back to back on 1 core
        u = utilization(np.array([0.0, 10.0]), np.array([10.0, 10.0]), np.array([1, 1]), nmax=1)
        assert u == pytest.approx(1.0)

    def test_bad_horizon(self):
        with pytest.raises(ValueError):
            utilization(np.array([0.0]), np.array([1.0]), np.array([1]), 1, horizon=0.0)
