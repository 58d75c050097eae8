"""Tests for the Lublin-Feitelson workload model reimplementation."""

import numpy as np
import pytest

from repro.workloads.lublin import (
    LublinParams,
    lublin_workload,
    sample_arrivals,
    sample_runtimes,
    sample_sizes,
    scale_to_utilization,
    two_stage_uniform,
)


@pytest.fixture(scope="module")
def big_workload():
    return lublin_workload(20000, nmax=256, seed=7)


class TestParams:
    def test_defaults_are_lublin99(self):
        p = LublinParams()
        assert p.serial_prob == 0.244
        assert p.pow2_prob == 0.576
        assert (p.a1, p.b1, p.a2, p.b2) == (4.2, 0.94, 312.0, 0.03)
        assert (p.pa, p.pb) == (-0.0054, 0.78)
        assert (p.aarr, p.barr) == (10.23, 0.4871)

    def test_uhi_tracks_machine(self):
        assert LublinParams(nmax=256).uhi == 8.0
        assert LublinParams(nmax=1024).uhi == 10.0

    def test_effective_umed_capped(self):
        # tiny machine: break-point pulled below uhi
        p = LublinParams(nmax=16)  # uhi = 4
        assert p.effective_umed == 3.0

    def test_for_machine(self):
        p = LublinParams().for_machine(1024)
        assert p.nmax == 1024
        assert p.serial_prob == 0.244

    def test_validation(self):
        with pytest.raises(ValueError):
            LublinParams(serial_prob=1.5)
        with pytest.raises(ValueError):
            LublinParams(a1=-1.0)


class TestTwoStageUniform:
    def test_bounds(self, rng):
        out = two_stage_uniform(rng, 5000, 1.0, 3.0, 8.0, 0.7)
        assert out.min() >= 1.0 and out.max() <= 8.0

    def test_stage_proportions(self, rng):
        out = two_stage_uniform(rng, 20000, 0.0, 1.0, 10.0, 0.8)
        low_frac = np.mean(out <= 1.0)
        assert 0.77 < low_frac < 0.83

    def test_bad_breakpoints(self, rng):
        with pytest.raises(ValueError):
            two_stage_uniform(rng, 10, 5.0, 3.0, 8.0, 0.5)


class TestSizes:
    def test_range(self, rng):
        sizes = sample_sizes(rng, 10000, LublinParams(nmax=256))
        assert sizes.min() >= 1 and sizes.max() <= 256
        assert sizes.dtype == np.int64

    def test_serial_fraction(self, rng):
        p = LublinParams(nmax=256)
        sizes = sample_sizes(rng, 40000, p)
        serial = np.mean(sizes == 1)
        # serial_prob plus a sliver from round(2^u) == 1
        assert 0.22 < serial < 0.32

    def test_power_of_two_mass(self, rng):
        """The hallmark pow2 spikes: far more mass than adjacent sizes."""
        sizes = sample_sizes(rng, 40000, LublinParams(nmax=256))
        parallel = sizes[sizes > 1]
        pow2 = np.mean((parallel & (parallel - 1)) == 0)
        assert pow2 > 0.5

    def test_machine_scaling(self, rng):
        big = sample_sizes(rng, 20000, LublinParams(nmax=1024))
        assert big.max() > 256  # larger machine hosts larger jobs

    def test_no_serial_when_prob_zero(self, rng):
        p = LublinParams(nmax=256, serial_prob=0.0, ulow=1.0)
        sizes = sample_sizes(rng, 5000, p)
        assert np.mean(sizes == 1) < 0.05


class TestRuntimes:
    def test_positive_and_capped(self, rng):
        sizes = sample_sizes(rng, 10000, LublinParams())
        rt = sample_runtimes(rng, sizes, LublinParams())
        assert rt.min() >= 1.0
        assert rt.max() <= LublinParams().runtime_cap

    def test_bimodal_components(self, rng):
        """Hyper-gamma: a short mode (~2^4 s) and a long mode (~2^9.4 s)."""
        sizes = np.ones(40000, dtype=np.int64)
        rt = sample_runtimes(rng, sizes, LublinParams())
        short_frac = np.mean(rt < 120.0)
        long_frac = np.mean(rt > 400.0)
        assert short_frac > 0.4  # p(serial) = pb - pa ~ 0.785
        assert long_frac > 0.1

    def test_size_runtime_correlation(self, rng):
        """Bigger jobs draw the long gamma more often (p = pa*n + pb)."""
        p = LublinParams()
        small = sample_runtimes(rng, np.full(20000, 1), p)
        large = sample_runtimes(rng, np.full(20000, 128), p)
        assert np.median(large) > np.median(small)

    def test_reproducible(self):
        a = sample_runtimes(np.random.default_rng(3), np.full(100, 4), LublinParams())
        b = sample_runtimes(np.random.default_rng(3), np.full(100, 4), LublinParams())
        np.testing.assert_array_equal(a, b)


class TestArrivals:
    def test_monotone_from_start_of_day(self, rng):
        t = sample_arrivals(rng, 5000, LublinParams())
        assert t[0] >= 8 * 3600.0  # clock opens at 8 am, midnight origin
        assert np.all(np.diff(t) >= 0)

    def test_daily_rhythm(self, rng):
        """More arrivals during working hours than at night."""
        t = sample_arrivals(rng, 60000, LublinParams(), start_of_day_s=8 * 3600)
        hour = (t / 3600.0) % 24
        day = np.mean((hour >= 9) & (hour < 17))
        night = np.mean((hour >= 0) & (hour < 8))
        # day window is 8h/24h = 1/3 of the clock but should hold far more
        assert day > 0.40
        assert day / max(night, 1e-9) > 1.5

    def test_cycle_disabled_is_pure_loggamma(self):
        p = LublinParams(daily_cycle=False)
        t = sample_arrivals(np.random.default_rng(0), 5000, p)
        gaps = np.diff(t)
        # log2 of gaps should look like Gamma(10.23, 0.4871): mean ~ 4.98
        assert 4.5 < np.log2(gaps[gaps > 0]).mean() < 5.5

    def test_empty(self, rng):
        assert len(sample_arrivals(rng, 0, LublinParams())) == 0


class TestLublinWorkload:
    def test_shapes_and_validity(self, big_workload):
        assert len(big_workload) == 20000
        assert big_workload.nmax == 256
        big_workload.validate_for_machine(256)
        np.testing.assert_array_equal(big_workload.estimate, big_workload.runtime)

    def test_reproducible(self):
        a = lublin_workload(200, seed=11)
        b = lublin_workload(200, seed=11)
        np.testing.assert_array_equal(a.submit, b.submit)
        np.testing.assert_array_equal(a.runtime, b.runtime)
        np.testing.assert_array_equal(a.size, b.size)

    def test_seed_matters(self):
        a = lublin_workload(200, seed=1)
        b = lublin_workload(200, seed=2)
        assert not np.array_equal(a.runtime, b.runtime)

    def test_offered_load_reasonable(self, big_workload):
        """The default model offers a schedulable but busy machine."""
        util = big_workload.utilization(256)
        assert 0.2 < util < 1.2

    def test_invalid_count(self):
        with pytest.raises(ValueError):
            lublin_workload(0)


class TestScaleToUtilization:
    def test_hits_target(self, big_workload):
        for target in (0.3, 0.62, 0.9):
            scaled = scale_to_utilization(big_workload, target, 256)
            assert scaled.utilization(256) == pytest.approx(target, rel=1e-6)

    def test_preserves_everything_else(self, big_workload):
        scaled = scale_to_utilization(big_workload, 0.5, 256)
        np.testing.assert_array_equal(scaled.runtime, big_workload.runtime)
        np.testing.assert_array_equal(scaled.size, big_workload.size)

    def test_preserves_relative_gaps(self, big_workload):
        scaled = scale_to_utilization(big_workload, 0.5, 256)
        g0 = np.diff(big_workload.submit[:100])
        g1 = np.diff(scaled.submit[:100])
        nz = g0 > 0
        ratios = g1[nz] / g0[nz]
        assert np.allclose(ratios, ratios[0])

    def test_invalid_target(self, big_workload):
        with pytest.raises(ValueError):
            scale_to_utilization(big_workload, 0.0, 256)
