"""Tests for workload characterisation (repro.workloads.analysis)."""

import numpy as np
import pytest

from repro.sim.job import Workload
from repro.workloads.analysis import profile_workload
from repro.workloads.lublin import LublinParams, lublin_workload
from repro.workloads.traces import TRACES, synthetic_trace
from repro.workloads.tsafrir import apply_tsafrir


@pytest.fixture(scope="module")
def lublin_profile():
    return profile_workload(lublin_workload(20000, nmax=256, seed=1))


def _relative_difference(a, b, field):
    """``|a-b| / max(|a|, |b|)`` of one profile field."""
    x, y = getattr(a, field), getattr(b, field)
    return abs(x - y) / max(abs(x), abs(y), 1e-12)


class TestProfileWorkload:
    def test_basic_fields(self, lublin_profile):
        p = lublin_profile
        assert p.n_jobs == 20000
        assert p.span_days > 0
        assert 0 < p.serial_fraction < 1
        assert 0 < p.pow2_fraction <= 1
        assert p.size_p50 <= p.size_p95
        assert p.runtime_p50 <= p.runtime_p95

    def test_lublin_shape_properties(self, lublin_profile):
        """The published model shape, via the analysis module."""
        p = lublin_profile
        assert 0.2 < p.serial_fraction < 0.35
        assert p.pow2_fraction > 0.5
        assert p.day_night_ratio > 1.5  # daily rhythm present

    def test_perfect_estimates_accuracy_one(self, lublin_profile):
        assert lublin_profile.estimate_accuracy_p50 == pytest.approx(1.0)

    def test_tsafrir_estimates_lower_accuracy(self):
        wl = apply_tsafrir(lublin_workload(5000, seed=2), seed=3)
        p = profile_workload(wl)
        assert p.estimate_accuracy_p50 < 0.9

    def test_offered_load_matches_utilization(self):
        wl = lublin_workload(5000, nmax=256, seed=4)
        p = profile_workload(wl)
        assert p.offered_load == pytest.approx(wl.utilization(256))

    def test_explicit_nmax_override(self):
        wl = lublin_workload(1000, nmax=256, seed=5)
        a = profile_workload(wl, nmax=256)
        b = profile_workload(wl, nmax=512)
        assert b.offered_load == pytest.approx(a.offered_load / 2)

    def test_all_serial_pow2_nan(self):
        wl = Workload.from_arrays([0.0, 1.0], [10.0, 10.0], [1, 1], nmax=4)
        p = profile_workload(wl)
        assert p.serial_fraction == 1.0
        assert np.isnan(p.pow2_fraction)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            profile_workload(Workload.from_arrays([], [], []))

    def test_to_text(self, lublin_profile):
        text = lublin_profile.to_text()
        assert "serial fraction" in text
        assert "offered load" in text


class TestTraceProfiles:
    def test_trace_offered_load_matches_table5(self):
        for key in ("ctc_sp2", "sdsc_blue"):
            wl = synthetic_trace(key, seed=0, n_jobs=3000)
            p = profile_workload(wl)
            assert p.offered_load == pytest.approx(TRACES[key].utilization, rel=1e-6)

    def test_traces_distinguishable_by_profile(self):
        a = profile_workload(synthetic_trace("anl_intrepid", seed=0, n_jobs=2000))
        b = profile_workload(synthetic_trace("ctc_sp2", seed=0, n_jobs=2000))
        assert _relative_difference(a, b, "size_p50") > 0.5  # wildly different machines


class TestCompareProfiles:
    def test_same_model_same_seed_family_close(self):
        params = LublinParams(nmax=256)
        a = profile_workload(lublin_workload(15000, 256, seed=1, params=params))
        b = profile_workload(lublin_workload(15000, 256, seed=2, params=params))
        # two draws of one model agree on the headline shape numbers
        assert _relative_difference(a, b, "serial_fraction") < 0.1
        assert _relative_difference(a, b, "pow2_fraction") < 0.1
