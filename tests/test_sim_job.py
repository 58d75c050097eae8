"""Tests for repro.sim.job (Job and Workload containers)."""

import numpy as np
import pytest

from repro.sim.job import Job, Workload, concat_workloads


class TestJob:
    def test_basic_construction(self):
        j = Job(job_id=1, submit=0.0, runtime=10.0, size=4)
        assert j.estimate == 10.0  # defaults to runtime
        assert j.area == 40.0

    def test_explicit_estimate(self):
        j = Job(job_id=1, submit=0.0, runtime=10.0, size=4, estimate=60.0)
        assert j.estimate == 60.0

    def test_negative_submit_rejected(self):
        with pytest.raises(ValueError):
            Job(job_id=1, submit=-1.0, runtime=10.0, size=1)

    def test_zero_runtime_rejected(self):
        with pytest.raises(ValueError):
            Job(job_id=1, submit=0.0, runtime=0.0, size=1)

    def test_zero_size_rejected(self):
        with pytest.raises(ValueError):
            Job(job_id=1, submit=0.0, runtime=1.0, size=0)

    def test_bad_estimate_rejected(self):
        with pytest.raises(ValueError):
            Job(job_id=1, submit=0.0, runtime=1.0, size=1, estimate=0.0)

    def test_immutable(self):
        j = Job(job_id=1, submit=0.0, runtime=1.0, size=1)
        with pytest.raises(AttributeError):
            j.runtime = 5.0


class TestWorkloadConstruction:
    def test_from_arrays_defaults(self):
        wl = Workload.from_arrays([0, 1], [5, 5], [1, 2])
        assert len(wl) == 2
        np.testing.assert_array_equal(wl.estimate, wl.runtime)
        np.testing.assert_array_equal(wl.job_ids, [0, 1])

    def test_auto_sorts_by_submit(self):
        wl = Workload.from_arrays([5.0, 1.0, 3.0], [1, 2, 3], [1, 1, 1])
        np.testing.assert_array_equal(wl.submit, [1.0, 3.0, 5.0])
        # attributes follow their jobs through the sort
        np.testing.assert_array_equal(wl.runtime, [2.0, 3.0, 1.0])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="length mismatch"):
            Workload.from_arrays([0, 1], [5], [1, 1])

    def test_negative_submit_rejected(self):
        with pytest.raises(ValueError):
            Workload.from_arrays([-1.0], [1.0], [1])

    def test_zero_runtime_rejected(self):
        with pytest.raises(ValueError):
            Workload.from_arrays([0.0], [0.0], [1])

    def test_zero_size_rejected(self):
        with pytest.raises(ValueError):
            Workload.from_arrays([0.0], [1.0], [0])

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            Workload.from_arrays([np.nan], [1.0], [1])

    @pytest.mark.parametrize("bad", [2.5, np.nan, np.inf])
    def test_non_integral_size_named(self, bad):
        """A size is never truncated: the job is named by its id."""
        with pytest.raises(ValueError, match=r"job 9: size must be a finite whole number"):
            Workload(
                submit=[1.0, 0.0], runtime=[1.0, 1.0], size=[1.0, bad],
                estimate=[1.0, 1.0], job_ids=[7, 9],
            )
        with pytest.raises(ValueError, match=r"job 1: size must be a finite whole number"):
            Workload.from_arrays([0.0, 1.0], [1.0, 1.0], [1, bad])

    def test_whole_float_sizes_become_int64(self):
        wl = Workload.from_arrays([0.0, 1.0], [1.0, 1.0], [2.0, 1.0])
        assert wl.size.dtype == np.int64
        np.testing.assert_array_equal(wl.size, [2, 1])

    def test_empty_ok(self):
        wl = Workload.from_arrays([], [], [])
        assert len(wl) == 0
        assert wl.span == 0.0

    def test_from_jobs_roundtrip(self):
        jobs = [
            Job(job_id=10, submit=0.0, runtime=3.0, size=2, estimate=5.0),
            Job(job_id=11, submit=1.0, runtime=4.0, size=1),
        ]
        wl = Workload.from_jobs(jobs, nmax=8)
        back = wl.to_jobs()
        assert back == jobs
        assert wl.nmax == 8


class TestWorkloadDerived:
    def test_area(self):
        wl = Workload.from_arrays([0, 1], [10, 20], [2, 3])
        assert wl.area == 10 * 2 + 20 * 3

    def test_span(self):
        wl = Workload.from_arrays([2.0, 10.0], [1, 1], [1, 1])
        assert wl.span == 8.0

    def test_utilization(self):
        wl = Workload.from_arrays([0.0, 100.0], [50, 50], [2, 2], nmax=4)
        # area=200, span=100, nmax=4 -> 0.5
        assert wl.utilization() == pytest.approx(0.5)

    def test_utilization_requires_nmax(self):
        wl = Workload.from_arrays([0.0, 1.0], [1, 1], [1, 1])
        with pytest.raises(ValueError):
            wl.utilization()

    def test_select_mask(self):
        wl = Workload.from_arrays([0, 1, 2], [1, 2, 3], [1, 1, 1])
        sub = wl.select(wl.runtime > 1.5)
        assert len(sub) == 2
        np.testing.assert_array_equal(sub.runtime, [2.0, 3.0])

    def test_shifted(self):
        wl = Workload.from_arrays([100.0, 110.0], [1, 1], [1, 1])
        sh = wl.shifted()
        np.testing.assert_array_equal(sh.submit, [0.0, 10.0])

    def test_shifted_min_submit(self):
        wl = Workload.from_arrays([100.0, 110.0], [1, 1], [1, 1])
        sh = wl.shifted(min_submit=1.0)
        np.testing.assert_array_equal(sh.submit, [1.0, 11.0])

    def test_with_estimates(self):
        wl = Workload.from_arrays([0, 1], [10, 10], [1, 1])
        wl2 = wl.with_estimates(np.array([20.0, 30.0]))
        np.testing.assert_array_equal(wl2.estimate, [20.0, 30.0])
        np.testing.assert_array_equal(wl.estimate, [10.0, 10.0])  # original intact

    def test_with_estimates_length_check(self):
        wl = Workload.from_arrays([0, 1], [10, 10], [1, 1])
        with pytest.raises(ValueError):
            wl.with_estimates(np.array([20.0]))

    def test_validate_for_machine(self):
        wl = Workload.from_arrays([0.0], [1.0], [8])
        wl.validate_for_machine(8)
        with pytest.raises(ValueError, match="needs 8 cores"):
            wl.validate_for_machine(4)

    def test_with_name(self):
        wl = Workload.from_arrays([0.0], [1.0], [1]).with_name("renamed")
        assert wl.name == "renamed"


class TestConcat:
    def test_concat(self):
        a = Workload.from_arrays([0.0], [1.0], [1], nmax=4)
        b = Workload.from_arrays([5.0], [2.0], [2], nmax=8)
        c = concat_workloads([a, b])
        assert len(c) == 2
        assert c.nmax == 8
        assert len(set(c.job_ids.tolist())) == 2

    def test_concat_empty_list_raises(self):
        with pytest.raises(ValueError):
            concat_workloads([])
