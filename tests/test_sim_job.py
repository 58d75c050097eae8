"""Tests for repro.sim.job (the Workload container and job blocks)."""

import dataclasses

import numpy as np
import pytest

from repro.eval.windows import stream_windows
from repro.sim.job import BLOCK_COLUMNS, Workload, concat_workloads, job_block
from repro.sim.listsched import simulate_fixed_priority_batch


class TestJob:
    """One job: a row of a job block, checked as it enters a Workload."""

    @staticmethod
    def _one(submit=0.0, runtime=10.0, size=1, estimate=10.0):
        mat = job_block([1], [submit], [runtime], [size], [estimate])
        return Workload.from_block(mat, name="one", nmax=8)

    def test_basic_construction(self):
        wl = Workload.from_arrays([0.0], [10.0], [4])
        assert wl.estimate.tolist() == [10.0]  # defaults to runtime
        assert wl.area == 40.0
        assert self._one(size=4).area == 40.0

    def test_negative_submit_rejected(self):
        with pytest.raises(ValueError, match="submit"):
            self._one(submit=-1.0)

    def test_zero_runtime_rejected(self):
        with pytest.raises(ValueError, match="runtime"):
            self._one(runtime=0.0)

    def test_zero_size_rejected(self):
        with pytest.raises(ValueError, match="size"):
            self._one(size=0)


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

    def test_from_jobs_roundtrip(self):
        jobs = [(11, 1.0, 4.0, 1, 4.0), (10, 0.0, 3.0, 2, 5.0)]
        wl = Workload.from_block(job_block(*zip(*jobs)), name="w", nmax=8)
        back = [
            (int(j), float(t), float(r), int(n), float(e))
            for j, t, r, n, e in zip(wl.job_ids, wl.submit, wl.runtime, wl.size, wl.estimate)
        ]
        assert back == sorted(jobs, key=lambda job: job[1])
        assert wl.nmax == 8

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

    def test_explicit_estimate(self):
        wl = Workload.from_arrays([0.0], [10.0], [4], [60.0])
        assert wl.estimate.tolist() == [60.0] and wl.runtime.tolist() == [10.0]

    @pytest.mark.parametrize("bad", [0.0, -1.0, np.inf])
    def test_bad_estimate_rejected(self, bad):
        with pytest.raises(ValueError, match="estimate"):
            Workload.from_arrays([0.0], [1.0], [1], [bad])

    def test_immutable(self):
        wl = Workload.from_arrays([0.0], [1.0], [1])
        with pytest.raises(dataclasses.FrozenInstanceError):
            wl.runtime = np.array([5.0])

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

    def test_one_oversize_message(self):
        """The workload, the trial simulator and the window stream name an
        oversize job in the same words."""
        wl = Workload.from_arrays([0.0, 1.0], [1.0, 1.0], [2, 8])
        want = "^job 1 needs 8 cores but the machine has only 4$"
        with pytest.raises(ValueError, match=want):
            wl.validate_for_machine(4)
        with pytest.raises(ValueError, match=want):
            simulate_fixed_priority_batch(wl.submit, wl.runtime, wl.size, np.zeros((1, 2)), 4)
        with pytest.raises(ValueError, match=want):
            list(stream_windows(wl, jobs=2, min_jobs=1, nmax=4))

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


class TestJobBlocks:
    @staticmethod
    def _workload():
        return Workload(
            submit=[0.0, 3.0, 3.0, 7.5, 9.0],
            runtime=[5.0, 1.0, 2.0, 4.0, 8.0],
            size=[1, 4, 2, 8, 3],
            estimate=[6.0, 1.0, 9.0, 4.0, 8.0],
            job_ids=[10, 11, 12, 13, 14],
            name="w",
            nmax=8,
        )

    def test_blocks_round_trip(self):
        wl = self._workload()
        blocks = list(wl.blocks(2))
        assert [b.shape for b in blocks] == [(2, 5), (2, 5), (1, 5)]
        assert all(b.dtype == np.float64 for b in blocks)
        mat = np.concatenate(blocks)
        for k, column in enumerate(BLOCK_COLUMNS):
            values = wl.job_ids if column == "job_id" else getattr(wl, column)
            assert np.array_equal(mat[:, k], values)
        back = Workload.from_block(mat, name="w", nmax=8)
        for column in ("submit", "runtime", "size", "estimate", "job_ids"):
            got, want = getattr(back, column), getattr(wl, column)
            assert got.dtype == want.dtype and np.array_equal(got, want)
        assert (back.name, back.nmax, back.extra) == ("w", 8, {})

    def test_from_block_keeps_extra_and_rejects_fractional_sizes(self):
        mat = job_block([1, 2], [0.0, 1.0], [5.0, 5.0], [2.0, 2.5], [5.0, 5.0])
        with pytest.raises(ValueError, match="job 2: size must be a finite whole number"):
            Workload.from_block(mat, name="w", nmax=4)
        mat[1, 3] = 3.0
        wl = Workload.from_block(mat, name="w", nmax=4, extra={"dropped": 1})
        assert wl.size.tolist() == [2, 3] and wl.extra == {"dropped": 1}
