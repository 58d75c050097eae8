"""Tests for the online scheduling engine (repro.sim.engine)."""

import numpy as np
import pytest

from repro.policies.classic import FCFS, SPT
from repro.policies.adhoc import WFP3
from repro.sim import _cbackend
from repro.sim.check import check_schedule
from repro.sim.engine import ScheduleResult, SimulationConfig, simulate
from repro.sim.job import Workload

KERNELS = ["python"] + (["c"] if _cbackend.load() is not None else [])


class TestSimulationConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SimulationConfig(nmax=0)
        with pytest.raises(ValueError):
            SimulationConfig(nmax=4, tau=0.0)

    @pytest.mark.parametrize("tau", [float("nan"), float("inf")])
    def test_non_finite_tau_rejected(self, tau):
        with pytest.raises(ValueError, match="tau must be finite"):
            SimulationConfig(nmax=4, tau=tau)
        wl = Workload.from_arrays([0.0], [1.0], [1])
        with pytest.raises(ValueError, match="tau must be finite"):
            simulate(wl, FCFS(), 4, tau=tau)

    def test_numpy_integer_nmax_accepted(self):
        assert SimulationConfig(nmax=np.int64(4)).nmax == 4

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_float_nmax_same_error_on_every_kernel(self, monkeypatch, kernel):
        monkeypatch.setenv("REPRO_SIM_KERNEL", kernel)
        wl = Workload.from_arrays([0.0, 1.0], [2.0, 3.0], [1, 2])
        with pytest.raises(TypeError, match="nmax must be an integer, got float"):
            simulate(wl, FCFS(), 64.0)


class TestBasicScheduling:
    def test_empty_workload(self):
        wl = Workload.from_arrays([], [], [])
        result = simulate(wl, FCFS(), 4)
        assert len(result.start) == 0
        assert result.policy_name == "FCFS"

    def test_single_job(self):
        wl = Workload.from_arrays([3.0], [7.0], [2])
        result = simulate(wl, FCFS(), 4)
        assert result.start[0] == 3.0
        assert result.finish[0] == 10.0
        assert result.ave_bsld == 1.0

    def test_oversized_job_rejected(self):
        wl = Workload.from_arrays([0.0], [1.0], [8])
        with pytest.raises(ValueError):
            simulate(wl, FCFS(), 4)

    def test_fcfs_order(self):
        wl = Workload.from_arrays([0.0, 1.0, 2.0], [10.0, 10.0, 10.0], [4, 4, 4])
        result = simulate(wl, FCFS(), 4)
        np.testing.assert_allclose(result.start, [0.0, 10.0, 20.0])

    def test_spt_reorders_queue(self):
        # All queued behind a blocker; SPT runs the shortest next.
        wl = Workload.from_arrays(
            [0.0, 1.0, 1.0], [10.0, 8.0, 2.0], [4, 4, 4]
        )
        result = simulate(wl, SPT(), 4)
        np.testing.assert_allclose(result.start, [0.0, 12.0, 10.0])

    def test_head_blocking_without_backfill(self):
        # J1 blocked (needs 4); J2 fits but must not overtake.
        wl = Workload.from_arrays(
            [0.0, 1.0, 1.0], [10.0, 5.0, 1.0], [3, 4, 1]
        )
        result = simulate(wl, FCFS(), 4)
        np.testing.assert_allclose(result.start, [0.0, 10.0, 15.0])

    def test_parallel_starts(self):
        wl = Workload.from_arrays([0.0, 0.0, 0.0], [5.0, 5.0, 5.0], [1, 1, 2])
        result = simulate(wl, FCFS(), 4)
        np.testing.assert_allclose(result.start, [0.0, 0.0, 0.0])

    def test_machine_idle_gap(self):
        wl = Workload.from_arrays([0.0, 100.0], [5.0, 5.0], [1, 1])
        result = simulate(wl, FCFS(), 4)
        np.testing.assert_allclose(result.start, [0.0, 100.0])


class TestBackfillScheduling:
    def test_hand_checked_easy_scenario(self):
        """Worked EASY example: one shadow reservation, one backfill."""
        wl = Workload.from_arrays(
            submit=[0.0, 1.0, 2.0, 2.0],
            runtime=[10.0, 10.0, 5.0, 20.0],
            size=[3, 4, 1, 1],
        )
        result = simulate(wl, FCFS(), 4, backfill=True)
        # J0 [0,10] n3. J1 head blocked, shadow=10, extra=0.
        # J2 (r=5) backfills at t=2 (ends 7 <= 10). J3 (r=20) would overrun
        # the shadow and extra=0 -> waits until after J1.
        np.testing.assert_allclose(result.start, [0.0, 10.0, 2.0, 20.0])
        assert result.backfilled.tolist() == [False, False, True, False]
        assert result.backfill_count == 1

    def test_backfill_never_delays_reserved_head(self):
        wl = Workload.from_arrays(
            submit=[0.0, 1.0, 1.0],
            runtime=[10.0, 10.0, 100.0],
            size=[3, 4, 2],
        )
        plain = simulate(wl, FCFS(), 4, backfill=False)
        bf = simulate(wl, FCFS(), 4, backfill=True)
        # the blocked head (job 1) starts at the same time in both
        assert bf.start[1] == plain.start[1] == 10.0
        # and the wide long job was NOT backfilled (would delay the head)
        assert not bf.backfilled[2]

    def test_backfill_improves_utilization(self, medium_workload):
        plain = simulate(medium_workload, FCFS(), 32, backfill=False)
        bf = simulate(medium_workload, FCFS(), 32, backfill=True)
        assert bf.backfill_count > 0
        assert bf.ave_bsld <= plain.ave_bsld * 1.001

    def test_backfill_uses_estimates_for_decisions(self):
        """Overestimated candidate is refused although actual runtime fits."""
        wl = Workload.from_arrays(
            submit=[0.0, 1.0, 1.0],
            runtime=[10.0, 10.0, 2.0],  # actual: J2 would finish by t=10
            size=[2, 4, 2],
            estimate=[10.0, 10.0, 50.0],  # estimate says it will not
        )
        with_e = simulate(wl, FCFS(), 4, backfill=True, use_estimates=True)
        assert not with_e.backfilled[2]
        with_r = simulate(wl, FCFS(), 4, backfill=True, use_estimates=False)
        assert with_r.backfilled[2]

    def test_overrunning_estimate_does_not_crash(self):
        """Jobs running past their estimate are treated as ending 'now'."""
        wl = Workload.from_arrays(
            submit=[0.0, 1.0, 2.0],
            runtime=[100.0, 10.0, 10.0],
            size=[3, 4, 1],
            estimate=[5.0, 10.0, 10.0],  # J0's estimate expires at t=5
        )
        result = simulate(wl, FCFS(), 4, backfill=True, use_estimates=True)
        assert check_schedule(result, FCFS()) == []


class TestEstimateMode:
    def test_spt_ordering_follows_estimates(self):
        # Estimates invert the actual-runtime order.
        wl = Workload.from_arrays(
            submit=[0.0, 1.0, 1.0],
            runtime=[10.0, 2.0, 8.0],
            size=[4, 4, 4],
            estimate=[10.0, 9.0, 3.0],
        )
        by_r = simulate(wl, SPT(), 4, use_estimates=False)
        by_e = simulate(wl, SPT(), 4, use_estimates=True)
        assert by_r.start[1] < by_r.start[2]  # actual: J1 shorter
        assert by_e.start[2] < by_e.start[1]  # estimated: J2 'shorter'

    def test_execution_always_uses_actual_runtime(self):
        wl = Workload.from_arrays(
            submit=[0.0], runtime=[5.0], size=[1], estimate=[500.0]
        )
        result = simulate(wl, SPT(), 4, use_estimates=True)
        assert result.finish[0] == 5.0  # not 500


class TestDynamicPolicies:
    def test_wfp_runs_and_is_valid(self, medium_workload):
        result = simulate(medium_workload, WFP3(), 32)
        assert check_schedule(result, WFP3()) == []

    def test_wfp_prefers_long_waiters(self):
        # Two identical jobs queued behind a blocker; WFP favours the one
        # that waited longer (earlier submit), like FCFS here.
        wl = Workload.from_arrays(
            [0.0, 1.0, 2.0], [10.0, 5.0, 5.0], [4, 4, 4]
        )
        result = simulate(wl, WFP3(), 4)
        assert result.start[1] < result.start[2]


class TestScheduleResult:
    def test_result_metrics(self, tiny_workload):
        result = simulate(tiny_workload, FCFS(), 4)
        assert result.makespan >= float(np.max(result.finish)) - 1e-9
        assert 0.0 < result.utilization <= 1.0
        assert result.summary().n == len(tiny_workload)
        assert result.n_events > 0

    def test_wait_and_bsld_shapes(self, medium_workload):
        result = simulate(medium_workload, FCFS(), 32)
        assert result.wait.shape == (len(medium_workload),)
        assert np.all(result.bsld() >= 1.0)

    def test_length_mismatch_rejected(self, tiny_workload):
        with pytest.raises(ValueError):
            ScheduleResult(
                workload=tiny_workload,
                start=np.zeros(2),
                policy_name="x",
                config=SimulationConfig(nmax=4),
            )
