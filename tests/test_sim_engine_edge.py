"""Edge-case tests for the online engine: simultaneity, overruns, events."""

import numpy as np
import pytest

from repro.policies.classic import FCFS, SPT
from repro.sim.check import check_schedule
from repro.sim.engine import simulate
from repro.sim.job import Workload


class TestSimultaneousEvents:
    def test_completion_and_arrival_same_instant(self):
        """Cores freed at t must be visible to a job arriving at t."""
        wl = Workload.from_arrays(
            submit=[0.0, 10.0],
            runtime=[10.0, 5.0],
            size=[4, 4],
        )
        result = simulate(wl, FCFS(), 4)
        assert result.start[1] == 10.0  # no extra event round-trip

    def test_many_simultaneous_arrivals(self):
        wl = Workload.from_arrays(
            submit=[5.0] * 8,
            runtime=[10.0] * 8,
            size=[1] * 8,
        )
        result = simulate(wl, FCFS(), 4)
        starts = np.sort(result.start)
        np.testing.assert_allclose(starts, [5.0] * 4 + [15.0] * 4)

    def test_many_simultaneous_completions(self):
        wl = Workload.from_arrays(
            submit=[0.0, 0.0, 0.0, 1.0],
            runtime=[10.0, 10.0, 10.0, 2.0],
            size=[1, 1, 2, 4],
        )
        result = simulate(wl, FCFS(), 4)
        assert result.start[3] == 10.0  # all three completions batched


class TestTieBreaking:
    def test_equal_scores_fcfs_by_submit(self):
        # identical runtimes -> SPT ties -> earlier submit wins
        wl = Workload.from_arrays(
            submit=[0.0, 1.0, 2.0],
            runtime=[5.0, 5.0, 5.0],
            size=[4, 4, 4],
        )
        result = simulate(wl, SPT(), 4)
        assert result.start[0] < result.start[1] < result.start[2]

    def test_equal_scores_and_submits_by_index(self):
        wl = Workload.from_arrays(
            submit=[0.0, 0.0],
            runtime=[5.0, 5.0],
            size=[4, 4],
        )
        result = simulate(wl, SPT(), 4)
        assert result.start[0] < result.start[1]


class TestEstimateOverruns:
    def test_underestimated_running_job_blocks_shadow_correctly(self):
        """A running job past its estimate keeps the machine consistent."""
        wl = Workload.from_arrays(
            submit=[0.0, 1.0, 2.0, 3.0],
            runtime=[50.0, 20.0, 10.0, 10.0],
            size=[3, 4, 1, 1],
            estimate=[5.0, 20.0, 10.0, 10.0],  # J0 overruns 10x
        )
        result = simulate(wl, FCFS(), 4, use_estimates=True, backfill=True)
        assert check_schedule(result, FCFS()) == []
        # J1 cannot start before J0 actually ends
        assert result.start[1] >= 50.0

    def test_all_jobs_overrun(self):
        wl = Workload.from_arrays(
            submit=[0.0, 1.0, 2.0],
            runtime=[100.0, 100.0, 100.0],
            size=[2, 2, 2],
            estimate=[1.0, 1.0, 1.0],
        )
        result = simulate(wl, FCFS(), 4, use_estimates=True, backfill=True)
        assert check_schedule(result, FCFS()) == []


class TestEventAccounting:
    def test_n_events_reasonable(self):
        wl = Workload.from_arrays(
            submit=[0.0, 1.0, 2.0],
            runtime=[5.0, 5.0, 5.0],
            size=[4, 4, 4],
        )
        result = simulate(wl, FCFS(), 4)
        # at least one event per arrival; bounded by arrivals+completions
        assert 3 <= result.n_events <= 6

    def test_empty_schedule_zero_events(self):
        result = simulate(Workload.from_arrays([], [], []), FCFS(), 4)
        assert result.n_events == 0


class TestExtremeShapes:
    def test_single_core_machine(self):
        wl = Workload.from_arrays(
            submit=[0.0, 0.0, 0.0],
            runtime=[1.0, 2.0, 3.0],
            size=[1, 1, 1],
        )
        result = simulate(wl, SPT(), 1)
        np.testing.assert_allclose(np.sort(result.start), [0.0, 1.0, 3.0])

    def test_all_jobs_machine_sized(self):
        wl = Workload.from_arrays(
            submit=[0.0] * 5,
            runtime=[2.0] * 5,
            size=[16] * 5,
        )
        result = simulate(wl, FCFS(), 16)
        np.testing.assert_allclose(np.sort(result.start), [0, 2, 4, 6, 8])

    def test_very_long_idle_gaps(self):
        wl = Workload.from_arrays(
            submit=[0.0, 1e9],
            runtime=[1.0, 1.0],
            size=[1, 1],
        )
        result = simulate(wl, FCFS(), 4)
        assert result.start[1] == 1e9

    def test_sub_second_runtimes(self):
        wl = Workload.from_arrays(
            submit=[0.0, 0.1, 0.2],
            runtime=[0.5, 0.25, 0.125],
            size=[4, 4, 4],
        )
        result = simulate(wl, FCFS(), 4)
        assert check_schedule(result, FCFS()) == []
        assert result.ave_bsld >= 1.0

    def test_heavy_queue_does_not_misorder(self):
        """200 equal jobs through a 1-wide machine keep FCFS order."""
        n = 200
        wl = Workload.from_arrays(
            submit=np.arange(n, dtype=float),
            runtime=np.full(n, 3.0),
            size=np.ones(n, dtype=int),
        )
        result = simulate(wl, FCFS(), 1)
        assert np.all(np.diff(result.start) > 0)


class TestKernelFaultChecks:
    """The Python loop's fault checks fail loudly, as the C loop's do."""

    def test_oversubscription_rejected(self, monkeypatch):
        from repro.sim import kernel

        monkeypatch.setenv("REPRO_SIM_KERNEL", "python")
        # a replan pass that starts every queued job, fitting or not
        monkeypatch.setattr(
            kernel, "conservative_starts", lambda now, nmax, queue, *a, **k: queue
        )
        wl = Workload.from_arrays(
            submit=[0.0, 0.0], runtime=[10.0, 10.0], size=[3, 2], nmax=4
        )
        with pytest.raises(RuntimeError, match="oversubscription: job 1 wants 2"):
            simulate(wl, FCFS(), 4, backfill="conservative")

    @pytest.mark.parametrize("backend", ["python", "c"])
    def test_job_that_can_never_start(self, monkeypatch, backend):
        from repro.sim import _cbackend
        from repro.sim.kernel import simulate_events

        if backend == "c" and _cbackend.load() is None:
            pytest.skip("no C toolchain")
        monkeypatch.setenv("REPRO_SIM_KERNEL", backend)
        one = np.ones(1)
        # callers validate size <= nmax; unvalidated, the job waits forever
        with pytest.raises(RuntimeError, match="no arrival or completion is left"):
            simulate_events(one, one, one, [8], 4, static_scores=one)
