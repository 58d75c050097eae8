"""Tests for the schedule checker: valid schedules pass, and every rule
names its violation on a hand-built schedule that breaks it."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.policies.classic import FCFS
from repro.sim.check import check_schedule, step_profile
from repro.sim.engine import ScheduleResult, SimulationConfig, simulate
from repro.sim.job import Workload

from conftest import random_workload


def _schedule(
    submit, runtime, size, start, *, nmax, backfill=None, backfilled=None,
    topology=None, leaf=None,
):
    """A ScheduleResult built by hand, as if FCFS had produced it."""
    wl = Workload.from_arrays(submit, runtime, size)
    config = SimulationConfig(nmax=nmax, backfill=backfill, topology=topology)
    flags = None if backfilled is None else np.asarray(backfilled, dtype=bool)
    leaf = None if leaf is None else np.asarray(leaf, dtype=np.int64)
    return ScheduleResult(
        wl, np.asarray(start, dtype=float), "FCFS", config, flags, 0, leaf
    )


def _violations(result) -> list[str]:
    return check_schedule(result, FCFS())


class TestValidSchedules:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**16))
    def test_peak_busy_cores_bounded(self, seed):
        rng = np.random.default_rng(seed)
        wl = random_workload(rng, n=30, nmax=8)
        result = simulate(wl, FCFS(), 8, backfill=True)
        assert _violations(result) == []
        _, busy = step_profile(result.start, result.finish, wl.size)
        assert busy.max() <= 8
        assert busy[-1] == 0  # all work completes

    def test_step_profiles_of_a_simple_schedule(self):
        wl = Workload.from_arrays([0.0, 0.0, 5.0], [10.0, 4.0, 10.0], [2, 2, 4])
        result = simulate(wl, FCFS(), 4)
        assert _violations(result) == []
        # J0 and J1 run [0, 10) and [0, 4); J2 waits for J0: [10, 20)
        time, busy = step_profile(result.start, result.finish, wl.size)
        assert time.tolist() == [0.0, 4.0, 10.0, 20.0]
        assert busy.tolist() == [4, 2, 4, 0]
        # J2 queues from its arrival at 5 to its start at 10
        time, queued = step_profile(wl.submit, result.start, np.ones(3))
        assert time.tolist() == [0.0, 5.0, 10.0]
        assert queued.tolist() == [0.0, 1.0, 0.0]

    def test_empty_profile(self):
        time, value = step_profile([], [], [])
        assert time.size == value.size == 0

    def test_easy_backfill_inside_the_shadow(self):
        # J1 (4 cores) waits for J0 until 10; J2 (1 core) ends by then
        result = _schedule(
            [0.0, 0.0, 0.0], [10.0, 5.0, 5.0], [3, 4, 1], [0.0, 10.0, 0.0],
            nmax=4, backfill="easy", backfilled=[False, False, True],
        )
        assert _violations(result) == []


class TestViolationsAreNamed:
    def test_never_starts(self):
        result = _schedule([0.0], [1.0], [1], [np.nan], nmax=1)
        assert _violations(result) == ["start: job 0 never starts"]

    def test_start_before_submit(self):
        result = _schedule([0.0, 5.0], [1.0, 1.0], [1, 1], [0.0, 4.0], nmax=2)
        assert any(
            m.startswith("start: job 1 at t=4.0: starts before its submission")
            for m in _violations(result)
        )

    def test_flat_oversubscription(self):
        result = _schedule([0.0, 0.0], [10.0, 10.0], [3, 3], [0.0, 0.0], nmax=4)
        assert _violations(result) == [
            "capacity: job 0 at t=0.0: starts with 6 > 4 cores busy"
        ]

    def test_leaf_oversubscription(self):
        """Six cores fit the flat 8-core machine but not one 4-core leaf."""
        args = ([0.0, 0.0], [10.0, 10.0], [3, 3], [0.0, 0.0])
        assert _violations(_schedule(*args, nmax=8)) == []
        result = _schedule(*args, nmax=8, topology=(2,), leaf=[0, 0])
        assert _violations(result) == [
            "capacity (leaf 0): job 0 at t=0.0: starts with 6 > 4 cores busy"
        ]

    def test_non_prefix_start(self):
        # J1 (4 cores) waits behind J0, and J2 must not jump it
        result = _schedule(
            [0.0, 0.0, 0.0], [10.0, 10.0, 1.0], [2, 4, 1], [0.0, 10.0, 0.0],
            nmax=4,
        )
        assert _violations(result) == [
            "prefix: job 2 at t=0.0: starts behind waiting job 1"
        ]

    def test_idle_head_that_fits(self):
        result = _schedule([0.0, 0.0], [5.0, 5.0], [2, 2], [0.0, 5.0], nmax=4)
        assert _violations(result) == [
            "head: job 1 at t=0.0: waits for 2 cores with 2 free"
        ]

    def test_easy_backfill_past_the_shadow(self):
        # J2 runs to 20, past J1's shadow at 10, with no extra cores
        result = _schedule(
            [0.0, 0.0, 0.0], [10.0, 5.0, 20.0], [3, 4, 1], [0.0, 20.0, 0.0],
            nmax=4, backfill="easy", backfilled=[False, False, True],
        )
        assert _violations(result) == [
            "easy: job 2 at t=0.0: runs past the shadow at 10.0"
            " beyond the 0 extra cores"
        ]

    @pytest.mark.parametrize(
        "flags, job, marked",
        [([False, False, False], 2, False), ([True, False, True], 0, True)],
    )
    def test_wrong_backfilled_flag(self, flags, job, marked):
        result = _schedule(
            [0.0, 0.0, 0.0], [10.0, 5.0, 5.0], [3, 4, 1], [0.0, 10.0, 0.0],
            nmax=4, backfill="easy", backfilled=flags,
        )
        assert _violations(result) == [
            f"backfilled: job {job} at t=0.0: marked {marked}"
        ]

    @pytest.mark.parametrize("mode", ["conservative", "hybrid"])
    def test_start_the_replan_does_not_choose(self, mode):
        # J2 (2 cores for 20 s) would delay J1's reservation at t=10
        result = _schedule(
            [0.0, 0.0, 0.0], [10.0, 10.0, 20.0], [2, 4, 2], [0.0, 20.0, 0.0],
            nmax=4, backfill=mode, backfilled=[False, False, True],
        )
        assert _violations(result) == [
            "replan: job 2 at t=0.0: starts, against the replan"
        ]

    def test_dynamic_policy_is_rescored(self):
        """At t=10 WFP3 puts short J2 ahead of J1, which FCFS would not."""
        from repro.policies.adhoc import WFP3

        wl = Workload.from_arrays([0.0, 1.0, 2.0], [10.0, 100.0, 1.0], [4, 4, 4])
        result = simulate(wl, WFP3(), 4)
        assert result.start.tolist() == [0.0, 11.0, 10.0]
        assert check_schedule(result, WFP3()) == []
        assert check_schedule(result, FCFS()) == [
            "head: job 1 at t=10.0: waits for 4 cores with 4 free",
            "prefix: job 2 at t=10.0: starts behind waiting job 1",
        ]
