"""Theorem-backed oracle tests for the engine.

Classical single-machine scheduling results give exact, provable
expectations the simulator must honour — stronger evidence than
cross-implementation agreement because the oracle is pencil-and-paper.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.policies.classic import FCFS, LPT, SPT
from repro.sim.engine import simulate
from repro.sim.job import Workload
from repro.sim.metrics import waiting_times

runtimes_strategy = st.lists(
    st.floats(min_value=0.5, max_value=100.0), min_size=2, max_size=12
)


def single_core_batch(runtimes):
    """All jobs released at t=0 on a 1-core machine."""
    n = len(runtimes)
    return Workload.from_arrays(
        submit=np.zeros(n),
        runtime=np.asarray(runtimes, dtype=float),
        size=np.ones(n, dtype=int),
    )


def flows(wl, result):
    """Flow (turnaround) time per job: wait + runtime."""
    return waiting_times(wl.submit, result.start) + wl.runtime


class TestSptOptimality:
    """1 | r_j = 0 | sum C_j : SPT minimises total completion time."""

    @settings(max_examples=60, deadline=None)
    @given(runtimes_strategy)
    def test_spt_beats_fcfs_on_mean_flow(self, runtimes):
        wl = single_core_batch(runtimes)
        spt = simulate(wl, SPT(), 1)
        fcfs = simulate(wl, FCFS(), 1)
        flow_spt = flows(wl, spt).mean()
        flow_fcfs = flows(wl, fcfs).mean()
        assert flow_spt <= flow_fcfs + 1e-9

    @settings(max_examples=60, deadline=None)
    @given(runtimes_strategy)
    def test_spt_beats_lpt_on_mean_flow(self, runtimes):
        wl = single_core_batch(runtimes)
        spt = simulate(wl, SPT(), 1)
        lpt = simulate(wl, LPT(), 1)
        flow_spt = flows(wl, spt).mean()
        flow_lpt = flows(wl, lpt).mean()
        assert flow_spt <= flow_lpt + 1e-9

    def test_exact_smith_value(self):
        """Closed-form check: runtimes 1,2,3 under SPT give flows 1,3,6."""
        wl = single_core_batch([3.0, 1.0, 2.0])
        result = simulate(wl, SPT(), 1)
        assert sorted(flows(wl, result).tolist()) == [1.0, 3.0, 6.0]


class TestMakespanInvariance:
    """1 || C_max : makespan is sequence-independent on one core."""

    @settings(max_examples=40, deadline=None)
    @given(runtimes_strategy)
    def test_makespan_equal_across_policies(self, runtimes):
        wl = single_core_batch(runtimes)
        makespans = {
            policy.name: simulate(wl, policy, 1).makespan
            for policy in (FCFS(), SPT(), LPT())
        }
        values = list(makespans.values())
        assert max(values) - min(values) < 1e-6
        assert values[0] == pytest.approx(sum(runtimes))


class TestWorkConservation:
    """With all jobs released at t=0 and unit sizes, an m-core machine
    keeps every core busy until fewer than m jobs remain (list
    scheduling is work-conserving)."""

    @settings(max_examples=40, deadline=None)
    @given(runtimes_strategy, st.integers(2, 4))
    def test_total_idle_bounded(self, runtimes, m):
        wl = Workload.from_arrays(
            submit=np.zeros(len(runtimes)),
            runtime=np.asarray(runtimes, dtype=float),
            size=np.ones(len(runtimes), dtype=int),
        )
        result = simulate(wl, FCFS(), m)
        # Graham bound: C_max <= sum/m + max
        assert result.makespan <= sum(runtimes) / m + max(runtimes) + 1e-9

    @settings(max_examples=40, deadline=None)
    @given(runtimes_strategy)
    def test_no_idle_before_last_start_single_core(self, runtimes):
        wl = single_core_batch(runtimes)
        result = simulate(wl, SPT(), 1)
        order = np.argsort(result.start)
        finish = result.start + wl.runtime
        for a, b in zip(order[:-1], order[1:]):
            assert result.start[b] == pytest.approx(finish[a])


class TestFcfsMonotonicity:
    """Under FCFS with equal sizes, start times follow submit order."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**16), st.integers(1, 4))
    def test_starts_sorted_by_submit(self, seed, width):
        rng = np.random.default_rng(seed)
        n = 20
        wl = Workload.from_arrays(
            submit=np.sort(rng.uniform(0, 100, n)),
            runtime=rng.uniform(1, 30, n),
            size=np.full(n, width),
        )
        result = simulate(wl, FCFS(), width)  # machine fits exactly one job
        assert np.all(np.diff(result.start) >= -1e-9)
