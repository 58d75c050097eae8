"""Property-based cross-checks of the online engine.

Three equivalences anchor the simulator's correctness:

1. engine(FCFS) == fixed-priority list scheduler with priority = arrival
   order (the two independent implementations must agree exactly);
2. engine with an arbitrary static priority table == list scheduler with
   that priority (exercises queue reordering);
3. the static (sorted-insert) and dynamic (re-sort) queue paths of the
   engine produce identical schedules for the same policy.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.policies.adhoc import WFP3
from repro.policies.classic import FCFS, SPT
from repro.sim.check import check_schedule
from repro.sim.engine import simulate
from repro.sim.job import Workload
from repro.sim.listsched import simulate_fixed_priority_batch

from conftest import DynamicWrapper, TablePolicy, random_workload


def _draw_workload(data, max_n=30, max_nmax=8):
    n = data.draw(st.integers(1, max_n))
    nmax = data.draw(st.integers(1, max_nmax))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**20)))
    # Distinct submit times keep priority tables unambiguous.
    submit = np.cumsum(rng.uniform(0.01, 10.0, n))
    runtime = rng.uniform(0.5, 30.0, n)
    size = rng.integers(1, nmax + 1, n)
    wl = Workload.from_arrays(submit, runtime, size, nmax=nmax)
    return wl, nmax, rng


class TestEngineVsListScheduler:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_fcfs_equals_arrival_priority(self, data):
        wl, nmax, _ = _draw_workload(data)
        engine = simulate(wl, FCFS(), nmax)
        (listed,) = simulate_fixed_priority_batch(
            wl.submit, wl.runtime, wl.size, np.arange(len(wl), dtype=float)[None, :], nmax
        )
        np.testing.assert_allclose(engine.start, listed)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_arbitrary_priority_table(self, data):
        wl, nmax, rng = _draw_workload(data)
        priority = rng.permutation(len(wl)).astype(float)
        table = {float(s): float(p) for s, p in zip(wl.submit, priority)}
        engine = simulate(wl, TablePolicy(table), nmax)
        (listed,) = simulate_fixed_priority_batch(
            wl.submit, wl.runtime, wl.size, priority[None, :], nmax
        )
        np.testing.assert_allclose(engine.start, listed)


class TestStaticVsDynamicPath:
    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_paths_agree_for_static_policy(self, data):
        wl, nmax, _ = _draw_workload(data)
        static = simulate(wl, SPT(), nmax)
        dynamic = simulate(wl, DynamicWrapper(SPT()), nmax)
        np.testing.assert_allclose(static.start, dynamic.start)

    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_paths_agree_with_backfill(self, data):
        wl, nmax, _ = _draw_workload(data)
        static = simulate(wl, SPT(), nmax, backfill=True)
        dynamic = simulate(wl, DynamicWrapper(SPT()), nmax, backfill=True)
        np.testing.assert_allclose(static.start, dynamic.start)
        np.testing.assert_array_equal(static.backfilled, dynamic.backfilled)


class TestEngineInvariants:
    @settings(max_examples=50, deadline=None)
    @given(
        st.integers(0, 2**20),
        st.sampled_from([False, "easy", "conservative", "hybrid"]),
        st.sampled_from([FCFS, WFP3]),
    )
    def test_valid_schedule_all_modes(self, seed, backfill, policy_cls):
        rng = np.random.default_rng(seed)
        wl = random_workload(rng, n=40, nmax=8)
        policy = policy_cls()
        result = simulate(wl, policy, 8, backfill=backfill, use_estimates=True)
        assert check_schedule(result, policy) == []

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**20))
    def test_every_job_eventually_starts(self, seed):
        rng = np.random.default_rng(seed)
        wl = random_workload(rng, n=30, nmax=4)
        result = simulate(wl, SPT(), 4, backfill=True)
        assert np.all(np.isfinite(result.start))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**20))
    def test_backfilled_jobs_marked_only_with_backfill(self, seed):
        rng = np.random.default_rng(seed)
        wl = random_workload(rng, n=30, nmax=4)
        plain = simulate(wl, FCFS(), 4, backfill=False)
        assert plain.backfill_count == 0
