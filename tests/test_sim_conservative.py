"""Tests for conservative backfilling and the availability profile."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.policies.classic import FCFS
from repro.sim import _cbackend
from repro.sim.check import check_schedule
from repro.sim.conservative import AvailabilityProfile, conservative_starts
from repro.sim.engine import simulate
from repro.sim.job import Workload

from conftest import random_workload


def _reserve(profile, start, duration, size):
    """Reserve as the replan pass does: from the breakpoint at *start*."""
    profile._reserve_at(profile._ensure_breakpoint(start), start + duration, size)


def _earliest_start(profile, size, duration):
    return profile._times[profile._earliest(size, duration)]


class TestAvailabilityProfile:
    def test_empty_machine(self):
        p = AvailabilityProfile(0.0, 8, [], [])
        assert p._free == [8]
        assert _earliest_start(p, 8, 100.0) == 0.0

    def test_running_job_blocks(self):
        # 6 of 8 cores busy until 10: 4 cores wait, 2 start now
        assert conservative_starts(0.0, 8, [1], [4], [5.0], [10.0], [6]) == []
        assert conservative_starts(0.0, 8, [2], [2], [5.0], [10.0], [6]) == [2]
        assert conservative_starts(
            0.0, 8, [1, 2], [4, 2], [5.0, 5.0], [10.0], [6]
        ) == [2]

    def test_staircase(self):
        # 0 cores free now, 4 from 5, 8 from 10: 6 cores fit only at 10
        p = AvailabilityProfile(0.0, 8, [5.0, 10.0], [4, 4])
        assert p._times == [0.0, 5.0, 10.0] and p._free == [0, 4, 8]
        assert _earliest_start(p, 6, 1.0) == 10.0
        for now, end, size in ((0.0, [5.0, 10.0], [4, 4]), (5.0, [10.0], [4])):
            assert conservative_starts(now, 8, [1], [6], [1.0], end, size) == []
        assert conservative_starts(10.0, 8, [1], [6], [1.0], [], []) == [1]

    def test_oversubscribed_running_rejected(self):
        with pytest.raises(ValueError):
            AvailabilityProfile(0.0, 4, [10.0], [8])

    def test_reserve_consumes(self):
        # the head takes 6 of 8 cores over [0, 10): 4 more wait, 2 more fit
        assert conservative_starts(0.0, 8, [1, 2], [6, 4], [10.0, 5.0], [], []) == [1]
        assert conservative_starts(
            0.0, 8, [1, 2, 3], [6, 4, 2], [10.0, 5.0, 5.0], [], []
        ) == [1, 3]

    def test_hole_found_between_reservations(self):
        # 4 cores run until 10, so the 8-core head reserves [10, 20)
        queue, size, running = [1, 2], [8, 4], ([10.0], [4])
        # a job of duration <= 10 fits before the reservation
        assert conservative_starts(0.0, 8, queue, size, [10.0, 10.0], *running) == [2]
        # longer jobs must wait until after it
        assert conservative_starts(0.0, 8, queue, size, [10.0, 11.0], *running) == []

    def test_oversized_request(self):
        """An oversize job never reaches the profile: the engine refuses it."""
        wl = Workload.from_arrays([0.0], [1.0], [8])
        with pytest.raises(ValueError, match="needs 8 cores but the machine has only 4"):
            simulate(wl, FCFS(), 4, backfill="conservative")

    def test_overlapping_reservation_guard(self):
        p = AvailabilityProfile(0.0, 4, [], [])
        _reserve(p, 0.0, 10.0, 4)
        with pytest.raises(RuntimeError):
            _reserve(p, 5.0, 2.0, 1)


class TestConservativeStarts:
    def test_head_starts_when_fits(self):
        started = conservative_starts(0.0, 4, [7], [2], [10.0], [], [])
        assert started == [7]

    def test_backfill_into_hole(self):
        # running: 3 cores until t=10. head needs 4 -> reserved at 10.
        # short 1-core job fits now without delaying the head.
        started = conservative_starts(
            0.0, 4, [1, 2], [4, 1], [100.0, 5.0], [10.0], [3]
        )
        assert started == [2]

    def test_strictness_versus_easy(self):
        """A job that EASY admits (fits in `extra`) is refused when it
        would delay the *second* queued job's reservation."""
        # running: 2 cores until t=10; free=2.
        # head needs 4 -> starts at 10. second job needs 2, duration 10:
        # conservative reserves it at t=10.. wait: at t=10 head takes 4
        # of 4 -> second waits until 10+100. A 2-core long backfill
        # candidate would NOT delay the head (extra=0 under EASY -> also
        # refused there), but a 1-core long candidate delays nobody under
        # EASY; conservative refuses it if it pushes the second job.
        started = conservative_starts(
            0.0,
            4,
            [1, 2, 3],
            [4, 2, 1],
            [100.0, 5.0, 200.0],
            [10.0],
            [2],
        )
        # head (1) reserved at t=10; job 2 reserved at t=110 (after head);
        # hmm job 2 (2 cores, 5s) could run at t=0 in the 2 free cores
        # without delaying the head -> starts now.
        assert 2 in started
        assert 1 not in started

    def test_empty_queue(self):
        assert conservative_starts(0.0, 4, [], [], [], [], []) == []


class TestEngineConservativeMode:
    def test_mode_validation(self):
        wl = Workload.from_arrays([0.0], [1.0], [1])
        with pytest.raises(ValueError, match="backfill mode"):
            simulate(wl, FCFS(), 4, backfill="aggressive-ish")

    def test_hand_checked_scenario(self):
        """Conservative agrees with EASY on the worked example of
        test_sim_engine (no second-reservation conflicts there)."""
        wl = Workload.from_arrays(
            submit=[0.0, 1.0, 2.0, 2.0],
            runtime=[10.0, 10.0, 5.0, 20.0],
            size=[3, 4, 1, 1],
        )
        result = simulate(wl, FCFS(), 4, backfill="conservative")
        np.testing.assert_allclose(result.start, [0.0, 10.0, 2.0, 20.0])

    def test_conservative_never_delays_any_fcfs_reservation(self):
        """Strict invariant with exact runtimes: under conservative
        backfilling + FCFS, no job starts later than it would under
        plain FCFS (replan keeps all reservations at least as early)."""
        for seed in range(6):
            rng = np.random.default_rng(seed)
            wl = random_workload(rng, n=40, nmax=8)
            plain = simulate(wl, FCFS(), 8, backfill=False)
            cons = simulate(wl, FCFS(), 8, backfill="conservative")
            assert np.all(cons.start <= plain.start + 1e-6), f"seed {seed}"

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**16))
    def test_valid_schedules(self, seed):
        rng = np.random.default_rng(seed)
        wl = random_workload(rng, n=30, nmax=8)
        result = simulate(wl, FCFS(), 8, backfill="conservative", use_estimates=True)
        assert check_schedule(result, FCFS()) == []

    def test_true_means_easy(self):
        wl = Workload.from_arrays([0.0], [1.0], [1])
        r = simulate(wl, FCFS(), 4, backfill=True)
        assert r.config.backfill_mode == "easy"


BACKENDS = ["python"] + (["c"] if _cbackend.load() is not None else [])


class TestOverrunningJobs:
    """A running job past its estimate must not crash a replan pass.

    Its expected end lies before ``now``; the profile releases its cores
    just after ``now``, so the level at ``now`` stays the real free
    cores.  (Clamping the end to ``now`` put a second breakpoint at
    ``now`` that offered the overdue cores, and the reservation then
    oversubscribed the first one.)  ``tests/oracle_sim.py`` keeps that
    clamp frozen, so it is no reference here.
    """

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("mode", ["easy", "conservative", "hybrid"])
    def test_reproduction(self, monkeypatch, mode, backend):
        monkeypatch.setenv("REPRO_SIM_KERNEL", backend)
        wl = Workload.from_arrays(
            submit=[0.0, 60.0, 61.0],
            runtime=[100.0, 10.0, 10.0],
            size=[2, 4, 1],
            estimate=[50.0, 10.0, 10.0],
            nmax=4,
        )
        result = simulate(wl, FCFS(), 4, use_estimates=True, backfill=mode)
        assert result.start.tolist() == [0.0, 100.0, 110.0]
        assert check_schedule(result, FCFS()) == []

    def test_overdue_cores_free_just_after_now(self):
        running = ([50.0, 70.0], [2, 1])
        assert conservative_starts(60.0, 4, [1], [1], [5.0], *running) == [1]
        assert conservative_starts(60.0, 4, [2], [2], [5.0], *running) == []
        p = AvailabilityProfile(60.0, 4, *running)
        assert _earliest_start(p, 2, 5.0) == np.nextafter(60.0, np.inf)

    @pytest.mark.parametrize("mode", ["conservative", "hybrid"])
    def test_random_overruns(self, monkeypatch, mode):
        rng = np.random.default_rng([41, len(mode)])
        for _ in range(40):
            nmax = int(rng.choice([4, 16]))
            n = int(rng.integers(20, 80))
            submit = np.sort(np.round(rng.uniform(0.0, n * 2.0, n), 1))
            runtime = np.round(rng.uniform(1.0, 60.0, n), 2)
            # about half the jobs run past their estimate
            estimate = np.round(runtime * rng.uniform(0.3, 2.0, n), 2)
            wl = Workload.from_arrays(
                submit=submit, runtime=runtime,
                size=rng.integers(1, nmax + 1, n), estimate=estimate, nmax=nmax,
            )
            outs = []
            for backend in BACKENDS:
                monkeypatch.setenv("REPRO_SIM_KERNEL", backend)
                result = simulate(wl, FCFS(), nmax, use_estimates=True, backfill=mode)
                outs.append((result.start.tobytes(), result.backfilled.tobytes()))
            assert len(set(outs)) == 1
            assert check_schedule(result, FCFS()) == []


class TestBreakpointMerge:
    """The 1e-12 merge of ``_ensure_breakpoint`` (C's ``ensure_bp``)
    decides a start.

    At t=0 FCFS reserves job 0 (1 core) over [0, 1) and job 1 (1 core)
    over [0, 1 - 5e-13).  Job 1's end lies 5e-13 before job 0's, so it
    merges into that breakpoint and holds its core to 1.  Job 2 (3
    cores) then reserves at 1, and job 3 (2 cores, 1 + 7.5e-13 s)
    starts now: its window ends within the 1e-12 cut of 1.  Without the
    merge the profile frees job 1's core at 1 - 5e-13, job 2 reserves
    there, inside job 3's window, and job 3 waits until 4 - 5e-13.
    """

    END = 1.0 - 5e-13
    LONG = 1.0 + 7.5e-13

    def workload(self) -> Workload:
        return Workload.from_arrays(
            submit=[0.0] * 4, runtime=[1.0, self.END, 3.0, self.LONG],
            size=[1, 1, 3, 2], nmax=4,
        )

    def test_the_case_sits_inside_the_tolerance(self):
        assert 1e-13 <= 1.0 - self.END <= 1e-12
        assert self.END < self.LONG - 1e-12 <= 1.0

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_merged_end_lets_a_job_start_now(self, monkeypatch, backend):
        monkeypatch.setenv("REPRO_SIM_KERNEL", backend)
        result = simulate(self.workload(), FCFS(), 4, backfill="conservative")
        assert result.start.tolist() == [0.0, 0.0, self.LONG, 0.0]
        assert check_schedule(result, FCFS()) == []

    def test_profile_merges_the_end(self):
        p = AvailabilityProfile(0.0, 4, [], [])
        _reserve(p, 0.0, 1.0, 1)
        _reserve(p, 0.0, self.END, 1)
        assert p._times == [0.0, 1.0] and p._free == [2, 4]


def _instants(rng, base: float, k: int) -> list[float]:
    """*k* instants after *base*: integer, decimal-dust (sums of tenths,
    like ``0.1 + 0.2``) or a cluster 1e-13 to 3e-12 apart."""
    kind = rng.integers(3)
    if kind == 0:
        return (base + rng.integers(1, 40, k)).tolist()
    if kind == 1:
        tenths = rng.integers(1, 400, (k, 3)) / 10.0
        return [base + a + b + c for a, b, c in tenths.tolist()]
    anchor = base + float(rng.integers(1, 40)) + 0.1 + 0.2
    steps = rng.uniform(1e-13, 3e-12, k) * rng.integers(0, 3, k)
    return (anchor + np.cumsum(steps)).tolist()


class TestOracleFuzz:
    """Seeded fuzz of the replan pass (depth = queue length) against the
    frozen pre-kernel pass ``tests/oracle_sim._conservative_starts``.

    The oracle clamps an overdue end to now where the library releases
    the cores just after now, so the running sets here hold no overruns.
    Queues hold many jobs whose size equals the free cores, so a pass
    that stopped at ``smallest >= free`` would lose starts.
    """

    @pytest.mark.parametrize("seed", range(6))
    def test_same_starts_as_oracle(self, seed):
        from oracle_sim import _conservative_starts

        rng = np.random.default_rng([59, seed])
        for case in range(80):
            nmax = int(rng.choice([1, 4, 8, 16]))
            now = float(rng.choice([0.0, rng.integers(1, 5000), rng.uniform(0, 5000)]))
            running_end, running_size = [], []
            used = 0
            for end in _instants(rng, now, int(rng.integers(0, 12))):
                size = int(rng.integers(1, nmax + 1))
                if end > now and used + size <= nmax:
                    running_end.append(end)
                    running_size.append(size)
                    used += size
            n_q = int(rng.integers(0, 41))
            free = nmax - used
            q_size = np.where(
                rng.random(n_q) < 0.3, max(free, 1), rng.integers(1, nmax + 1, n_q)
            ).tolist()
            # durations that end on, or within 3e-12 of, other instants
            ends = running_end + _instants(rng, now, 6)
            q_proc = [
                max(float(rng.choice(ends)) - now, 0.5)
                + float(rng.choice([0.0, 1e-13, -1e-12, 2e-12, 0.25]))
                for _ in range(n_q)
            ]
            queue = rng.permutation(1000)[:n_q].tolist()
            args = (now, nmax, queue, q_size, q_proc, running_end, running_size)
            assert conservative_starts(*args) == _conservative_starts(*args), (
                f"seed {seed} case {case}"
            )
