"""Hybrid (K-reservation) backfilling: oracle cases and mode identities.

Hybrid sits between EASY and conservative: the first
``HYBRID_RESERVATION_DEPTH`` queue jobs get conservative-style
reservations, deeper jobs backfill opportunistically with none.  The
tests pin the algebra — ``depth >= len(queue)`` *is* conservative, and a
hand-computed scenario separates all three modes — plus the engine
integration (under ``REPRO_SIM_KERNEL=c`` hybrid runs in the C kernel,
byte-identical to the Python loop).
"""

from __future__ import annotations

import numpy as np
import pytest

from easy_reference import easy_backfill
from repro.policies.registry import get_policy
from repro.sim import _cbackend
from repro.sim.check import check_schedule
from repro.sim.conservative import HYBRID_RESERVATION_DEPTH, conservative_starts
from repro.sim.engine import normalize_backfill, simulate
from repro.sim.job import Workload

HAVE_C = _cbackend.load() is not None


class TestHybridOracle:
    """One scenario, hand-scheduled, that separates every mode.

    Machine of 6 cores at ``now=0``; running jobs end at t=5 (2 cores)
    and t=10 (3 cores), so 1 core is free.  Priority queue:

    * A — 6 cores for 2s (the blocked head; earliest full-drain t=10),
    * B — 3 cores for 4s (fits the [5, 10) window of 3 free cores),
    * C — 1 core for 6s (fits the single free core right now).

    EASY reserves only A (shadow t=10): C finishes at 6 <= 10, starts.
    Hybrid depth 1 reserves only A at [10, 12): C's [0, 6) window is
    untouched, C starts.  Hybrid depth 2 additionally reserves B at
    [5, 9) — C would collide with it, so C must wait.  Conservative
    reserves everything and agrees with depth 2.
    """

    NOW, NMAX = 0.0, 6
    RUN_END = [5.0, 10.0]
    RUN_SIZE = [2, 3]
    QUEUE = ["A", "B", "C"]
    Q_SIZE = [6, 3, 1]
    Q_PROC = [2.0, 4.0, 6.0]

    def _hybrid(self, depth: int) -> list[str]:
        return conservative_starts(
            self.NOW,
            self.NMAX,
            self.QUEUE,
            self.Q_SIZE,
            self.Q_PROC,
            self.RUN_END,
            self.RUN_SIZE,
            depth=depth,
        )

    def test_easy_starts_the_thin_job(self):
        started = easy_backfill(
            self.NOW,
            1,  # free cores
            self.Q_SIZE[0],
            self.QUEUE[1:],
            self.Q_SIZE[1:],
            self.Q_PROC[1:],
            self.RUN_END,
            self.RUN_SIZE,
        )
        assert started == ["C"]

    def test_depth_one_behaves_like_easy_here(self):
        assert self._hybrid(1) == ["C"]

    def test_depth_two_protects_the_middle_reservation(self):
        assert self._hybrid(2) == []

    def test_conservative_agrees_with_full_depth(self):
        conservative = conservative_starts(
            self.NOW,
            self.NMAX,
            self.QUEUE,
            self.Q_SIZE,
            self.Q_PROC,
            self.RUN_END,
            self.RUN_SIZE,
        )
        assert conservative == []
        assert self._hybrid(len(self.QUEUE)) == conservative

    def test_depth_below_one_rejected(self):
        with pytest.raises(ValueError, match="depth must be >= 1"):
            self._hybrid(0)


class TestFullDepthIdentity:
    """``conservative_starts(depth >= len(queue))`` equals the default
    ``depth=None`` on randomized queues — epsilon for epsilon."""

    def test_random_queues(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            nmax = int(rng.integers(2, 32))
            n_run = int(rng.integers(0, 4))
            # Running jobs must fit the machine: draw each size from the
            # capacity that is still unclaimed.
            run_size = []
            free = nmax
            for _ in range(n_run):
                if free < 1:
                    break
                s = int(rng.integers(1, free + 1))
                run_size.append(s)
                free -= s
            run_end = np.round(
                rng.uniform(0.5, 20.0, size=len(run_size)), 2
            ).tolist()
            n_q = int(rng.integers(1, 8))
            queue = list(range(n_q))
            q_size = rng.integers(1, nmax + 1, size=n_q).tolist()
            q_proc = np.round(rng.uniform(0.1, 15.0, size=n_q), 2).tolist()
            args = (0.0, nmax, queue, q_size, q_proc, run_end, run_size)
            full = conservative_starts(*args, depth=None)
            assert conservative_starts(*args, depth=n_q) == full
            assert conservative_starts(*args, depth=n_q + 5) == full


class TestEngineIntegration:
    def test_mode_token_canonicalisation(self):
        assert normalize_backfill("hybrid") == "hybrid"
        with pytest.raises(ValueError):
            normalize_backfill("hybridd")

    def _small_workloads(self, count: int = 8):
        """Workloads short enough that the queue never exceeds the
        reservation depth, making hybrid provably conservative."""
        rng = np.random.default_rng(31)
        for _ in range(count):
            n = int(rng.integers(1, HYBRID_RESERVATION_DEPTH + 1))
            submit = np.sort(np.round(rng.uniform(0, 10, n), 1))
            runtime = np.round(rng.uniform(0.5, 20.0, n), 2)
            size = rng.integers(1, 9, n)
            yield Workload.from_arrays(submit=submit, runtime=runtime, size=size)

    @pytest.mark.parametrize("policy_name", ["fcfs", "unicef"])
    def test_small_queues_match_conservative(self, policy_name):
        policy = get_policy(policy_name)
        for w in self._small_workloads():
            hybrid = simulate(w, policy, 8, backfill="hybrid")
            conservative = simulate(w, policy, 8, backfill="conservative")
            assert check_schedule(hybrid, policy) == []
            assert check_schedule(conservative, policy) == []
            assert hybrid.start.tobytes() == conservative.start.tobytes()
            assert hybrid.backfilled.tobytes() == conservative.backfilled.tobytes()

    def test_hybrid_diverges_from_easy_and_conservative_at_scale(self):
        """On a long congested workload the three modes genuinely differ
        (otherwise the new mode would be a synonym)."""
        rng = np.random.default_rng(7)
        n = 300
        w = Workload.from_arrays(
            submit=np.sort(np.round(rng.uniform(0, 50, n), 1)),
            runtime=np.round(rng.uniform(1.0, 60.0, n), 2),
            size=rng.integers(1, 17, n),
        )
        policy = get_policy("f2")
        outs = {}
        for mode in ("easy", "hybrid", "conservative"):
            result = simulate(w, policy, 16, backfill=mode)
            assert check_schedule(result, policy) == []
            outs[mode] = result.start.tobytes()
        assert outs["hybrid"] != outs["easy"]
        assert outs["hybrid"] != outs["conservative"]

    @pytest.mark.skipif(not HAVE_C, reason="no C toolchain on this host")
    def test_c_backend_runs_hybrid(self, monkeypatch):
        """Under REPRO_SIM_KERNEL=c hybrid runs in the C kernel (the
        Python loop is never entered), byte-identical to an explicit
        python run."""
        from repro.sim import kernel

        rng = np.random.default_rng(3)
        w = Workload.from_arrays(
            submit=np.sort(np.round(rng.uniform(0, 20, 60), 1)),
            runtime=np.round(rng.uniform(0.5, 30.0, 60), 2),
            size=rng.integers(1, 9, 60),
        )
        policy = get_policy("fcfs")
        monkeypatch.setenv("REPRO_SIM_KERNEL", "python")
        want = simulate(w, policy, 8, backfill="hybrid")
        monkeypatch.setenv("REPRO_SIM_KERNEL", "c")

        def no_python_loop(*args, **kwargs):
            raise AssertionError("hybrid run fell back to the Python loop")

        monkeypatch.setattr(kernel, "_simulate_py", no_python_loop)
        got = simulate(w, policy, 8, backfill="hybrid")
        assert check_schedule(want, policy) == []
        assert check_schedule(got, policy) == []
        assert got.start.tobytes() == want.start.tobytes()
        assert got.backfilled.tobytes() == want.backfilled.tobytes()
        assert got.n_events == want.n_events
