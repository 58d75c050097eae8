"""Tests for the fixed-priority trial simulator (repro.sim.listsched)."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import _cbackend
from repro.sim.listsched import simulate_fixed_priority_batch, simulate_trials

SRC = Path(__file__).resolve().parents[1] / "src"
KERNELS = ["python"] + (["c"] if _cbackend.load() is not None else [])


def simulate_one(submit, runtime, size, priority, nmax):
    """One trial: a one-row priority batch."""
    return simulate_fixed_priority_batch(
        submit, runtime, size, np.asarray(priority, float)[None, :], nmax
    )[0]


def starts(submit, runtime, size, priority, nmax):
    return simulate_one(
        np.asarray(submit, float),
        np.asarray(runtime, float),
        np.asarray(size, int),
        np.asarray(priority, float),
        nmax,
    )


class TestBasics:
    def test_empty(self):
        out = simulate_one(
            np.array([]), np.array([]), np.array([]), np.array([]), 4
        )
        assert len(out) == 0

    def test_single_job_starts_at_submit(self):
        out = starts([5.0], [10.0], [2], [0], 4)
        assert out[0] == 5.0

    def test_sequential_when_machine_full(self):
        out = starts([0.0, 0.0], [10.0, 10.0], [4, 4], [0, 1], 4)
        np.testing.assert_array_equal(out, [0.0, 10.0])

    def test_parallel_when_fits(self):
        out = starts([0.0, 0.0], [10.0, 10.0], [2, 2], [0, 1], 4)
        np.testing.assert_array_equal(out, [0.0, 0.0])

    def test_priority_reorders(self):
        # Lower priority value runs first even if submitted later (after arrival).
        out = starts([0.0, 0.0], [10.0, 10.0], [4, 4], [1, 0], 4)
        np.testing.assert_array_equal(out, [10.0, 0.0])

    def test_head_blocking_no_backfill(self):
        """A small job never overtakes a blocked higher-priority job."""
        # J0 occupies 3/4 cores until t=10; J1 (prio 1) needs 4 -> blocked;
        # J2 (prio 2) needs 1 and would fit, but must wait for J1.
        out = starts(
            [0.0, 0.0, 0.0], [10.0, 5.0, 1.0], [3, 4, 1], [0, 1, 2], 4
        )
        np.testing.assert_array_equal(out, [0.0, 10.0, 15.0])

    def test_not_yet_arrived_head_does_not_block(self):
        """The top-priority job cannot reserve the machine before arriving."""
        # J0 (prio 0) arrives at t=100; J1 (prio 1) arrives at 0 and runs now.
        out = starts([100.0, 0.0], [10.0, 10.0], [4, 4], [0, 1], 4)
        assert out[1] == 0.0
        assert out[0] == 100.0

    def test_arrived_head_preempts_queue_position(self):
        """Once a late high-priority job arrives it jumps the waiting queue."""
        # machine busy until t=20 (J0); J1 arrives t=1 (prio 2), J2 arrives
        # t=5 (prio 1).  At t=20 J2 runs first despite arriving later.
        out = starts(
            [0.0, 1.0, 5.0], [20.0, 5.0, 5.0], [4, 4, 4], [0, 2, 1], 4
        )
        np.testing.assert_array_equal(out, [0.0, 25.0, 20.0])

    def test_ties_broken_by_submit_then_index(self):
        out = starts([0.0, 0.0], [5.0, 5.0], [4, 4], [0, 0], 4)
        np.testing.assert_array_equal(out, [0.0, 5.0])

    def test_oversized_job_rejected_with_job_named(self):
        with pytest.raises(ValueError, match=r"job 0 needs 8 cores"):
            starts([0.0], [1.0], [8], [0], 4)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            simulate_one(
                np.array([0.0]), np.array([1.0]), np.array([1, 2]), np.array([0]), 4
            )

    def test_idle_gap_jumps_to_next_arrival(self):
        out = starts([0.0, 1000.0], [5.0, 5.0], [1, 1], [0, 1], 4)
        np.testing.assert_array_equal(out, [0.0, 1000.0])


class TestProperties:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_schedule_validity(self, data):
        n = data.draw(st.integers(2, 25))
        nmax = data.draw(st.integers(1, 8))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
        submit = np.sort(rng.uniform(0, 50, n))
        runtime = rng.uniform(0.5, 20, n)
        size = rng.integers(1, nmax + 1, n)
        priority = rng.permutation(n).astype(float)
        out = starts(submit, runtime, size, priority, nmax)
        # every job starts after its arrival
        assert np.all(out >= submit - 1e-9)
        # no oversubscription at any event
        events = sorted(
            [(s, int(k)) for s, k in zip(out, size)]
            + [(s + r, -int(k)) for s, r, k in zip(out, runtime, size)],
            key=lambda e: (e[0], e[1]),
        )
        used = 0
        for _, delta in events:
            used += delta
            assert used <= nmax

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**16))
    def test_work_conserving_single_core_no_idle(self, seed):
        """On 1 core with all jobs at t=0, the machine never idles."""
        rng = np.random.default_rng(seed)
        n = 8
        runtime = rng.uniform(1, 10, n)
        out = starts(np.zeros(n), runtime, np.ones(n, int), rng.permutation(n), 1)
        order = np.argsort(out)
        finish = out + runtime
        assert out[order[0]] == 0.0
        for a, b in zip(order[:-1], order[1:]):
            assert out[b] == pytest.approx(finish[a])

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**16))
    def test_priority_zero_starts_first_among_simultaneous(self, seed):
        rng = np.random.default_rng(seed)
        n = 10
        runtime = rng.uniform(1, 10, n)
        size = rng.integers(1, 5, n)
        priority = rng.permutation(n).astype(float)
        out = starts(np.zeros(n), runtime, size, priority, 4)
        head = int(np.argmin(priority))
        assert out[head] == pytest.approx(out.min())


def _run_entry(entry, submit, runtime, size, nmax):
    """Two jobs through one public entry: a one-row priority batch, or
    one permutation trial with job 0 as the warm-up set."""
    if entry == "batch":
        return simulate_fixed_priority_batch(
            submit, runtime, size, np.array([[0.0, 1.0]]), nmax
        )
    return simulate_trials(submit, runtime, size, np.array([[0]]), nmax, n_warm=1)


#: Malformed second job -> the error naming it (Workload's rules).
BAD_JOBS = {
    "negative_submit": ([0.0, -1.0], [1.0, 1.0], [1, 1], r"job 1: submit must be finite and >= 0, got -1\.0"),
    "inf_runtime": ([0.0, 0.0], [1.0, np.inf], [1, 1], r"job 1: runtime must be finite and > 0, got inf"),
    "negative_runtime": ([0.0, 0.0], [1.0, -3.0], [1, 1], r"job 1: runtime must be finite and > 0, got -3\.0"),
    "zero_runtime": ([0.0, 0.0], [1.0, 0.0], [1, 1], r"job 1: runtime must be finite and > 0, got 0\.0"),
    "zero_size": ([0.0, 0.0], [1.0, 1.0], [1, 0], r"job 1: size must be >= 1, got 0"),
    "negative_size": ([0.0, 0.0], [1.0, 1.0], [1, -2], r"job 1: size must be >= 1, got -2"),
    # cast to int64, these used to become 2 (oversubscribing) or fail unnamed
    "fractional_size": ([0.0, 0.0], [1.0, 1.0], [1.0, 2.5], r"job 1: size must be a finite whole number, got 2\.5"),
    "nan_size": ([0.0, 0.0], [1.0, 1.0], [1.0, np.nan], r"job 1: size must be a finite whole number, got nan"),
    "inf_size": ([0.0, 0.0], [1.0, 1.0], [1.0, np.inf], r"job 1: size must be a finite whole number, got inf"),
}

#: A NaN runtime never completes in the C loop and a NaN submit never
#: arrives in the Python one, so unchecked these spin: run them in a
#: child process that a timeout can kill.
_NAN_JOBS = """
import numpy as np
from repro.sim.listsched import simulate_fixed_priority_batch, simulate_trials
size = np.ones(2, dtype=np.int64)
for sub, run in (
    (np.zeros(2), np.array([1.0, np.nan])),
    (np.array([0.0, np.nan]), np.ones(2)),
):
    for call in (
        lambda: simulate_fixed_priority_batch(sub, run, size, np.array([[0.0, 1.0]]), 1),
        lambda: simulate_trials(sub, run, size, np.array([[0]]), 1, n_warm=1),
    ):
        try:
            print("returned", call())
        except ValueError as exc:
            print(exc)
"""


@pytest.mark.parametrize("kernel", KERNELS)
class TestJobValidation:
    @pytest.mark.parametrize("entry", ["batch", "trials"])
    @pytest.mark.parametrize("case", sorted(BAD_JOBS))
    def test_bad_job_named(self, monkeypatch, kernel, entry, case):
        monkeypatch.setenv("REPRO_SIM_KERNEL", kernel)
        submit, runtime, size, match = BAD_JOBS[case]
        with pytest.raises(ValueError, match=match):
            _run_entry(
                entry, np.array(submit), np.array(runtime), np.array(size), 4
            )

    @pytest.mark.parametrize("entry", ["batch", "trials"])
    @pytest.mark.parametrize(
        "nmax, error, match",
        [(2.5, TypeError, "nmax must be an integer, got float"),
         (0, ValueError, "nmax must be > 0, got 0")],
    )
    def test_bad_nmax(self, monkeypatch, kernel, entry, nmax, error, match):
        monkeypatch.setenv("REPRO_SIM_KERNEL", kernel)
        with pytest.raises(error, match=match):
            _run_entry(entry, np.zeros(2), np.ones(2), np.ones(2, int), nmax)

    def test_fractional_sizes_not_truncated(self, monkeypatch, kernel):
        """Two 2.5-core jobs on 4 cores once both started at 0 (5 cores)."""
        monkeypatch.setenv("REPRO_SIM_KERNEL", kernel)
        with pytest.raises(ValueError, match=r"job 0: size must be a finite whole number, got 2\.5"):
            simulate_fixed_priority_batch(
                np.zeros(2), np.ones(2), np.array([2.5, 2.5]), [[0.0, 1.0]], 4
            )

    def test_whole_float_sizes_accepted(self, monkeypatch, kernel):
        monkeypatch.setenv("REPRO_SIM_KERNEL", kernel)
        floats = _run_entry("batch", np.zeros(2), np.ones(2), np.array([3.0, 2.0]), 4)
        ints = _run_entry("batch", np.zeros(2), np.ones(2), np.array([3, 2]), 4)
        np.testing.assert_array_equal(floats, ints)
        np.testing.assert_array_equal(floats, [[0.0, 1.0]])

    def test_numpy_integer_nmax_accepted(self, monkeypatch, kernel):
        monkeypatch.setenv("REPRO_SIM_KERNEL", kernel)
        out = _run_entry("batch", np.zeros(2), np.ones(2), np.ones(2, int), np.int64(1))
        np.testing.assert_array_equal(out, [[0.0, 1.0]])

    def test_nan_job_named_not_hung(self, kernel):
        proc = subprocess.run(
            [sys.executable, "-c", _NAN_JOBS],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(SRC), "REPRO_SIM_KERNEL": kernel},
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [
            "job 1: runtime must be finite and > 0, got nan"
        ] * 2 + ["job 1: submit must be finite and >= 0, got nan"] * 2
