"""Randomized bit-parity: the unified kernel vs the frozen legacy loops.

``tests/oracle_sim.py`` holds verbatim copies of the pre-kernel
``engine.simulate`` / fixed-priority loops.  Every test here
compares kernel output against the oracle **bitwise** (``tobytes``), not
approximately: bit-identical results are the refactor's acceptance bar
(the runtime layer's caching contract keys on exact bytes).

The sweep covers {static/dynamic policy} x {none/easy/conservative
backfill} x {actual/estimated runtimes} x nmax in {1, 17, 256} on seeded
random workloads, on every available kernel backend (pure Python always;
the compiled C backend when a toolchain is present).  Every schedule an
engine case produces must also follow its backfill mode's rules
(:func:`repro.sim.check.check_schedule`): agreement with the oracle
proves only that nothing changed.
"""

from __future__ import annotations

import re
import time
import zlib
from collections import Counter

import numpy as np
import pytest
from oracle_sim import oracle_fixed_priority, oracle_simulate

from repro.obs import MetricsRegistry, use_registry
from repro.policies.adhoc import UNICEF, WFP3
from repro.policies.base import KERNEL_WFP3, Policy
from repro.policies.registry import get_policy
from repro.sim import _cbackend, kernel
from repro.sim.check import check_schedule
from repro.sim.engine import (
    ScheduleResult,
    SimulationConfig,
    normalize_backfill,
    simulate,
)
from repro.sim.job import Workload
from repro.sim.kernel import simulate_events
from repro.sim.listsched import simulate_fixed_priority_batch

HAVE_C = _cbackend.load() is not None

#: Kernel backends to sweep: the pure-Python loop always; the compiled
#: backend whenever it is buildable on this host.
BACKENDS = ["python"] + (["c"] if HAVE_C else [])

POLICIES = ["fcfs", "f2", "wfp3", "unicef"]  # 2 static, 2 dynamic
MODES = [False, "easy", "conservative"]
NMAXES = [1, 17, 256]


def _random_workload(rng: np.random.Generator, n: int, nmax: int) -> Workload:
    """Bursty arrivals (duplicates likely), mixed runtimes and widths."""
    submit = np.sort(np.round(rng.uniform(0.0, n * 1.5, size=n), 1))
    runtime = np.round(rng.uniform(0.5, 80.0, size=n), 3)
    size = rng.integers(1, nmax + 1, size=n)
    estimate = runtime * rng.uniform(1.0, 5.0, size=n)
    return Workload.from_arrays(
        submit=submit, runtime=runtime, size=size, estimate=estimate, nmax=nmax
    )


def _kernel_outcome(
    workload, policy, nmax, *, use_estimates, backfill, check=True
):
    """Drive the kernel exactly the way engine.simulate does, and check
    the schedule against its backfill mode's rules (a run that is then
    compared bit for bit with a checked one may skip that)."""
    procs = workload.estimate if use_estimates else workload.runtime
    if policy.dynamic:
        scoring = dict(
            scorer=policy.scores, terms=policy.kernel_terms(procs, workload.size)
        )
    else:
        now = float(workload.submit[0]) if len(workload) else 0.0
        scoring = dict(
            static_scores=policy.scores(now, workload.submit, procs, workload.size)
        )
    out = simulate_events(
        workload.submit,
        workload.runtime,
        procs,
        workload.size,
        nmax,
        backfill=normalize_backfill(backfill),
        **scoring,
    )
    if check:
        config = SimulationConfig(nmax, use_estimates=use_estimates, backfill=backfill)
        result = ScheduleResult(
            workload, out.start, policy.name, config, out.backfilled
        )
        assert check_schedule(result, policy) == []
    return out


def _assert_bit_identical(got, want) -> None:
    assert got.start.tobytes() == want.start.tobytes()
    assert got.backfilled.tobytes() == want.backfilled.tobytes()
    assert got.n_events == want.n_events
    assert got.n_backfill_passes == want.n_backfill_passes


class TestEngineParity:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("nmax", NMAXES)
    @pytest.mark.parametrize("use_estimates", [False, True])
    @pytest.mark.parametrize("backfill", MODES)
    @pytest.mark.parametrize("policy_name", POLICIES)
    def test_random_sweep(
        self, monkeypatch, policy_name, backfill, use_estimates, nmax, backend
    ):
        monkeypatch.setenv("REPRO_SIM_KERNEL", backend)
        policy = get_policy(policy_name)
        rng = np.random.default_rng(
            zlib.crc32(repr((policy_name, str(backfill), use_estimates, nmax)).encode())
        )
        for trial in range(3):
            n = int(rng.integers(1, 50))
            w = _random_workload(rng, n, nmax)
            want = oracle_simulate(
                w, policy, nmax, use_estimates=use_estimates, backfill=backfill
            )
            got = _kernel_outcome(
                w, policy, nmax, use_estimates=use_estimates, backfill=backfill
            )
            _assert_bit_identical(got, want)

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("backfill", MODES)
    def test_all_simultaneous_arrivals(self, monkeypatch, backfill, backend):
        monkeypatch.setenv("REPRO_SIM_KERNEL", backend)
        rng = np.random.default_rng(7)
        policy = get_policy("spt")
        w = Workload.from_arrays(
            submit=np.zeros(40),
            runtime=np.round(rng.uniform(1.0, 50.0, 40), 2),
            size=rng.integers(1, 17, 40),
            nmax=16,
        )
        want = oracle_simulate(w, policy, 16, backfill=backfill)
        got = _kernel_outcome(
            w, policy, 16, use_estimates=False, backfill=backfill
        )
        _assert_bit_identical(got, want)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_one_job_and_empty(self, monkeypatch, backend):
        monkeypatch.setenv("REPRO_SIM_KERNEL", backend)
        policy = get_policy("fcfs")
        one = Workload.from_arrays(submit=[5.0], runtime=[3.0], size=[2], nmax=4)
        for backfill in MODES:
            want = oracle_simulate(one, policy, 4, backfill=backfill)
            got = _kernel_outcome(
                one, policy, 4, use_estimates=False, backfill=backfill
            )
            _assert_bit_identical(got, want)
        empty = Workload.from_arrays(submit=[], runtime=[], size=[], nmax=4)
        result = simulate(empty, policy, 4)
        assert result.start.size == 0 and result.n_events == 0

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_simulate_wrapper_matches_oracle(self, monkeypatch, backend):
        """The public engine.simulate (telemetry, ScheduleResult wiring)."""
        monkeypatch.setenv("REPRO_SIM_KERNEL", backend)
        rng = np.random.default_rng(11)
        w = _random_workload(rng, 60, 32)
        for policy_name in ("saf", "unicef"):
            policy = get_policy(policy_name)
            want = oracle_simulate(w, policy, 32, backfill="easy")
            registry = MetricsRegistry()
            with use_registry(registry):
                result = simulate(w, policy, 32, backfill="easy")
            assert check_schedule(result, policy) == []
            assert result.start.tobytes() == want.start.tobytes()
            assert result.backfilled.tobytes() == want.backfilled.tobytes()
            assert result.n_events == want.n_events
            # Telemetry counter names/semantics are part of the contract.
            assert registry.value("sim.runs") == 1
            assert registry.value("sim.events") == want.n_events
            assert registry.value("sim.jobs_completed") == len(w)
            assert registry.value("sim.backfill_passes") == want.n_backfill_passes
            assert registry.value("sim.backfilled") == int(want.backfilled.sum())


class TestListschedParity:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("nmax", NMAXES)
    def test_random_priorities(self, monkeypatch, nmax, backend):
        monkeypatch.setenv("REPRO_SIM_KERNEL", backend)
        rng = np.random.default_rng(nmax)
        for trial in range(5):
            m = int(rng.integers(1, 60))
            submit = np.round(rng.uniform(0.0, m * 2.0, m), 1)  # unsorted
            runtime = np.round(rng.uniform(0.5, 40.0, m), 2)
            size = rng.integers(1, nmax + 1, m)
            # Coarse priorities so ties (equal priority, equal submit)
            # actually occur and exercise the index tie-break.
            priority = rng.integers(0, 4, m).astype(float)
            want = oracle_fixed_priority(submit, runtime, size, priority, nmax)
            (got,) = simulate_fixed_priority_batch(
                submit, runtime, size, priority[None, :], nmax
            )
            assert got.tobytes() == want.tobytes()

    def test_batch_telemetry_counts_each_row(self):
        rng = np.random.default_rng(1)
        m, n_trials = 10, 7
        submit = np.sort(rng.uniform(0, 10, m))
        runtime = rng.uniform(1, 5, m)
        size = rng.integers(1, 4, m)
        priorities = np.stack([rng.permutation(m).astype(float) for _ in range(n_trials)])
        registry = MetricsRegistry()
        with use_registry(registry):
            simulate_fixed_priority_batch(submit, runtime, size, priorities, 8)
        assert registry.value("listsched.trials") == n_trials
        assert registry.value("listsched.jobs") == n_trials * m


class TestNaNValidation:
    def test_fixed_priority_rejects_nan(self):
        submit = np.array([0.0, 1.0, 2.0, 3.0])
        runtime = np.ones(4)
        size = np.ones(4, dtype=np.int64)
        priority = np.array([[1.0, 2.0, np.nan, 4.0]])
        with pytest.raises(ValueError, match=r"priority for job 2 \(trial 0\) is NaN"):
            simulate_fixed_priority_batch(submit, runtime, size, priority, 4)

    def test_batch_rejects_nan_naming_trial(self):
        submit = np.array([0.0, 1.0])
        runtime = np.ones(2)
        size = np.ones(2, dtype=np.int64)
        priorities = np.array([[0.0, 1.0], [np.nan, 1.0], [1.0, 0.0]])
        with pytest.raises(ValueError, match=r"priority for job 0 \(trial 1\) is NaN"):
            simulate_fixed_priority_batch(submit, runtime, size, priorities, 4)

    def test_kernel_boundary_rejects_nan_scores(self):
        submit = np.array([0.0, 1.0, 2.0])
        runtime = np.ones(3)
        size = np.ones(3, dtype=np.int64)
        scores = np.array([0.5, np.nan, 1.5])
        with pytest.raises(ValueError, match="score for job 1 is NaN"):
            simulate_events(
                submit, runtime, runtime, size, 4, static_scores=scores
            )

    def test_engine_rejects_nan_scoring_policy(self, tiny_workload):
        from conftest import TablePolicy

        table = {float(s): 1.0 for s in tiny_workload.submit}
        table[float(tiny_workload.submit[0])] = float("nan")
        with pytest.raises(ValueError, match="is NaN"):
            simulate(tiny_workload, TablePolicy(table), 4)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_engine_rejects_nan_dynamic_policy(self, monkeypatch, backend):
        """A dynamic policy's NaN scores are rejected on every rescoring,
        naming a job whose score was NaN (they used to be sorted
        silently)."""
        from repro.workloads.lublin import lublin_workload

        monkeypatch.setenv("REPRO_SIM_KERNEL", backend)
        w = lublin_workload(200, 64, seed=3)
        nan_submits = w.submit[2::3]

        class EveryThirdNaN(Policy):
            name = "NAN3"
            dynamic = True

            def scores(self, now, submit, proc, size):
                return np.where(np.isin(submit, nan_submits), np.nan, submit - now)

        with pytest.raises(ValueError, match=r"score for job \d+ is NaN") as err:
            simulate(w, EveryThirdNaN(), 64)
        job = int(re.search(r"job (\d+)", str(err.value)).group(1))
        assert w.submit[job] in nan_submits

    @pytest.mark.parametrize(
        "a, b, match",
        [
            ([1.0, np.nan, 1.0], [1.0, 1.0, 1.0], "term a for job 1 is nan"),
            ([1.0, 1.0, 0.0], [1.0, 1.0, 1.0], "term a for job 2 is 0.0"),
            ([1.0, 1.0, 1.0], [np.inf, 1.0, 1.0], "term b for job 0 is inf"),
        ],
    )
    def test_kernel_terms_validated(self, a, b, match):
        submit = np.array([0.0, 1.0, 2.0])
        runtime = np.ones(3)
        size = np.ones(3, dtype=np.int64)
        with pytest.raises(ValueError, match=match):
            simulate_events(
                submit, runtime, runtime, size, 4, scorer=WFP3().scores,
                terms=(KERNEL_WFP3, np.array(a), np.array(b)),
            )


class TestBackfillPassCost:
    """Satellite: the per-pass Python list rebuilds are gone.

    The old engine rebuilt ``run_idx = list(expected_end)`` plus four
    per-candidate Python lists on *every* backfill pass.  With identical
    pass counts (bit-parity guarantees them), kernel wall-time per
    ``sim.backfill_passes`` must beat the legacy loop's on the same
    workload — measured A/B on this host, so the assertion is about the
    ratio, not absolute speed.
    """

    def test_wall_time_per_backfill_pass_improved(self):
        rng = np.random.default_rng(42)
        w = _random_workload(rng, 800, 32)
        policy = get_policy("fcfs")

        def run_kernel():
            registry = MetricsRegistry()
            with use_registry(registry):
                t0 = time.perf_counter()
                result = simulate(w, policy, 32, use_estimates=True, backfill="easy")
                elapsed = time.perf_counter() - t0
            return elapsed, registry.value("sim.backfill_passes"), result

        def run_oracle():
            t0 = time.perf_counter()
            out = oracle_simulate(w, policy, 32, use_estimates=True, backfill="easy")
            return time.perf_counter() - t0, out.n_backfill_passes, out

        simulate(w, policy, 32, use_estimates=True, backfill="easy")  # warm-up
        kernel_time, kernel_passes, result = min(
            (run_kernel() for _ in range(3)), key=lambda r: r[0]
        )
        oracle_time, oracle_passes, want = min(
            (run_oracle() for _ in range(3)), key=lambda r: r[0]
        )
        assert kernel_passes == oracle_passes > 0
        assert result.start.tobytes() == want.start.tobytes()
        assert check_schedule(result, policy) == []
        kernel_per_pass = kernel_time / kernel_passes
        oracle_per_pass = oracle_time / oracle_passes
        if _cbackend.selected() is not None:
            # The compiled path must be far past "no list rebuilds".
            assert kernel_per_pass < oracle_per_pass / 3
        else:
            # Pure Python still wins via the vectorised shadow + arrays,
            # but leave noise headroom on shared CI runners.
            assert kernel_per_pass < oracle_per_pass * 1.2


class TestCBackendGate:
    def test_invalid_backend_value_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_KERNEL", "fortran")
        with pytest.raises(ValueError, match="REPRO_SIM_KERNEL"):
            simulate_events(
                np.array([0.0]),
                np.array([1.0]),
                np.array([1.0]),
                np.array([1], dtype=np.int64),
                1,
                static_scores=np.array([0.0]),
            )

    @pytest.mark.skipif(not HAVE_C, reason="no C toolchain on this host")
    def test_c_backend_used_when_forced(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_KERNEL", "c")
        # a fall-back to the Python loop must not pass as the C backend
        monkeypatch.setattr(kernel, "_simulate_py", None)
        out = simulate_events(
            np.array([0.0, 0.0]),
            np.array([2.0, 2.0]),
            np.array([2.0, 2.0]),
            np.array([1, 1], dtype=np.int64),
            1,
            static_scores=np.array([0.0, 1.0]),
        )
        assert out.start.tolist() == [0.0, 2.0]


@pytest.mark.skipif(not HAVE_C, reason="no C toolchain on this host")
class TestDynamicPoliciesRunInC:
    """WFP3/UNICEF are scored inside the C loop, not by Python callbacks."""

    @staticmethod
    def _workload(seed: int) -> Workload:
        # sizes fit one 8-core leaf of the 2x2 topology on 32 cores
        rng = np.random.default_rng(seed)
        w = _random_workload(rng, 80, 8)
        return Workload.from_arrays(
            submit=w.submit, runtime=w.runtime, size=w.size,
            estimate=w.estimate, nmax=32,
        )

    @staticmethod
    def _count_scores(monkeypatch) -> Counter:
        calls: Counter = Counter()
        for cls in (WFP3, UNICEF):
            def counted(self, *args, _real=cls.scores, **kwargs):
                calls[type(self).__name__] += 1
                return _real(self, *args, **kwargs)

            monkeypatch.setattr(cls, "scores", counted)
        return calls

    def _assert_c_matches_python(self, monkeypatch, w, policy, **kwargs):
        """The C run never enters the Python loop or Python scoring, and
        its bytes equal the Python backend's."""
        monkeypatch.setenv("REPRO_SIM_KERNEL", "python")
        want = simulate(w, policy, 32, **kwargs)

        monkeypatch.setenv("REPRO_SIM_KERNEL", "c")
        calls = self._count_scores(monkeypatch)

        def no_python_loop(*args, **kwargs):
            raise AssertionError("run fell back to the Python loop")

        monkeypatch.setattr(kernel, "_simulate_py", no_python_loop)
        got = simulate(w, policy, 32, **kwargs)
        assert sum(calls.values()) == 0
        assert check_schedule(want, policy) == []
        assert check_schedule(got, policy) == []
        assert got.start.tobytes() == want.start.tobytes()
        assert got.backfilled.tobytes() == want.backfilled.tobytes()
        assert got.n_events == want.n_events

    @pytest.mark.parametrize("topology", [None, (2, 2)])
    @pytest.mark.parametrize("backfill", MODES)
    @pytest.mark.parametrize("policy_name", ["wfp3", "unicef"])
    def test_no_python_scoring(self, monkeypatch, policy_name, backfill, topology):
        self._assert_c_matches_python(
            monkeypatch,
            self._workload(len(policy_name) + len(str(backfill))),
            get_policy(policy_name),
            backfill=backfill, topology=topology, use_estimates=True,
        )

    @pytest.mark.parametrize("topology", [None, (2, 2)])
    @pytest.mark.parametrize("policy_name", ["fcfs", "f1", "wfp3", "unicef"])
    def test_hybrid_runs_in_c(self, monkeypatch, policy_name, topology):
        self._assert_c_matches_python(
            monkeypatch, self._workload(5), get_policy(policy_name),
            backfill="hybrid", topology=topology, use_estimates=True,
        )


@pytest.mark.skipif(not HAVE_C, reason="no C toolchain on this host")
class TestReplanParity:
    """C replan passes vs the Python full-replan reference.

    The C pass stops once no queued job fits the free cores, and under
    hybrid tests jobs beyond the reservation depth only at ``now``.
    Congested workloads keep queues far longer than the depth, so both
    shortcuts fire on most passes.
    """

    @pytest.mark.parametrize("use_estimates", [False, True])
    @pytest.mark.parametrize("backfill", ["conservative", "hybrid"])
    @pytest.mark.parametrize("policy_name", ["fcfs", "spt", "f1", "wfp3"])
    def test_congested_sweep(self, monkeypatch, policy_name, backfill, use_estimates):
        policy = get_policy(policy_name)
        rng = np.random.default_rng(
            [len(policy_name), len(backfill), int(use_estimates)]
        )
        for nmax in (8, 64):
            n = int(rng.integers(100, 200))
            w = _random_workload(rng, n, nmax)
            # arrivals five times faster than _random_workload's
            w = Workload.from_arrays(
                submit=np.round(w.submit / 5.0, 1), runtime=w.runtime,
                size=w.size, estimate=w.estimate, nmax=nmax,
            )
            kwargs = dict(use_estimates=use_estimates, backfill=backfill)
            monkeypatch.setenv("REPRO_SIM_KERNEL", "python")
            want = _kernel_outcome(w, policy, nmax, check=False, **kwargs)
            monkeypatch.setenv("REPRO_SIM_KERNEL", "c")
            with monkeypatch.context() as m:
                # a fall-back to the reference must not pass as parity
                m.setattr(kernel, "_simulate_py", None)
                got = _kernel_outcome(w, policy, nmax, **kwargs)
            _assert_bit_identical(got, want)
            assert got.backfilled.any()


class TestProfileDustRegression:
    """Near-equal availability-profile breakpoints must not crash.

    Two running jobs can end at floats closer than the profile's 1e-12
    equality tolerance (here 70.07 and 70.07000000000001).  Two bugs
    lurked behind that: the reservation's epsilon lower bound decremented
    the near-duplicate breakpoint *before* the reserved start (one the
    earliest-start scan never vetted — spurious "oversubscribes the
    profile"),
    and the starts-now test `t <= now + 1e-9` started jobs whose slot sat
    behind a release event that had not happened yet.  This workload used
    to crash every implementation; now all three must agree byte-for-byte.
    """

    SUBMIT = [1.0, 2.7, 3.3, 5.2, 5.2, 5.7, 9.5, 9.9, 10.2, 11.9, 15.1,
              18.1, 20.6, 20.6, 22.2, 24.0, 24.6, 25.7, 26.0, 27.3, 27.8,
              30.6, 30.9, 31.4, 34.1, 35.7, 36.5, 38.3, 43.1, 43.8, 45.1,
              47.1, 49.2, 51.0, 51.5]
    RUNTIME = [69.07, 57.095, 25.679, 54.883, 7.343, 64.063, 25.492, 2.932,
               49.895, 17.431, 19.647, 56.081, 30.392, 16.399, 20.392,
               76.435, 45.924, 54.723, 35.725, 42.862, 53.604, 8.985,
               34.967, 22.798, 61.453, 75.802, 6.536, 26.495, 9.551,
               20.348, 3.597, 76.181, 60.311, 78.682, 66.945]
    SIZE = [6, 166, 75, 29, 162, 41, 232, 40, 205, 245, 151, 17, 98, 56,
            242, 56, 151, 118, 29, 16, 251, 164, 77, 107, 103, 13, 176,
            145, 248, 228, 61, 103, 52, 209, 224]

    def _workload(self) -> Workload:
        return Workload.from_arrays(
            submit=np.array(self.SUBMIT),
            runtime=np.array(self.RUNTIME),
            size=np.array(self.SIZE, dtype=np.int64),
        )

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("mode", ["conservative", "hybrid"])
    def test_dust_breakpoints_schedule_cleanly(self, monkeypatch, mode, backend):
        monkeypatch.setenv("REPRO_SIM_KERNEL", backend)
        w = self._workload()
        policy = get_policy("fcfs")
        got = simulate(w, policy, 256, backfill=mode)
        assert check_schedule(got, policy) == []
        if mode == "conservative":
            want = oracle_simulate(w, policy, 256, backfill="conservative")
            assert got.start.tobytes() == want.start.tobytes()
            assert got.backfilled.tobytes() == want.backfilled.tobytes()
            assert got.n_events == want.n_events


@pytest.mark.skipif(not HAVE_C, reason="no C toolchain on this host")
class TestKeptOrders:
    """The orders the C kernel keeps instead of sorting per pass.

    The running set stays ordered by (expected end, size) across starts
    and completions, and WFP3/UNICEF queues are re-sorted from the
    previous pass's order by insertion, with a ``qsort`` fallback past a
    shift budget.  Each case pins one path where a kept order could
    drift from the sorted one: C must equal the Python kernel, and the
    frozen oracle wherever its rules apply (it clamps an overdue job's
    end to ``now`` in the replan modes too, a rule the kernels dropped).
    """

    @staticmethod
    def _outcomes(monkeypatch, w, policy, backfill, *, oracle=True):
        kwargs = dict(use_estimates=True, backfill=backfill)
        monkeypatch.setenv("REPRO_SIM_KERNEL", "python")
        want = _kernel_outcome(w, policy, w.nmax, check=False, **kwargs)
        monkeypatch.setenv("REPRO_SIM_KERNEL", "c")
        with monkeypatch.context() as m:
            # a fall-back to the reference must not pass as parity
            m.setattr(kernel, "_simulate_py", None)
            got = _kernel_outcome(w, policy, w.nmax, **kwargs)
        _assert_bit_identical(got, want)
        if oracle and backfill != "hybrid":
            ref = oracle_simulate(w, policy, w.nmax, **kwargs)
            _assert_bit_identical(got, ref)
        return got

    @staticmethod
    def _grid_workload(rng, n, nmax, *, overrun):
        """Integer times in arrival bursts: many running jobs tie on their
        expected end, often on (end, size) too; with *overrun* about half
        the jobs run past their estimate."""
        gaps = rng.choice([0.0, 0.0, 0.0, 1.0, 3.0], size=n)
        runtime = rng.integers(1, 30, size=n).astype(float)
        low = 0.3 if overrun else 1.0
        estimate = np.maximum(np.round(runtime * rng.uniform(low, 2.0, n)), 1.0)
        return Workload.from_arrays(
            submit=np.cumsum(gaps), runtime=runtime,
            size=rng.choice([1, 1, 2, 3, nmax // 2], size=n),
            estimate=estimate, nmax=nmax,
        )

    def test_easy_shadow_inside_the_overdue_prefix(self, monkeypatch):
        """At t=10 jobs 0 (end 5, 4 cores) and 1 (end 10 = now, 1 core)
        are overdue.  In size order the head (2 cores, 1 free) finds its
        shadow at now after job 1 with extra 0, so job 4 (1 core, too
        long for the shadow) must wait; in end order extra would be 3."""
        w = Workload.from_arrays(
            submit=[0.0, 0.0, 0.0, 10.0, 10.0],
            runtime=[100.0, 100.0, 100.0, 5.0, 50.0],
            size=[4, 1, 2, 2, 1],
            estimate=[5.0, 10.0, 200.0, 5.0, 50.0],
            nmax=8,
        )
        got = self._outcomes(monkeypatch, w, get_policy("fcfs"), "easy")
        assert got.start[4] > 10.0 and not got.backfilled[4]

    def test_running_jobs_tied_on_end_and_size(self, monkeypatch):
        """Jobs 0-3 share an expected end, 0-1 share (end, size) too, and
        complete at different times, so completions must remove one of
        several equal entries.  The head at t=5 takes its shadow from
        the tied group, whose size order sets extra."""
        w = Workload.from_arrays(
            submit=[0.0, 0.0, 0.0, 0.0, 5.0, 5.0, 5.0],
            runtime=[3.0, 20.0, 20.0, 20.0, 4.0, 30.0, 30.0],
            size=[2, 2, 3, 1, 5, 1, 1],
            estimate=[20.0, 20.0, 20.0, 20.0, 4.0, 30.0, 30.0],
            nmax=9,
        )
        for backfill in ("easy", "conservative", "hybrid"):
            self._outcomes(monkeypatch, w, get_policy("fcfs"), backfill)

    @pytest.mark.parametrize("backfill", ["conservative", "hybrid"])
    def test_replan_end_exactly_just_after_now(self, monkeypatch, backfill):
        """At t=10 job 0's expected end is nextafter(10, inf), the instant
        overdue job 1 (end 5) and job 2 (end 10 = now) clamp to: the
        three releases merge into one breakpoint.  The oracle clamps
        overdue ends to now, so only the two kernels are compared."""
        after = float(np.nextafter(10.0, np.inf))
        w = Workload.from_arrays(
            submit=[0.0, 0.0, 0.0, 10.0, 10.0, 10.0],
            runtime=[20.0, 20.0, 20.0, 5.0, 1.0, 3.0],
            size=[2, 1, 1, 3, 1, 2],
            estimate=[after, 5.0, 10.0, 5.0, 1.0, 3.0],
            nmax=5,
        )
        got = self._outcomes(
            monkeypatch, w, get_policy("fcfs"), backfill, oracle=False
        )
        assert got.start[4] == 10.0 and got.start[3] > 10.0

    @pytest.mark.parametrize("backfill", [False, "easy", "conservative", "hybrid"])
    @pytest.mark.parametrize("policy_name", ["fcfs", "wfp3", "unicef"])
    def test_random_bursts_and_overruns(self, monkeypatch, policy_name, backfill):
        rng = np.random.default_rng([28, len(policy_name), len(str(backfill))])
        policy = get_policy(policy_name)
        for overrun in (False, True):
            for nmax in (4, 16):
                w = self._grid_workload(rng, 120, nmax, overrun=overrun)
                self._outcomes(
                    monkeypatch, w, policy, backfill,
                    oracle=not (overrun and backfill == "conservative"),
                )

    @pytest.mark.parametrize("backfill", [False, "easy", "conservative", "hybrid"])
    @pytest.mark.parametrize("policy_name", ["wfp3", "unicef"])
    def test_reversed_queue_crosses_the_shift_budget(
        self, monkeypatch, policy_name, backfill
    ):
        """60 jobs arrive at t=1 behind a 7-of-8-core job.  With no wait
        yet every score is 0, so the queue sits in index order; at t=2
        the shorter, later jobs score first, which reverses it:
        60·59/2 shifts, far past 8 per queued job."""
        n = 60
        w = Workload.from_arrays(
            submit=[0.0] + [1.0] * n,
            runtime=[2.0] + [5.0] * n,
            size=[7] + [2] * n,
            estimate=[2.0] + [float(100 - k) for k in range(n)],
            nmax=8,
        )
        got = self._outcomes(monkeypatch, w, get_policy(policy_name), backfill)
        assert sorted(np.flatnonzero(got.start == 2.0)) == [57, 58, 59, 60]


@pytest.mark.skipif(not HAVE_C, reason="no C toolchain on this host")
class TestKeptPlan:
    """The conservative plan C keeps between events.

    Under conservative backfilling with static scores the C pass keeps
    its availability profile and reserved queue prefix from one event to
    the next, and rebuilds them only where a kept plan could differ from
    the Python kernel's full replan.  Each case drives one of those
    rebuild rules, or one path of the kept pass, through
    ``engine.simulate``: C must equal the Python kernel bit for bit,
    follow the conservative rule, and report its kept passes as
    ``sim.replans_kept``, which the Python kernel leaves at 0.
    """

    @staticmethod
    def _kept(monkeypatch, w, policy_name, *, backfill="conservative",
              use_estimates=False):
        """C's schedule, ``sim.replans_kept`` and ``sim.backfill_passes``."""
        policy = get_policy(policy_name)
        runs = {}
        for backend in ("python", "c"):
            monkeypatch.setenv("REPRO_SIM_KERNEL", backend)
            registry = MetricsRegistry()
            with monkeypatch.context() as m, use_registry(registry):
                if backend == "c":
                    # a fall-back to the reference must not pass as parity
                    m.setattr(kernel, "_simulate_py", None)
                result = simulate(
                    w, policy, w.nmax, backfill=backfill,
                    use_estimates=use_estimates,
                )
            runs[backend] = (result, registry)
        (want, want_reg), (got, got_reg) = runs["python"], runs["c"]
        assert check_schedule(got, policy) == []
        assert got.start.tobytes() == want.start.tobytes()
        assert got.backfilled.tobytes() == want.backfilled.tobytes()
        assert got.n_events == want.n_events
        passes = got_reg.value("sim.backfill_passes")
        assert passes == want_reg.value("sim.backfill_passes")
        assert want_reg.value("sim.replans_kept") == 0
        return got, got_reg.value("sim.replans_kept"), passes

    @staticmethod
    def _congested(rng, n, nmax, *, early=False):
        """Integer times in arrival bursts; with *early* every job's
        estimate exceeds its runtime."""
        runtime = rng.integers(1, 30, size=n).astype(float)
        return Workload.from_arrays(
            submit=np.cumsum(rng.choice([0.0, 0.0, 1.0, 2.0, 5.0], size=n)),
            runtime=runtime,
            size=rng.choice([1, 1, 2, 3, nmax // 2, nmax], size=n),
            estimate=runtime + rng.integers(1, 20, size=n) if early else runtime,
            nmax=nmax,
        )

    @pytest.mark.parametrize("nmax", [4, 16, 64])
    def test_fcfs_actual_runtimes_keep_every_later_pass(self, monkeypatch, nmax):
        """FCFS ranks every arrival last and actual runtimes end every
        job where its reservation does, so only the first pass builds."""
        w = self._congested(np.random.default_rng([36, nmax]), 200, nmax)
        _, kept, passes = self._kept(monkeypatch, w, "fcfs")
        assert passes > 50 and kept == passes - 1

    def test_early_ends_rebuild_while_they_run(self, monkeypatch):
        """Under estimates that all exceed the runtime, some early ender
        runs, or has just completed, at every pass."""
        for seed in range(3):
            rng = np.random.default_rng([36, 1, seed])
            w = self._congested(rng, 150, 8, early=True)
            _, kept, passes = self._kept(monkeypatch, w, "fcfs", use_estimates=True)
            assert passes > 50 and kept == 0

    def test_early_end_frees_cores_before_the_plan(self, monkeypatch):
        """Job 0 ends at 5, not at its estimate 10; job 1, reserved at
        10, starts at 5."""
        w = Workload.from_arrays(
            submit=[0.0, 1.0, 2.0], runtime=[5.0, 4.0, 1.0], size=[4, 4, 1],
            estimate=[10.0, 4.0, 1.0], nmax=4,
        )
        got, _, _ = self._kept(monkeypatch, w, "fcfs", use_estimates=True)
        assert got.start[1] == 5.0

    def test_overrun_past_the_estimate(self, monkeypatch):
        """Job 0 (all 4 cores) runs to 10 past its estimate 5.  At t=6 it
        is overdue, so job 1's reservation at 5 is gone and job 2 must
        not start on cores job 0 still holds."""
        w = Workload.from_arrays(
            submit=[0.0, 1.0, 6.0], runtime=[10.0, 3.0, 1.0], size=[4, 2, 1],
            estimate=[5.0, 3.0, 1.0], nmax=4,
        )
        _, kept, _ = self._kept(monkeypatch, w, "fcfs", use_estimates=True)
        assert kept == 0

    def test_sub_nanosecond_job_uses_the_clamp(self, monkeypatch):
        """Job 0 runs 1e-10 but reserves max(proc, 1e-9): job 1, planned
        at 1e-9, starts when job 0 completes at 1e-10."""
        w = Workload.from_arrays(
            submit=[0.0, 0.0, 1.0, 1.0], runtime=[1e-10, 2.0, 1.0, 1.0],
            size=[4, 4, 2, 2], nmax=4,
        )
        got, kept, passes = self._kept(monkeypatch, w, "fcfs")
        assert 0 < kept < passes and got.start[1] == 1e-10

    @pytest.mark.parametrize("base", [8192.0, 70.07])
    def test_ends_within_1e_12_but_not_equal(self, monkeypatch, base):
        """Times one ulp apart near 2^13 (1.8e-12) and decimal sums
        (70.07 + 0.1 + 0.2 ...) put distinct breakpoints within reach of
        the 1e-12 merge and cut."""
        rng = np.random.default_rng([36, int(base)])
        ulp = float(np.spacing(base))
        total = 0
        for _ in range(12):
            n = 60
            if base > 1000.0:
                submit = base + np.cumsum(rng.choice([0.0, 0.0, ulp, 0.5], size=n))
                runtime = rng.choice([1.0, 1.0 + ulp, 2.0, 0.5], size=n)
            else:
                submit = np.sort(np.round(rng.uniform(0, 20, size=n), 2)) + base
                runtime = np.round(rng.uniform(0.01, 30, size=n), 2) + 0.1 + 0.2
            w = Workload.from_arrays(
                submit=submit, runtime=runtime,
                size=rng.integers(1, 9, size=n), nmax=8,
            )
            for policy_name in ("fcfs", "f1"):
                _, kept, _ = self._kept(monkeypatch, w, policy_name)
                total += kept
        assert total > 0

    def test_merged_reservation_end_decides_a_start(self, monkeypatch):
        """Job 1's reservation ends 5e-13 before job 0's and merges into
        that breakpoint, so job 3's window (ending within the 1e-12 cut
        of it) is clear and job 3 starts at 0; without the merge job 2
        would reserve at 1 - 5e-13 and block it."""
        w = Workload.from_arrays(
            submit=[0.0] * 4, runtime=[1.0, 1.0 - 5e-13, 3.0, 1.0 + 7.5e-13],
            size=[1, 1, 3, 2], nmax=4,
        )
        got, _, _ = self._kept(monkeypatch, w, "fcfs")
        assert got.start.tolist() == [0.0, 0.0, 1.0 + 7.5e-13, 0.0]

    def test_spt_arrival_ranks_ahead_of_the_plan(self, monkeypatch):
        """Job 1 holds the reservation at 10 when the shorter job 2
        arrives and ranks ahead of it: job 2 starts at 10."""
        w = Workload.from_arrays(
            submit=[0.0, 1.0, 2.0], runtime=[10.0, 20.0, 5.0], size=[4, 4, 4],
            nmax=4,
        )
        got, _, _ = self._kept(monkeypatch, w, "spt")
        assert got.start[2] == 10.0

    def test_spt_random_arrivals(self, monkeypatch):
        rng = np.random.default_rng([36, 2])
        for nmax in (8, 32):
            w = self._congested(rng, 200, nmax)
            _, kept, passes = self._kept(monkeypatch, w, "spt")
            assert 0 < kept < passes

    def test_arrival_strictly_between_breakpoints(self, monkeypatch):
        """Job 2 (2 cores, 12 s) is reserved at 15: at 1 its window
        reached job 1's reservation at 10.  Job 3 arrives at 4, strictly
        between breakpoints 1 and 10; its window reaches 10 too, and at
        4 job 2 still cannot start; job 4 (1 core, 3 s) fits before 10."""
        w = Workload.from_arrays(
            submit=[0.0, 0.0, 1.0, 4.0, 4.0],
            runtime=[10.0, 5.0, 12.0, 100.0, 3.0],
            size=[2, 4, 2, 1, 1], nmax=4,
        )
        got, kept, _ = self._kept(monkeypatch, w, "fcfs")
        assert kept > 0 and got.start[2] == 15.0 and got.start[4] == 4.0

    @pytest.mark.parametrize(
        "policy_name, backfill", [("fcfs", "hybrid"), ("wfp3", "conservative")]
    )
    def test_hybrid_and_dynamic_always_rebuild(
        self, monkeypatch, policy_name, backfill
    ):
        w = self._congested(np.random.default_rng([36, 3]), 200, 16)
        _, kept, passes = self._kept(monkeypatch, w, policy_name, backfill=backfill)
        assert passes > 50 and kept == 0
