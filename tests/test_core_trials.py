"""Tests for permutation trials and Eq. 3 scores (repro.core.trials)."""

import warnings

import numpy as np
import pytest

from oracle_trials import oracle_permutations, oracle_run_trials
from repro.core.taskgen import TaskSetTuple, generate_tuples
from repro.core.trials import _draw_permutations, run_trials
from repro.obs import MetricsRegistry, use_registry
from repro.sim import _cbackend
from repro.sim.job import Workload
from repro.sim.listsched import simulate_fixed_priority_batch, simulate_trials


def average_ranks(x):
    """Ranks 0..n-1 with ties sharing their mean rank (Spearman's ranks)."""
    _, inverse, counts = np.unique(x, return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)
    return ((ends - counts + ends - 1) / 2.0)[inverse]


@pytest.fixture(scope="module")
def tup():
    return generate_tuples(1, seed=42)[0]


@pytest.fixture(scope="module")
def result(tup):
    return run_trials(tup, 256, 128, seed=0)


class TestScores:
    def test_scores_sum_to_one(self, result):
        """Balanced blocks make Eq. 3 scores an exact partition of unity."""
        assert result.scores.sum() == pytest.approx(1.0)

    def test_scores_positive(self, result):
        assert np.all(result.scores > 0)

    def test_scores_near_uniform(self, result):
        """Figure 1: most scores hover around 1/|Q| = 0.031."""
        mean = 1.0 / 32
        assert abs(result.scores.mean() - mean) < 1e-12
        assert np.all(result.scores < 5 * mean)
        assert result.scores.std() < mean

    def test_balanced_head_counts(self, result):
        """Every task heads the same number of permutations."""
        heads, counts = np.unique(result.first_task, return_counts=True)
        assert len(heads) == 32
        assert len(set(counts.tolist())) == 1

    def test_trial_budget_rounded_to_blocks(self, tup):
        with pytest.warns(UserWarning, match="adjusted to 96"):
            res = run_trials(tup, 256, 100, seed=0)  # 100 -> 3 blocks of 32
        assert res.n_trials == 96

    def test_minimum_one_block(self, tup):
        with pytest.warns(UserWarning, match="adjusted to 32"):
            res = run_trials(tup, 256, 1, seed=0)
        assert res.n_trials == 32

    def test_exact_budget_does_not_warn(self, tup):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            run_trials(tup, 256, 64, seed=0)  # exactly 2 blocks of 32

    def test_features_match_q(self, tup, result):
        np.testing.assert_array_equal(result.runtime, tup.Q.runtime)
        np.testing.assert_array_equal(result.submit, tup.Q.submit)
        np.testing.assert_array_equal(result.size, tup.Q.size.astype(float))

    def test_observations_shape(self, result):
        obs = result.observations()
        assert obs.shape == (32, 4)
        np.testing.assert_array_equal(obs[:, 3], result.scores)

    def test_avebsld_positive(self, result):
        assert np.all(result.trial_avebsld >= 1.0)

    def test_reproducible(self, tup):
        a = run_trials(tup, 256, 64, seed=9)
        b = run_trials(tup, 256, 64, seed=9)
        np.testing.assert_array_equal(a.scores, b.scores)

    def test_unbalanced_mode(self, tup):
        res = run_trials(tup, 256, 200, seed=0, balanced=False)
        assert res.n_trials == 200
        assert res.scores.sum() == pytest.approx(1.0)

    def test_oversized_job_rejected(self, tup):
        # the job set's check names the job: S's jobs come first
        size = np.concatenate([tup.S.size, tup.Q.size])
        worst = int(np.argmax(size))
        named = f"^job {worst} needs {size[worst]} cores but the machine has only 2$"
        with pytest.raises(ValueError, match=named):
            run_trials(tup, 2, 32, seed=0)


class TestPermutationOracle:
    """The one-call draw equals the historical per-row loop, bit for bit.

    ``Generator.permuted`` reproducing per-row ``shuffle`` is a numpy
    implementation property (requirements.txt sets the floor to the
    version it was checked on); this class fails if a numpy release
    changes it, before any seeded result moves silently.
    """

    @pytest.mark.parametrize("balanced", [True, False])
    @pytest.mark.parametrize("m_q", [1, 2, 3, 7, 32])
    def test_matrix_and_final_state(self, m_q, balanced):
        for seed in range(20):
            for blocks in (1, 5, 64):
                # unbalanced budgets need not be whole blocks
                total = blocks * m_q + (0 if balanced else 1)
                new_rng = np.random.default_rng(seed)
                old_rng = np.random.default_rng(seed)
                P = _draw_permutations(new_rng, m_q, total, balanced=balanced)
                expected = oracle_permutations(
                    old_rng, m_q, total, balanced=balanced
                )
                assert P.dtype == expected.dtype
                np.testing.assert_array_equal(P, expected)
                assert new_rng.bit_generator.state == old_rng.bit_generator.state

    @pytest.mark.parametrize("balanced", [True, False])
    @pytest.mark.parametrize("m_q", [1, 3, 32])
    @pytest.mark.parametrize("n_trials", [64, 100])
    def test_run_trials_bits(self, m_q, balanced, n_trials):
        tup = generate_tuples(1, q_size=m_q, seed=7)[0]
        for seed in range(3):
            # A balanced budget that is not whole blocks takes the
            # rounding-warning path on both sides.
            with warnings.catch_warnings(record=True) as new_warned:
                warnings.simplefilter("always")
                new = run_trials(tup, 256, n_trials, seed=seed, balanced=balanced)
            with warnings.catch_warnings(record=True) as old_warned:
                warnings.simplefilter("always")
                old = oracle_run_trials(
                    tup, 256, n_trials, seed=seed, balanced=balanced
                )
            assert bool(new_warned) == (balanced and n_trials % m_q != 0)
            assert [str(w.message) for w in new_warned] == [
                str(w.message) for w in old_warned
            ]
            for name in ("first_task", "trial_avebsld", "scores"):
                assert getattr(new, name).tobytes() == getattr(old, name).tobytes()


class TestScoreSemantics:
    def test_blocking_job_scores_worse(self):
        """A huge early job must have a higher (worse) score than tiny jobs.

        Construct a tuple where one probe job occupies the whole machine
        for a long time: permutations that run it first delay everyone,
        inflating AVEbsld, hence its Eq. 3 score.
        """
        nmax = 8
        S = Workload.from_arrays([0.0] * 2, [50.0] * 2, [4, 4])
        q_submit = np.linspace(1.0, 10.0, 8)
        q_runtime = np.array([1000.0] + [5.0] * 7)
        q_size = np.array([8] + [1] * 7)
        Q = Workload.from_arrays(q_submit, q_runtime, q_size)
        tup = TaskSetTuple(S=S, Q=Q, index=0)
        res = run_trials(tup, nmax, 64 * 8, seed=1)
        monster = res.scores[0]
        others = np.delete(res.scores, 0)
        assert monster > others.max()

    def test_identical_jobs_score_uniformly(self):
        """With fully symmetric probe jobs every permutation yields the
        same AVEbsld (slot-exchange argument), so Eq. 3 is exactly
        uniform.  This pins down that no hidden asymmetry (tie-breaks,
        ordering bugs) leaks into the scores."""
        S = Workload.from_arrays([0.0], [200.0], [4])
        Q = Workload.from_arrays(
            np.linspace(1.0, 8.0, 8), np.full(8, 100.0), np.full(8, 4)
        )
        res = run_trials(TaskSetTuple(S=S, Q=Q, index=0), 4, 64, seed=2)
        np.testing.assert_allclose(res.scores, 1.0 / 8, atol=1e-12)

    def test_area_correlates_with_score_statistically(self):
        """Pooled over realistic tuples, bigger (r*n) tasks carry higher
        scores — the congestion effect the paper's weighting targets.
        Pinned seed; the correlation is a statistical property, not a
        per-instance guarantee."""
        from repro.core.taskgen import generate_tuples

        tuples = generate_tuples(12, seed=123)
        results = [run_trials(t, 256, 512, seed=i) for i, t in enumerate(tuples)]
        informative = [r for r in results if r.scores.std() > 1e-12]
        assert len(informative) >= 4  # most tuples show contention
        area = np.concatenate([r.runtime * r.size for r in informative])
        score = np.concatenate([r.scores for r in informative])
        rho = np.corrcoef(average_ranks(area), average_ranks(score))[0, 1]
        assert rho > 0.05


HAVE_C = _cbackend.load() is not None
KERNELS = ["python"] + (["c"] if HAVE_C else [])


def _tuple(s_submit, s_runtime, s_size, q_submit, q_runtime, q_size):
    return TaskSetTuple(
        S=Workload.from_arrays(s_submit, s_runtime, s_size),
        Q=Workload.from_arrays(q_submit, q_runtime, q_size),
        index=0,
    )


#: Hand-built tuples on an 8-core machine, one per shape of the point
#: where the first probe job heads the queue (the shared prefix's end).
EDGE_TUPLES = {
    # S[1] waits behind S[0] while the probes arrive
    "s_queued_at_first_probe": _tuple(
        [0.0, 0.0], [10.0, 7.0], [8, 4],
        [1.0, 2.0, 3.0, 4.0, 5.0, 6.0], [3.0, 9.0, 1.0, 4.0, 2.0, 6.0], [4, 2, 8, 1, 3, 5],
    ),
    # the last warm-up job and the first probe arrive in one event
    "s_last_equals_q_first": _tuple(
        [0.0, 5.0], [20.0, 6.0], [6, 4],
        [5.0, 5.0, 8.0, 9.0, 9.0], [2.0, 30.0, 1.0, 5.0, 8.0], [3, 2, 7, 1, 4],
    ),
    # every warm-up job has finished: empty machine, nothing running
    "idle_machine_at_stop": _tuple(
        [0.0, 1.0], [2.0, 1.0], [8, 8],
        [10.0, 10.5, 11.0, 30.0], [5.0, 5.0, 2.0, 1.0], [5, 5, 8, 2],
    ),
    # the machine is full of warm-up work while every probe arrives
    "probes_queued_at_stop": _tuple(
        [0.0, 0.0], [100.0, 90.0], [4, 4],
        np.linspace(1.0, 20.0, 9), [7.0, 1.0, 30.0, 2.0, 2.0, 50.0, 3.0, 9.0, 4.0],
        [2, 8, 3, 1, 6, 4, 2, 7, 5],
    ),
}


def _assert_same_trials(tup, nmax, n_trials, **kw):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        new = run_trials(tup, nmax, n_trials, **kw)
        old = oracle_run_trials(tup, nmax, n_trials, **kw)
    for name in ("first_task", "trial_avebsld", "scores"):
        assert getattr(new, name).tobytes() == getattr(old, name).tobytes(), name


@pytest.mark.parametrize("kernel", KERNELS)
class TestTrialKernel:
    """``simulate_trials`` (the shared prefix resumed per permutation, with
    Eq. 1/2 reduced in the kernel) against the frozen oracle, bit for bit."""

    @pytest.mark.parametrize("case", sorted(EDGE_TUPLES))
    @pytest.mark.parametrize("balanced", [True, False])
    def test_prefix_edges(self, monkeypatch, kernel, case, balanced):
        monkeypatch.setenv("REPRO_SIM_KERNEL", kernel)
        tup = EDGE_TUPLES[case]
        for seed in range(3):
            _assert_same_trials(tup, 8, 200, seed=seed, balanced=balanced)

    @pytest.mark.parametrize("q_size", [1, 7, 8, 9, 33, 128, 129, 300])
    def test_probe_counts(self, monkeypatch, kernel, q_size):
        """Both sides of every branch of numpy's pairwise summation."""
        monkeypatch.setenv("REPRO_SIM_KERNEL", kernel)
        tup = generate_tuples(1, q_size=q_size, seed=q_size)[0]
        n_trials = q_size * (2 if q_size <= 33 else 1)
        _assert_same_trials(tup, 256, n_trials, seed=1)
        _assert_same_trials(tup, 256, 50, seed=2, balanced=False)

    def test_tau_above_runtimes(self, monkeypatch, kernel):
        monkeypatch.setenv("REPRO_SIM_KERNEL", kernel)
        for i, tup in enumerate(generate_tuples(3, seed=11)):
            tau = float(np.median(tup.Q.runtime))  # clamps half the probes
            _assert_same_trials(tup, 256, 96, seed=i, tau=tau)
            _assert_same_trials(tup, 256, 40, seed=i, tau=tau, balanced=False)

    def test_arrivals_without_tuple_order(self, monkeypatch, kernel):
        """Warm-up jobs may arrive after probe jobs (and no warm-up set at
        all): equal to the priority batch reduced in numpy."""
        monkeypatch.setenv("REPRO_SIM_KERNEL", kernel)
        rng = np.random.default_rng(5)
        for n_warm in (0, 1, 4):
            m = n_warm + 10
            submit = np.sort(rng.integers(0, 30, m)).astype(float)
            runtime = rng.integers(1, 40, m).astype(float)
            size = rng.integers(1, 9, m)
            perm = rng.permutation(m)  # warm-up jobs anywhere in time
            submit, runtime, size = submit[perm], runtime[perm], size[perm]
            perms = np.array([rng.permutation(10) for _ in range(64)])
            got = simulate_trials(submit, runtime, size, perms, 8, n_warm=n_warm, tau=3.0)
            prios = np.empty((64, m))
            prios[:, :n_warm] = np.arange(n_warm)
            np.put_along_axis(prios[:, n_warm:], perms, n_warm + np.arange(10.0)[None, :], 1)
            starts = simulate_fixed_priority_batch(submit, runtime, size, prios, 8)
            q_sub, q_run = submit[n_warm:], runtime[n_warm:]
            bsld = np.maximum((starts[:, n_warm:] - q_sub + q_run) / np.maximum(q_run, 3.0), 1.0)
            assert got.tobytes() == bsld.mean(axis=1).tobytes()

    @pytest.mark.parametrize("row", [[0, 0, 2], [0, 1, 3], [-1, 0, 1]], ids=["dup", "high", "low"])
    def test_bad_permutation_names_the_trial(self, monkeypatch, kernel, row):
        monkeypatch.setenv("REPRO_SIM_KERNEL", kernel)
        tup = EDGE_TUPLES["idle_machine_at_stop"]
        submit = np.concatenate([tup.S.submit, tup.Q.submit[:3]])
        runtime = np.concatenate([tup.S.runtime, tup.Q.runtime[:3]])
        size = np.concatenate([tup.S.size, tup.Q.size[:3]])
        perms = np.array([[2, 1, 0]] * 5 + [row] + [[0, 1, 2]])
        with pytest.raises(ValueError, match=r"trial 5\b.*not a permutation of 0\.\.2"):
            simulate_trials(submit, runtime, size, perms, 8, n_warm=2)

    def test_counters_match_the_priority_batch(self, monkeypatch, kernel):
        monkeypatch.setenv("REPRO_SIM_KERNEL", kernel)
        tup = generate_tuples(1, seed=4)[0]
        registry = MetricsRegistry()
        with use_registry(registry):
            run_trials(tup, 256, 64, seed=0)
        assert registry.value("listsched.trials") == 64
        assert registry.value("listsched.jobs") == 64 * (len(tup.S) + len(tup.Q))


#: Hand-built tuples on an 8-core machine around the order-independence
#: test: a batch shares trial 0's value only if, after the shared
#: prefix, no job stays queued from one event to the next.
ORDER_TUPLES = {
    # p1 and p2 arrive together with room for one: exactly one pass
    # after the prefix leaves a probe waiting, and the order decides which
    "one_wait_after_stop": _tuple(
        [0.0], [100.0], [2],
        [1.0, 5.0, 5.0], [100.0, 10.0, 50.0], [1, 4, 4],
    ),
    # S[1] waits behind S[0] in the prefix; no probe ever waits
    "order_free": _tuple(
        [0.0, 0.0], [10.0, 10.0], [8, 8],
        [30.0, 31.0, 32.0, 40.0], [5.0, 3.0, 2.0, 1.0], [3, 3, 2, 8],
    ),
    # p1 and p2 wait only while p0 fills the machine, then both start:
    # the order cannot matter, but a job queued across events still
    # counts as waiting
    "full_machine_wait": _tuple(
        [0.0], [1.0], [1],
        [2.0, 5.0, 5.0], [10.0, 3.0, 7.0], [8, 2, 3],
    ),
}

#: Trials answered from trial 0 under the C kernel, per tuple: all but
#: trial 0, or none.
SHARES = {"one_wait_after_stop": False, "order_free": True, "full_machine_wait": False}


def _trials_shared(tup, n_trials, **kw):
    registry = MetricsRegistry()
    with use_registry(registry), warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        res = run_trials(tup, 8, n_trials, **kw)
    return res, registry.value("listsched.trials_shared")


@pytest.mark.parametrize("kernel", KERNELS)
class TestOrderIndependentBatches:
    """Trial 0 proves a batch order-independent; the other trials then
    take its value.  Held to the frozen oracle bit for bit, and to the
    ``listsched.trials_shared`` count the kernel reports."""

    @pytest.mark.parametrize("case", sorted(ORDER_TUPLES))
    @pytest.mark.parametrize("balanced", [True, False])
    def test_against_oracle(self, monkeypatch, kernel, case, balanced):
        monkeypatch.setenv("REPRO_SIM_KERNEL", kernel)
        tup = ORDER_TUPLES[case]
        for seed in range(3):
            _assert_same_trials(tup, 8, 96, seed=seed, balanced=balanced)
        res, shared = _trials_shared(tup, 96, seed=0, balanced=balanced)
        distinct = len(np.unique(res.trial_avebsld))
        if case == "one_wait_after_stop":
            assert distinct == 2  # the shortcut would give one value
        else:
            assert distinct == 1
        expected = 95 if kernel == "c" and SHARES[case] else 0
        assert shared == expected

    def test_shared_per_chunk(self, monkeypatch, kernel):
        """Each simulate_trials call decides from its own first trial."""
        monkeypatch.setenv("REPRO_SIM_KERNEL", kernel)
        monkeypatch.setattr("repro.core.trials._TRIAL_CHUNK", 40)
        res, shared = _trials_shared(ORDER_TUPLES["order_free"], 100, seed=1, balanced=False)
        assert res.n_trials == 100
        assert shared == (100 - 3 if kernel == "c" else 0)

    def test_bad_row_of_a_shared_batch_named(self, monkeypatch, kernel):
        monkeypatch.setenv("REPRO_SIM_KERNEL", kernel)
        tup = ORDER_TUPLES["order_free"]
        submit = np.concatenate([tup.S.submit, tup.Q.submit])
        runtime = np.concatenate([tup.S.runtime, tup.Q.runtime])
        size = np.concatenate([tup.S.size, tup.Q.size])
        perms = np.array([[3, 2, 1, 0]] * 5 + [[0, 1, 1, 2]] + [[0, 1, 2, 3]] * 4)
        with pytest.raises(ValueError, match=r"trial 5\b.*not a permutation of 0\.\.3"):
            simulate_trials(submit, runtime, size, perms, 8, n_warm=2)
        registry = MetricsRegistry()
        with use_registry(registry):
            out = simulate_trials(submit, runtime, size, perms[:5], 8, n_warm=2)
        assert len(set(out.tolist())) == 1
        assert registry.value("listsched.trials_shared") == (4 if kernel == "c" else 0)


BIT_GENERATORS = [np.random.PCG64, np.random.Philox, np.random.SFC64, np.random.MT19937]


@pytest.mark.skipif(not HAVE_C, reason="no C toolchain")
class TestCDraw:
    """``_draw_permutations`` in C (``repro_draw_perms``) against the
    numpy ``Generator.permuted`` path it replaces: the same matrix and
    the same generator state afterwards."""

    @pytest.mark.parametrize("bitgen", BIT_GENERATORS, ids=lambda b: b.__name__)
    @pytest.mark.parametrize("m_q", [1, 2, 7, 32, 33])
    @pytest.mark.parametrize("balanced", [True, False])
    def test_matches_numpy(self, monkeypatch, bitgen, m_q, balanced):
        from repro.core.trials import _TRIAL_CHUNK

        past_chunk = -(-(_TRIAL_CHUNK + 1) // m_q) * m_q
        for seed, total in ((0, m_q), (1, 5 * m_q), (2, past_chunk)):
            total += 0 if balanced else 1  # unbalanced: any row count
            drawn = {}
            for kernel in ("python", "c"):
                monkeypatch.setenv("REPRO_SIM_KERNEL", kernel)
                rng = np.random.Generator(bitgen(seed))
                P = _draw_permutations(rng, m_q, total, balanced=balanced)
                drawn[kernel] = (P, rng.bit_generator.state, rng.random())
            (P_np, state_np, next_np), (P_c, state_c, next_c) = drawn.values()
            assert P_c.dtype == P_np.dtype and P_c.shape == (total, m_q)
            np.testing.assert_array_equal(P_c, P_np)
            np.testing.assert_equal(state_c, state_np)
            assert next_c == next_np
