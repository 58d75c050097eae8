"""Tests for permutation trials and Eq. 3 scores (repro.core.trials)."""

import warnings

import numpy as np
import pytest

from oracle_trials import oracle_permutations, oracle_run_trials
from repro.core.taskgen import TaskSetTuple, generate_tuples
from repro.core.trials import _draw_permutations, run_trials
from repro.sim.job import Workload


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
        with pytest.raises(ValueError, match="larger than the machine"):
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
