"""Tests for the pooled score distribution and its CSV format."""

import numpy as np
import pytest

from repro.core.distribution import ScoreDistribution
from repro.core.taskgen import generate_tuples
from repro.core.trials import run_trials


def make_dist(n=10):
    rng = np.random.default_rng(0)
    return ScoreDistribution(
        runtime=rng.uniform(1, 1e4, n),
        size=rng.integers(1, 256, n).astype(float),
        submit=rng.uniform(0, 1e5, n),
        score=rng.uniform(0, 0.1, n),
    )


class TestConstruction:
    def test_lengths_checked(self):
        with pytest.raises(ValueError):
            ScoreDistribution(
                runtime=np.ones(3),
                size=np.ones(3),
                submit=np.ones(2),
                score=np.ones(3),
            )

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            ScoreDistribution(
                runtime=np.array([np.nan]),
                size=np.ones(1),
                submit=np.ones(1),
                score=np.ones(1),
            )

    def test_len(self):
        assert len(make_dist(7)) == 7


class TestFromTrials:
    def test_pooling(self):
        tuples = generate_tuples(2, seed=0)
        results = [run_trials(t, 256, 32, seed=i) for i, t in enumerate(tuples)]
        dist = ScoreDistribution.from_trial_results(results)
        assert len(dist) == 64  # 2 tuples x 32 probe tasks
        np.testing.assert_array_equal(dist.runtime[:32], results[0].runtime)
        np.testing.assert_array_equal(dist.score[32:], results[1].scores)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ScoreDistribution.from_trial_results([])


class TestMergeSubsample:
    def test_subsample_smaller(self):
        d = make_dist(100).subsample(10)
        assert len(d) == 10

    def test_subsample_noop_when_larger(self):
        d = make_dist(10)
        assert d.subsample(100) is d

    def test_subsample_deterministic(self):
        d = make_dist(100)
        a = d.subsample(10, seed=1)
        b = d.subsample(10, seed=1)
        np.testing.assert_array_equal(a.runtime, b.runtime)


class TestCsv:
    def test_roundtrip(self, tmp_path):
        d = make_dist(20)
        path = tmp_path / "score-distribution.csv"
        d.to_csv(path)
        back = ScoreDistribution.from_csv(path)
        np.testing.assert_allclose(back.runtime, d.runtime, atol=0.1)
        np.testing.assert_allclose(back.score, d.score, rtol=1e-9)

    def test_artifact_format(self, tmp_path):
        """Columns: runtime,#processors,submit time,score (artifact A.5.1)."""
        d = ScoreDistribution(
            runtime=np.array([50.0]),
            size=np.array([8.0]),
            submit=np.array([88224.0]),
            score=np.array([0.0347251055192]),
        )
        path = tmp_path / "s.csv"
        d.to_csv(path)
        line = path.read_text().strip()
        assert line.startswith("50.0,8.0,88224.0,0.034725")

    def test_parses_artifact_sample(self, tmp_path):
        """The exact sample rows from the paper's appendix parse cleanly."""
        sample = (
            "50.0,8.0,88224.0,0.0347251055192\n"
            "3.0,4.0,88302.0,0.0292281817457\n"
            "7298.0,58.0,88334.0,0.0350921606481\n"
        )
        path = tmp_path / "artifact.csv"
        path.write_text(sample)
        d = ScoreDistribution.from_csv(path)
        assert len(d) == 3
        assert d.size[2] == 58.0

    def test_bad_column_count(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,2,3\n")
        with pytest.raises(ValueError, match="4 columns"):
            ScoreDistribution.from_csv(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="empty"):
            ScoreDistribution.from_csv(path)
