"""Tests for the resumable on-disk training data store."""

import numpy as np
import pytest

from repro.core.datastore import TrainingDataStore
from repro.core.distribution import ScoreDistribution


@pytest.fixture
def store(tmp_path):
    return TrainingDataStore(tmp_path / "campaign")


class TestLayout:
    def test_directories_created(self, store):
        assert store.task_sets.is_dir()
        assert store.training_data.is_dir()

    def test_empty_store(self, store):
        assert store.tuple_indices() == []
        assert store.next_index() == 0
        with pytest.raises(ValueError, match="no training data"):
            store.gather()


class TestGeneration:
    def test_generate_writes_both_files(self, store):
        written = store.generate(2, trials_per_tuple=32, seed=0)
        assert written == [0, 1]
        for i in written:
            assert (store.task_sets / f"tuple-{i}.csv").exists()
            assert (store.training_data / f"trial-{i}.csv").exists()

    def test_artifact_file_format(self, store):
        store.generate(1, trials_per_tuple=32, seed=0)
        tuple_line = (store.task_sets / "tuple-0.csv").read_text().splitlines()[0]
        assert len(tuple_line.split(",")) == 3  # runtime,#procs,submit
        trial_line = (store.training_data / "trial-0.csv").read_text().splitlines()[0]
        assert len(trial_line.split(",")) == 4  # + score

    def test_resumable_indices(self, store):
        store.generate(2, trials_per_tuple=32, seed=0)
        more = store.generate(2, trials_per_tuple=32, seed=0)
        assert more == [2, 3]
        assert store.tuple_indices() == [0, 1, 2, 3]

    def test_resume_continues_same_campaign(self, tmp_path):
        """2 then 2 more tuples == 4 in one shot (same seed)."""
        one_shot = TrainingDataStore(tmp_path / "a")
        one_shot.generate(4, trials_per_tuple=32, seed=5)
        resumed = TrainingDataStore(tmp_path / "b")
        resumed.generate(2, trials_per_tuple=32, seed=5)
        resumed.generate(2, trials_per_tuple=32, seed=5)
        da = one_shot.gather()
        db = resumed.gather()
        np.testing.assert_allclose(da.runtime, db.runtime)
        np.testing.assert_allclose(da.score, db.score)


class TestRoundTrip:
    def test_load_tuple(self, store):
        store.generate(1, trials_per_tuple=32, seed=1)
        tup = store.load_tuple(0)
        assert len(tup.S) == 16
        assert len(tup.Q) == 32
        assert tup.index == 0

    def test_gather_shapes(self, store):
        store.generate(3, trials_per_tuple=32, seed=2)
        dist = store.gather()
        assert len(dist) == 3 * 32
        # Eq. 3 partition of unity per tuple
        assert dist.score[:32].sum() == pytest.approx(1.0)

    def test_gather_to_csv_loadable(self, store):
        store.generate(1, trials_per_tuple=32, seed=3)
        path = store.gather_to_csv()
        assert path.name == "score-distribution.csv"
        back = ScoreDistribution.from_csv(path)
        assert len(back) == 32

    def test_gathered_data_fits(self, store):
        """End-to-end: a stored campaign feeds the regression."""
        from repro.core.functions import FunctionSpec
        from repro.core.regression import RegressionConfig, fit_function

        store.generate(2, trials_per_tuple=64, seed=4)
        dist = store.gather()
        fit = fit_function(
            FunctionSpec("id", "id", "log", "*", "+"),
            dist,
            RegressionConfig(max_points=100),
        )
        assert np.isfinite(fit.rank_error)
