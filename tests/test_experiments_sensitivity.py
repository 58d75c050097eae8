"""Tests for robustness sweeps (repro.experiments.sensitivity)."""

import numpy as np
import pytest

from repro.experiments.scale import SCALES
from repro.experiments.sensitivity import (
    ranking_stability,
    seed_sweep,
    tau_sweep,
)
from repro.experiments.table4 import TABLE4_ROWS

ROW = next(r for r in TABLE4_ROWS if r.row_id == "model_256_actual")
SMOKE = SCALES["smoke"]


@pytest.fixture(scope="module")
def sweep():
    return seed_sweep(ROW, SMOKE, seeds=(0, 1, 2), policies=("FCFS", "F1"))


class TestSeedSweep:
    def test_structure(self, sweep):
        assert sweep.seeds == (0, 1, 2)
        assert set(sweep.medians) == {0, 1, 2}
        for med in sweep.medians.values():
            assert set(med) == {"FCFS", "F1"}

    def test_rankings(self, sweep):
        for ranking in sweep.rankings().values():
            assert sorted(ranking) == ["F1", "FCFS"]

    def test_f1_wins_across_seeds(self, sweep):
        """The paper's conclusion is seed-robust even at smoke scale."""
        winners = sweep.winner_counts()
        assert winners.get("F1", 0) >= 2

    def test_median_of_medians(self, sweep):
        mom = {
            p: np.median([sweep.medians[s][p] for s in sweep.seeds])
            for p in ("F1", "FCFS")
        }
        assert mom["F1"] <= mom["FCFS"]

    def test_empty_seeds_rejected(self):
        with pytest.raises(ValueError):
            seed_sweep(ROW, SMOKE, seeds=())


class TestTauSweep:
    @pytest.fixture(scope="class")
    def taus(self):
        return tau_sweep(ROW, SMOKE, taus=(1.0, 10.0, 60.0), policies=("FCFS", "F1"))

    def test_structure(self, taus):
        assert set(taus) == {1.0, 10.0, 60.0}

    def test_smaller_tau_larger_slowdowns(self, taus):
        """tau bounds small-job slowdowns from above: decreasing it can
        only increase (or keep) every bounded slowdown."""
        assert taus[1.0]["FCFS"] >= taus[10.0]["FCFS"] >= taus[60.0]["FCFS"]

    def test_ranking_invariant_to_tau(self, taus):
        rankings = {t: sorted(med, key=med.get) for t, med in taus.items()}
        assert ranking_stability(rankings) == 1.0

    def test_empty_taus_rejected(self):
        with pytest.raises(ValueError):
            tau_sweep(ROW, SMOKE, taus=())


class TestRankingStability:
    def test_all_equal(self):
        assert ranking_stability({1: ["a", "b"], 2: ["a", "b"]}) == 1.0

    def test_partial(self):
        rankings = {1: ["a", "b"], 2: ["b", "a"], 3: ["a", "b"]}
        assert ranking_stability(rankings) == pytest.approx(2 / 3)

    def test_explicit_reference(self):
        rankings = {1: ["a", "b"], 2: ["b", "a"]}
        assert ranking_stability(rankings, reference=["b", "a"]) == 0.5

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ranking_stability({})
