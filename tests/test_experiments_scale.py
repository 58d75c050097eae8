"""Tests for experiment scale presets."""

import pytest

from repro.experiments.scale import SCALES, Scale, current_scale


class TestPresets:
    def test_inventory(self):
        assert set(SCALES) == {"smoke", "small", "medium", "paper"}

    def test_paper_scale_matches_paper(self):
        p = SCALES["paper"]
        assert p.n_sequences == 10
        assert p.days == 15.0
        assert p.trials_per_tuple == 256000
        assert 256000 in p.fig2_trial_counts
        assert 512000 in p.fig2_trial_counts

    def test_scales_ordered_by_cost(self):
        order = ["smoke", "small", "medium", "paper"]
        for a, b in zip(order[:-1], order[1:]):
            assert SCALES[a].n_sequences * SCALES[a].days <= (
                SCALES[b].n_sequences * SCALES[b].days
            )
            assert SCALES[a].trials_per_tuple <= SCALES[b].trials_per_tuple

    def test_get_scale_unknown(self):
        with pytest.raises(KeyError, match="available"):
            current_scale("galactic")

    def test_validation(self):
        with pytest.raises(ValueError):
            Scale(
                name="bad",
                n_sequences=0,
                days=1.0,
                trace_jobs=10,
                n_tuples=1,
                trials_per_tuple=1,
                regression_max_points=10,
                fig2_trial_counts=(1,),
                fig2_repeats=1,
            )


class TestCurrentScale:
    def test_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_SCALE", raising=False)
        assert current_scale().name == "small"

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "smoke")
        assert current_scale().name == "smoke"

    def test_bad_env_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "huge")
        with pytest.raises(KeyError):
            current_scale()
