"""Tests for the Figure 1-3 regenerators."""

import numpy as np
import pytest

from repro.experiments.figures import (
    fig1_trial_score_distributions,
    fig2_trial_convergence,
    fig3_policy_maps,
)
from repro.policies.learned import F1


class TestFig1:
    @pytest.fixture(scope="class")
    def fig1(self):
        return fig1_trial_score_distributions(n_trials=96, seed=0)

    def test_two_panels_of_32(self, fig1):
        assert len(fig1.panels) == 2
        for panel in fig1.panels:
            assert panel.shape == (32,)

    def test_mean_line(self, fig1):
        assert fig1.mean_line == pytest.approx(1.0 / 32)

    def test_scores_hover_around_mean(self, fig1):
        """Figure 1: most scores slightly above or below 1/|Q|."""
        for panel in fig1.panels:
            assert panel.mean() == pytest.approx(fig1.mean_line)
            assert np.all(panel >= 0)
            assert np.all(panel < 4 * fig1.mean_line)

    def test_panels_differ(self, fig1):
        assert not np.allclose(fig1.panels[0], fig1.panels[1])


class TestFig2:
    @pytest.fixture(scope="class")
    def fig2(self):
        return fig2_trial_convergence((32, 128, 512), repeats=4, seed=0)

    def test_series_alignment(self, fig2):
        series = fig2.series()
        assert [c for c, _ in series] == [32, 128, 512]

    def test_std_decreases_with_trials(self, fig2):
        """The figure's core claim: more trials, lower estimator spread."""
        stds = fig2.normalized_std
        assert stds[0] > stds[-1]

    def test_positive(self, fig2):
        assert np.all(fig2.normalized_std > 0)

    def test_convergence_rate_roughly_sqrt(self):
        """Monte-Carlo estimator: 16x trials ~ 4x std reduction (loose)."""
        fig2 = fig2_trial_convergence((32, 512), repeats=6, seed=1)
        ratio = fig2.normalized_std[0] / fig2.normalized_std[1]
        assert 1.5 < ratio < 12.0


class TestFig3:
    def test_axis_pairs(self):
        for pair in ("rn", "rs", "ns"):
            maps = fig3_policy_maps(pair, resolution=16)
            assert maps.axis_pair == pair
            assert set(maps.maps) == {"F1", "F2", "F3", "F4"}
            for grid in maps.maps.values():
                assert grid.shape == (16, 16)

    def test_normalized_to_unit_interval(self):
        maps = fig3_policy_maps("rn", resolution=16)
        for grid in maps.maps.values():
            assert grid.min() == pytest.approx(0.0)
            assert grid.max() == pytest.approx(1.0)

    def test_rn_panel_monotone(self):
        """Fig 3a: at fixed s, priority worsens with both r and n."""
        maps = fig3_policy_maps("rn", resolution=16)
        for grid in maps.maps.values():
            assert grid[0, 0] <= grid[0, -1] + 1e-12  # more runtime -> higher
            assert grid[0, 0] <= grid[-1, 0] + 1e-12  # more cores -> higher

    def test_submit_dominates_rs_panel(self):
        """Fig 3b: older tasks (small s) dominate for F2-F4."""
        maps = fig3_policy_maps("rs", resolution=16)
        for name in ("F2", "F3", "F4"):
            grid = maps.maps[name]
            # bottom row (earliest submit) everywhere below top row
            assert np.all(grid[0, :] <= grid[-1, :] + 1e-9)

    def test_fixed_override(self):
        a = fig3_policy_maps("rn", fixed={"s": 1.0}, resolution=8, policies=[F1()])
        b = fig3_policy_maps("rn", fixed={"s": 200.0}, resolution=8, policies=[F1()])
        # different fixed submit shifts raw scores; normalized maps equal
        np.testing.assert_allclose(a.maps["F1"], b.maps["F1"], atol=1e-9)

    def test_priority_at(self):
        maps = fig3_policy_maps("rn", resolution=8)
        val = maps.maps["F1"][0, 0]
        assert 0.0 <= val <= 1.0

    def test_bad_pair(self):
        with pytest.raises(ValueError):
            fig3_policy_maps("xy")
