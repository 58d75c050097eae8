"""Tests for policy-space analysis (rank agreement)."""

import numpy as np
import pytest

from repro.policies.analysis import agreement_matrix, kendall_tau, policy_scores
from repro.policies.classic import FCFS, LPT, SPT
from repro.policies.learned import F1, F3
from repro.workloads.lublin import lublin_workload


@pytest.fixture(scope="module")
def workload():
    return lublin_workload(400, nmax=256, seed=8)


class TestPolicyScores:
    def test_shape(self, workload):
        out = policy_scores(FCFS(), workload)
        assert out.shape == (len(workload),)

    def test_default_now_after_last_arrival(self, workload):
        from repro.policies.adhoc import WFP3

        # all waits positive => all WFP scores strictly negative
        out = policy_scores(WFP3(), workload)
        assert np.all(out < 0)

    def test_estimates_toggle(self, workload):
        from repro.workloads.tsafrir import apply_tsafrir

        wl = apply_tsafrir(workload, seed=1)
        by_r = policy_scores(SPT(), wl, use_estimates=False)
        by_e = policy_scores(SPT(), wl, use_estimates=True)
        assert not np.array_equal(by_r, by_e)

    def test_empty_rejected(self):
        from repro.sim.job import Workload

        with pytest.raises(ValueError):
            policy_scores(FCFS(), Workload.from_arrays([], [], []))


class TestRankAgreement:
    @staticmethod
    def _tau(a, b, workload):
        return kendall_tau(policy_scores(a, workload), policy_scores(b, workload))

    def test_self_agreement_is_one(self, workload):
        assert self._tau(SPT(), SPT(), workload) == pytest.approx(1.0)

    def test_opposite_policies(self, workload):
        assert self._tau(SPT(), LPT(), workload) == pytest.approx(-1.0)

    def test_unrelated_policies_mid_range(self, workload):
        tau = self._tau(FCFS(), SPT(), workload)
        assert -0.5 < tau < 0.5

    def test_f3_is_fcfs_like_on_long_spans(self, workload):
        """The huge log10(s) constant makes F3 order nearly by arrival
        when submits span hours — the short-window behaviour observed in
        the experiments."""
        tau = self._tau(FCFS(), F3(), workload)
        assert tau > 0.8

    def test_f1_less_fcfs_like_than_f3(self, workload):
        """F1's small constant (870) lets the size term reorder more."""
        tau_f1 = self._tau(FCFS(), F1(), workload)
        tau_f3 = self._tau(FCFS(), F3(), workload)
        assert tau_f1 < tau_f3


class TestAgreementMatrix:
    def test_structure(self, workload):
        names, mat = agreement_matrix([FCFS(), SPT(), LPT()], workload)
        assert names == ["FCFS", "SPT", "LPT"]
        np.testing.assert_allclose(np.diag(mat), 1.0)
        np.testing.assert_allclose(mat, mat.T)
        assert mat[1, 2] == pytest.approx(-1.0)  # SPT vs LPT

    def test_empty_rejected(self, workload):
        with pytest.raises(ValueError):
            agreement_matrix([], workload)
