"""Tests for the policy registry."""

import pytest

from repro.experiments.paper_data import POLICY_COLUMNS
from repro.policies.base import Policy
from repro.policies.registry import available_policies, get_policy, register_policy


class TestGetPolicy:
    def test_known_names(self):
        for name in ("FCFS", "SPT", "WFP", "UNI", "F1", "F2", "F3", "F4"):
            policy = get_policy(name)
            assert isinstance(policy, Policy)
            assert policy.name == name or name in ("WFP", "UNI")

    def test_case_insensitive(self):
        assert get_policy("fcfs").name == "FCFS"

    def test_aliases(self):
        assert get_policy("WFP3").name == "WFP"
        assert get_policy("UNICEF").name == "UNI"

    def test_unknown_raises_with_inventory(self):
        with pytest.raises(KeyError, match="available"):
            get_policy("NOPE")

    def test_fresh_instances(self):
        assert get_policy("F1") is not get_policy("F1")


class TestGetPolicies:
    def test_paper_order_resolvable(self):
        out = [get_policy(name) for name in POLICY_COLUMNS]
        assert [p.name for p in out] == list(POLICY_COLUMNS)


class TestPaperOrder:
    def test_columns(self):
        assert POLICY_COLUMNS == (
            "FCFS",
            "WFP",
            "UNI",
            "SPT",
            "F4",
            "F3",
            "F2",
            "F1",
        )


class TestRegisterPolicy:
    def test_register_and_get(self):
        class Custom(Policy):
            name = "CUSTOM_TEST"

            def scores(self, now, submit, proc, size):  # pragma: no cover
                return submit

        register_policy("custom_test", Custom)
        try:
            assert get_policy("CUSTOM_TEST").name == "CUSTOM_TEST"
            assert "CUSTOM_TEST" in available_policies()
        finally:
            from repro.policies import registry

            registry._REGISTRY.pop("CUSTOM_TEST", None)

    def test_duplicate_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_policy("fcfs", lambda: None)


class TestAvailable:
    def test_sorted(self):
        names = available_policies()
        assert names == sorted(names)
        assert "F1" in names and "FCFS" in names
