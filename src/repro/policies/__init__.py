"""Scheduling policies: classical, smart ad-hoc and learned (Tables 2–3)."""

from repro.policies.adhoc import UNICEF, WFP3
from repro.policies.analysis import agreement_matrix, policy_scores
from repro.policies.base import Policy
from repro.policies.classic import FCFS, LAF, LPT, SAF, SPT, SmallestSizeFirst
from repro.policies.learned import F1, F2, F3, F4, NonlinearPolicy, paper_policies
from repro.policies.registry import available_policies, get_policy, register_policy

__all__ = [
    "F1",
    "F2",
    "F3",
    "F4",
    "FCFS",
    "LAF",
    "LPT",
    "NonlinearPolicy",
    "Policy",
    "SAF",
    "SPT",
    "SmallestSizeFirst",
    "UNICEF",
    "WFP3",
    "agreement_matrix",
    "available_policies",
    "policy_scores",
    "get_policy",
    "paper_policies",
    "register_policy",
]
