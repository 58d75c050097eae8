"""Name-based policy registry.

The experiment harness, CLI and benchmarks refer to policies by name
(``"FCFS"``, ``"F1"``, …).  The registry maps names to zero-argument
factories; learned policies trained at runtime can be registered too.
"""

from __future__ import annotations

from collections.abc import Callable

from repro.policies.adhoc import UNICEF, WFP3
from repro.policies.base import Policy
from repro.policies.classic import FCFS, LAF, LPT, SAF, SPT, SmallestSizeFirst
from repro.policies.learned import F1, F2, F3, F4

__all__ = ["available_policies", "get_policy", "register_policy"]

_REGISTRY: dict[str, Callable[[], Policy]] = {
    "FCFS": FCFS,
    "SPT": SPT,
    "LPT": LPT,
    "SAF": SAF,
    "LAF": LAF,
    "SSF": SmallestSizeFirst,
    "WFP": WFP3,
    "WFP3": WFP3,  # alias used in some paper figures
    "UNI": UNICEF,
    "UNICEF": UNICEF,
    "F1": F1,
    "F2": F2,
    "F3": F3,
    "F4": F4,
}


def available_policies() -> list[str]:
    """Sorted canonical policy names."""
    return sorted(_REGISTRY)


def get_policy(name: str) -> Policy:
    """Instantiate the policy registered under *name* (case-insensitive)."""
    key = name.upper()
    try:
        return _REGISTRY[key]()
    except KeyError:
        raise KeyError(
            f"unknown policy {name!r}; available: {', '.join(available_policies())}"
        ) from None


def register_policy(name: str, factory: Callable[[], Policy]) -> None:
    """Register a custom policy factory under *name* (upper-cased)."""
    key = name.upper()
    if key in _REGISTRY:
        raise ValueError(f"policy name {name!r} already registered")
    _REGISTRY[key] = factory
