"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.policies.base import Policy
from repro.sim.job import Workload


@pytest.fixture
def rng():
    """Deterministic generator for tests needing randomness."""
    return np.random.default_rng(12345)


@pytest.fixture
def tiny_workload() -> Workload:
    """Four-job workload with hand-checkable schedule on 4 cores."""
    return Workload.from_arrays(
        submit=[0.0, 1.0, 2.0, 2.0],
        runtime=[10.0, 10.0, 5.0, 20.0],
        size=[3, 4, 1, 1],
        name="tiny",
        nmax=4,
    )


@pytest.fixture
def medium_workload(rng) -> Workload:
    """A moderately loaded random workload on 32 cores."""
    return random_workload(rng, n=120, nmax=32)


def random_workload(
    rng: np.random.Generator,
    n: int = 50,
    nmax: int = 16,
    *,
    horizon: float = 500.0,
    max_runtime: float = 100.0,
) -> Workload:
    """Random rigid-job workload: bursty arrivals, log-uniform runtimes."""
    submit = np.sort(rng.uniform(0.0, horizon, size=n))
    runtime = np.exp(rng.uniform(0.0, np.log(max_runtime), size=n))
    size = rng.integers(1, nmax + 1, size=n)
    estimate = runtime * rng.uniform(1.0, 10.0, size=n)
    return Workload.from_arrays(
        submit=submit, runtime=runtime, size=size, estimate=estimate, nmax=nmax
    )


class TablePolicy(Policy):
    """Static policy whose score is an explicit per-job table.

    Keys on the submit time (unique in the workloads we build), which
    lets tests impose an arbitrary priority order through the standard
    policy interface — used for cross-checking the engine against the
    fixed-priority list scheduler.
    """

    name = "TABLE"
    dynamic = False

    def __init__(self, submit_to_priority: dict[float, float]) -> None:
        self._table = dict(submit_to_priority)

    def scores(self, now, submit, proc, size):
        return np.asarray([self._table[float(s)] for s in submit], dtype=float)


class DynamicWrapper(Policy):
    """Re-scores an inner static policy every pass (forces the dynamic path)."""

    def __init__(self, inner: Policy) -> None:
        self._inner = inner
        self.name = f"dyn:{inner.name}"
        self.dynamic = True

    def scores(self, now, submit, proc, size):
        return self._inner.scores(now, submit, proc, size)

