"""The benchmark harness's derived jobs/sec (``benchmarks/conftest.py``).

A multi-round micro-bench's counters also saw its warm-up invocations,
so jobs/sec must come from one invocation's job count over the median
invocation time — not from jobs per *trial*, which undercounts a
1024-trial batch by a factor of 1024.
"""

import importlib.util
from pathlib import Path

import pytest

from repro.obs import MetricsRegistry

_CONFTEST = Path(__file__).resolve().parent.parent / "benchmarks" / "conftest.py"


@pytest.fixture(scope="module")
def jobs_per_sec():
    spec = importlib.util.spec_from_file_location("bench_conftest", _CONFTEST)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module._jobs_per_sec


def _registry(counters: dict[str, int]) -> MetricsRegistry:
    registry = MetricsRegistry()
    for name, value in counters.items():
        registry.inc(name, value)
    return registry


def test_batch_bench_uses_its_invocation_job_count(jobs_per_sec):
    """Ten invocations of a 1024-trial x 48-job batch, 2 ms each."""
    registry = _registry(
        {"listsched.jobs": 10 * 1024 * 48, "listsched.trials": 10 * 1024}
    )
    stats = {"median": 0.002, "rounds": 8}
    rate = jobs_per_sec(registry, stats, {"jobs": 1024 * 48})
    assert rate == pytest.approx(1024 * 48 / 0.002)


def test_one_run_per_invocation_falls_back_to_the_ratio(jobs_per_sec):
    """An engine bench without ``extra_info["jobs"]``: one run each."""
    registry = _registry({"sim.jobs_completed": 5 * 2000, "sim.runs": 5})
    stats = {"median": 0.01, "rounds": 4}
    assert jobs_per_sec(registry, stats, {}) == pytest.approx(2000 / 0.01)


def test_single_shot_bench_divides_the_totals(jobs_per_sec):
    registry = _registry({"sim.jobs_completed": 3000, "sim.runs": 3})
    stats = {"median": 1.5, "rounds": 1}
    assert jobs_per_sec(registry, stats, {"jobs": 1}) == pytest.approx(2000.0)


@pytest.mark.parametrize(
    "stats", [None, {"median": 0.0, "rounds": 3}], ids=["no-stats", "zero-median"]
)
def test_no_timing_means_no_rate(jobs_per_sec, stats):
    registry = _registry({"sim.jobs_completed": 10, "sim.runs": 1})
    assert jobs_per_sec(registry, stats, {"jobs": 10}) is None
