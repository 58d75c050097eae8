"""The benchmark harness: derived jobs/sec and the regression checker.

A multi-round micro-bench's counters also saw its warm-up invocations,
so jobs/sec (``benchmarks/conftest.py``) must come from one invocation's
job count over the median invocation time — not from jobs per *trial*,
which undercounts a 1024-trial batch by a factor of 1024.
``scripts/check_bench_regression.py`` compares only the newest
benchmark session's results.
"""

import importlib.util
import json
from datetime import datetime, timedelta
from pathlib import Path

import pytest

from repro.obs import MetricsRegistry

_CONFTEST = Path(__file__).resolve().parent.parent / "benchmarks" / "conftest.py"


@pytest.fixture(scope="module")
def bench_conftest():
    spec = importlib.util.spec_from_file_location("bench_conftest", _CONFTEST)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def jobs_per_sec(bench_conftest):
    return bench_conftest._jobs_per_sec


def test_session_stamp_orders_as_time(bench_conftest):
    """The checker picks the newest session by string order, which is
    time order only for one fixed UTC format."""
    stamp = datetime.fromisoformat(bench_conftest.SESSION)
    assert stamp.utcoffset() == timedelta(0)
    assert len(bench_conftest.SESSION) == len("2026-01-01T00:00:00.000000+00:00")


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


_CHECKER = Path(__file__).resolve().parent.parent / "scripts" / "check_bench_regression.py"


@pytest.fixture(scope="module")
def check_main():
    spec = importlib.util.spec_from_file_location("check_bench_regression", _CHECKER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.main


def _bench(directory: Path, name: str, median: float, session: str | None) -> None:
    doc = {"schema": 1, "name": f"bench_{name}", "stats": {"median": median}}
    if session is not None:
        doc["session"] = session
    directory.mkdir(exist_ok=True)
    (directory / f"BENCH_{name}.json").write_text(json.dumps(doc), encoding="utf-8")


def _check(check_main, tmp_path, *flags):
    return check_main(
        ["--results", str(tmp_path / "results"), "--baselines", str(tmp_path / "base"), *flags]
    )


def test_checker_skips_results_of_older_sessions(check_main, tmp_path, capsys):
    """A slow result an earlier run left behind is neither compared nor
    counted as fresh; the newest session's results still are."""
    for name in ("engine_a", "trial_b", "topology_c"):
        _bench(tmp_path / "base", name, 0.010, None)
    _bench(tmp_path / "results", "engine_a", 0.011, "2026-01-02T00:00:00.000001+00:00")
    _bench(tmp_path / "results", "trial_b", 0.100, "2026-01-01T00:00:00.000001+00:00")
    _bench(tmp_path / "results", "topology_c", 0.100, None)
    assert _check(check_main, tmp_path) == 0
    out = capsys.readouterr().out
    assert "BENCH_engine_a: ok" in out
    assert "BENCH_trial_b: stale, skipped" in out
    assert "BENCH_topology_c: stale, skipped" in out
    assert "checked 1/3 baseline(s), 0 regression finding(s)" in out
    # a strict-gated bench whose only result is stale is missing
    assert _check(check_main, tmp_path, "--strict-bench", "trial_*") == 1
    assert "strict-gated bench missing" in capsys.readouterr().out


def test_checker_compares_the_newest_session(check_main, tmp_path, capsys):
    _bench(tmp_path / "base", "engine_a", 0.010, None)
    _bench(tmp_path / "results", "engine_a", 0.040, "2026-01-02T00:00:00.000001+00:00")
    assert _check(check_main, tmp_path, "--strict-bench", "engine_*") == 1
    assert "BENCH_engine_a: REGRESSION [strict]" in capsys.readouterr().out
