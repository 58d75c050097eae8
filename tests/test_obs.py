"""Tests for the repro.obs telemetry layer.

The load-bearing contract: telemetry **never forks a result**.  Reports
written with ``--telemetry`` are byte-identical to reports written
without it, at any worker count; merged worker metrics equal serial
metrics; manifest identities are stable across cache directories.  The
unit tests pin the metrics/tracing/manifest building blocks with
injected clocks so durations are deterministic.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro import api
from repro.cli import main
from repro.obs import (
    MANIFEST_NAME,
    NULL_REGISTRY,
    MetricsRegistry,
    NullRegistry,
    Tracer,
    build_manifest,
    current_registry,
    read_manifest,
    render_manifest,
    span,
    use_registry,
    use_tracer,
    write_manifest,
)
from repro.runtime.cache import ArtifactCache
from repro.specs import EvaluateSpec

TINY_SWF = Path(__file__).parent / "data" / "ctc_tiny.swf"


class FakeClock:
    """Deterministic ``now=`` stand-in: each call advances by *step*."""

    def __init__(self, step: float = 1.0) -> None:
        self.t = 0.0
        self.step = step

    def __call__(self) -> float:
        self.t += self.step
        return self.t


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
class TestMetricsRegistry:
    def test_counters_gauges_timers(self):
        reg = MetricsRegistry(now=FakeClock())
        reg.inc("jobs")
        reg.inc("jobs", 4)
        reg.set_gauge("util", 0.5)
        reg.set_gauge("util", 0.75)
        with reg.timer("phase"):
            pass  # fake clock: enter=1, exit=2 -> 1s
        reg.add_time("phase", 3.0)
        assert reg.value("jobs") == 5
        assert reg.gauge("util") == 0.75
        assert reg.timer_seconds("phase") == 4.0
        assert reg.timer_count("phase") == 2
        doc = reg.to_dict()
        assert doc["counters"]["jobs"] == 5
        assert doc["timers"]["phase"]["max"] == 3.0

    def test_merge_is_additive_for_counters_and_timers(self):
        a = MetricsRegistry()
        b = MetricsRegistry()
        a.inc("n", 2)
        b.inc("n", 3)
        b.inc("only_b")
        a.add_time("t", 1.0)
        b.add_time("t", 2.0)
        a.set_gauge("g", 1.0)
        b.set_gauge("g", 9.0)
        a.merge(b.to_dict())
        assert a.value("n") == 5
        assert a.value("only_b") == 1
        assert a.timer_seconds("t") == 3.0
        assert a.timer_count("t") == 2
        assert a.gauge("g") == 9.0  # gauges are last-write

    def test_merge_order_independent_for_counters(self):
        parts = []
        for k in range(3):
            reg = MetricsRegistry()
            reg.inc("n", k + 1)
            reg.add_time("t", float(k))
            parts.append(reg.to_dict())
        fwd, rev = MetricsRegistry(), MetricsRegistry()
        for part in parts:
            fwd.merge(part)
        for part in reversed(parts):
            rev.merge(part)
        assert fwd.to_dict()["counters"] == rev.to_dict()["counters"]
        assert fwd.to_dict()["timers"] == rev.to_dict()["timers"]

    def test_delta_snapshots_counter_increments(self):
        reg = MetricsRegistry()
        reg.inc("cache.hits", 2)
        snap = reg.delta()
        assert snap.since() == {}
        reg.inc("cache.hits", 3)
        reg.inc("cache.misses")
        assert snap.since() == {"cache.hits": 3, "cache.misses": 1}
        assert snap.value("cache.hits") == 3
        assert snap.value("cache.misses") == 1
        assert snap.value("never") == 0

    def test_null_registry_is_inert(self):
        null = NullRegistry()
        null.inc("n", 5)
        null.set_gauge("g", 1.0)
        null.add_time("t", 1.0)
        with null.timer("t"):
            pass
        null.merge({"counters": {"n": 9}})
        assert not null.enabled
        assert null.value("n") == 0
        assert null.to_dict() == {"counters": {}, "gauges": {}, "timers": {}}

    def test_ambient_registry_installs_and_restores(self):
        assert current_registry() is NULL_REGISTRY
        reg = MetricsRegistry()
        with use_registry(reg):
            assert current_registry() is reg
            current_registry().inc("seen")
        assert current_registry() is NULL_REGISTRY
        assert reg.value("seen") == 1


# ----------------------------------------------------------------------
# tracing
# ----------------------------------------------------------------------
class TestTracer:
    def test_spans_nest_and_aggregate(self):
        tracer = Tracer(now=FakeClock())
        with tracer.span("outer", kind="x"):
            with tracer.span("inner"):
                pass
        with tracer.span("outer"):
            pass
        # outer #1: start=1 end=4; inner: start=2 end=3; outer #2: 5..6
        assert tracer.phase_seconds() == {"outer": 4.0}
        records = tracer.to_records()
        assert [r["name"] for r in records] == ["outer", "inner", "outer"]
        assert records[0]["parent"] is None
        assert records[1]["parent"] == records[0]["id"]
        assert records[0]["attrs"] == {"kind": "x"}

    def test_jsonl_roundtrip(self, tmp_path):
        tracer = Tracer(now=FakeClock())
        with tracer.span("a"):
            with tracer.span("b", cells=3):
                pass
        path = tracer.write_jsonl(tmp_path / "spans.jsonl")
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert [r["name"] for r in lines] == ["a", "b"]
        assert lines[1]["attrs"] == {"cells": 3}

    def test_module_level_span_is_noop_without_tracer(self):
        with span("ignored", anything=1):
            pass  # must not raise, must not record anywhere

    def test_module_level_span_records_into_ambient(self):
        tracer = Tracer(now=FakeClock())
        with use_tracer(tracer):
            with span("phase"):
                pass
        assert list(tracer.phase_seconds()) == ["phase"]


# ----------------------------------------------------------------------
# manifests
# ----------------------------------------------------------------------
class TestManifest:
    def _registry(self):
        reg = MetricsRegistry()
        reg.inc("sim.jobs_completed", 100)
        reg.inc("sim.events", 250)
        reg.inc("sim.runs", 2)
        reg.inc("cache.hits", 3)
        reg.inc("cache.misses", 1)
        return reg

    def test_build_write_read_roundtrip(self, tmp_path):
        tracer = Tracer(now=FakeClock())
        with tracer.span("execute"):
            pass
        doc = build_manifest(
            registry=self._registry(),
            tracer=tracer,
            command="evaluate",
            workers=4,
            wall_seconds=2.0,
        )
        assert doc["simulation"]["jobs_simulated"] == 100
        assert doc["jobs_per_sec"] == 50.0
        assert doc["cache"]["hits"] == 3
        assert doc["phases"] == {"execute": 1.0}
        path = write_manifest(tmp_path, doc)
        assert path.name == MANIFEST_NAME
        assert read_manifest(tmp_path) == read_manifest(path)
        assert read_manifest(tmp_path)["command"] == "evaluate"

    def test_read_manifest_names_the_flag_when_missing(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="--telemetry"):
            read_manifest(tmp_path)

    def test_render_mentions_the_headlines(self, tmp_path):
        doc = build_manifest(
            registry=self._registry(), command="evaluate", wall_seconds=2.0
        )
        text = render_manifest(doc)
        assert "100 jobs" in text
        assert "3 hits / 1 misses" in text
        assert "50 jobs/sec" in text

    def test_spec_identity_is_stable_across_cache_dirs(self, tmp_path):
        fingerprints = []
        for cache_dir in ("cache_a", "cache_b"):
            tele = tmp_path / f"tele_{cache_dir}"
            assert (
                main(
                    [
                        "evaluate",
                        "--trace",
                        str(TINY_SWF),
                        "--window-jobs",
                        "50",
                        "--warmup",
                        "5",
                        "--bootstrap",
                        "0",
                        "--cache",
                        str(tmp_path / cache_dir),
                        "--telemetry",
                        str(tele),
                    ]
                )
                == 0
            )
            fingerprints.append(read_manifest(tele)["spec"]["fingerprint"])
        assert fingerprints[0] == fingerprints[1]


# ----------------------------------------------------------------------
# the never-forks-a-result contract, end to end
# ----------------------------------------------------------------------
def _evaluate_cli(tmp_path: Path, tag: str, *extra: str) -> Path:
    out = tmp_path / tag
    argv = [
        "evaluate",
        "--trace",
        str(TINY_SWF),
        "--window-jobs",
        "50",
        "--warmup",
        "5",
        "--bootstrap",
        "200",
        "--output-dir",
        str(out),
        *extra,
    ]
    assert main(argv) == 0
    return out


class TestTelemetryNeverForksAResult:
    @pytest.mark.parametrize("workers", ["1", "4"])
    def test_reports_byte_identical_with_and_without(
        self, tmp_path, capsys, workers
    ):
        plain = _evaluate_cli(tmp_path, f"plain{workers}", "--workers", workers)
        plain_stdout = capsys.readouterr().out.replace(f"plain{workers}", "OUT")
        tele = _evaluate_cli(
            tmp_path,
            f"tele{workers}",
            "--workers",
            workers,
            "--telemetry",
            str(tmp_path / f"tdir{workers}"),
        )
        tele_stdout = capsys.readouterr().out.replace(f"tele{workers}", "OUT")
        for name in ("eval_matrix.json", "eval_matrix.csv", "eval_matrix_deltas.csv"):
            assert (plain / name).read_bytes() == (tele / name).read_bytes(), name
        assert plain_stdout == tele_stdout
        manifest = read_manifest(tmp_path / f"tdir{workers}")
        assert manifest["simulation"]["jobs_simulated"] > 0
        assert (tmp_path / f"tdir{workers}" / "spans.jsonl").is_file()
        assert (tmp_path / f"tdir{workers}" / "metrics.json").is_file()

    def test_merged_parallel_metrics_equal_serial(self, tmp_path):
        spec = EvaluateSpec(
            trace=str(TINY_SWF),
            window_jobs=50,
            warmup=5,
            bootstrap=0,
            policies=("fcfs", "f1"),
            backfill=("none", "easy"),
        )
        counters = {}
        for workers in (1, 4):
            registry = MetricsRegistry()
            with use_registry(registry):
                api.run(spec, workers=workers)
            counters[workers] = registry.to_dict()["counters"]
        assert counters[1] == counters[4]
        assert counters[1]["sim.jobs_completed"] > 0
        assert counters[1]["eval.cells.simulated"] == 16


# ----------------------------------------------------------------------
# cache accounting and the stats verb
# ----------------------------------------------------------------------
class TestCacheMetrics:
    def test_cache_counters_and_delta(self, tmp_path):
        cache = ArtifactCache(tmp_path / "cache")
        assert cache.load_json("k") is None  # miss
        cache.store_json("k", {"x": 1})
        snap = cache.metrics.delta()
        assert cache.load_json("k") == {"x": 1}  # hit
        assert cache.hits == 1
        assert cache.misses == 1
        assert snap.since()["cache.hits"] == 1
        assert cache.metrics.value("cache.bytes_stored") > 0
        assert cache.metrics.value("cache.bytes_loaded") > 0

    def test_injected_registry_is_used(self, tmp_path):
        shared = MetricsRegistry()
        cache = ArtifactCache(tmp_path / "cache", metrics=shared)
        cache.load_json("missing")
        assert shared.value("cache.misses") == 1


class TestStatsVerb:
    def test_stats_renders_a_run_manifest(self, tmp_path, capsys):
        tele = tmp_path / "tele"
        _evaluate_cli(tmp_path, "run", "--telemetry", str(tele))
        capsys.readouterr()
        assert main(["stats", str(tele)]) == 0
        out = capsys.readouterr().out
        assert "run manifest" in out
        assert "fingerprint=" in out
        assert "jobs/sec" in out

    def test_manifest_records_the_resolved_run_knobs(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setenv("REPRO_WORKERS", "2")
        monkeypatch.setenv("REPRO_SCALE", "smoke")
        monkeypatch.setenv("REPRO_SIM_KERNEL", "python")
        tele = tmp_path / "tele"
        _evaluate_cli(tmp_path, "run", "--telemetry", str(tele))
        execution = read_manifest(tele)["execution"]
        assert (
            execution["workers"],
            execution["scale"],
            execution["sim_kernel"],
        ) == (2, "smoke", "python")
        capsys.readouterr()
        assert main(["stats", str(tele)]) == 0
        out = capsys.readouterr().out
        assert "workers=2 scale=smoke kernel=python" in out

    def test_stats_renders_a_manifest_with_backend_and_queue_keys(
        self, tmp_path, capsys
    ):
        """Manifests from before the single pool carry ``execution.backend``
        and ``runtime.queue_*``; ``stats`` still renders them."""
        doc = build_manifest(registry=MetricsRegistry(), workers=2, scale="smoke")
        doc["execution"]["backend"] = "workqueue"
        doc["runtime"].update(
            queue_tasks=16, queue_takeovers=1, queue_worker_deaths=1,
            queue_respawns=1,
        )
        write_manifest(tmp_path, doc)
        assert main(["stats", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "execution: workers=2 scale=smoke" in out

    def test_stats_without_manifest_names_the_flag(self, tmp_path):
        with pytest.raises(SystemExit, match="--telemetry"):
            main(["stats", str(tmp_path)])
