"""Tests for the trace acquisition registry and `repro fetch` path.

Everything runs against a ``file://``-backed fixture registry built from
the bundled ``tests/data/ctc_tiny.swf``, so the whole download → verify
→ resolve → evaluate pipeline is exercised without any network.
"""

import dataclasses
import gzip
import hashlib
import json
import os
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from repro import api
from repro.cli import main
from repro.eval import matrix_to_json, paper_comparison_doc, render_paper_comparison
from repro.specs import EvaluateSpec, SimulateSpec, SpecError
from repro.traces import (
    ChecksumMismatchError,
    TraceUnavailableError,
    UnknownTraceError,
    cached_trace_path,
    fetch_trace,
    get_source,
    is_trace_ref,
    load_registry_file,
    paper_prefix_for,
    resolve_trace_ref,
    trace_cache_dir,
    trace_ref_name,
    trace_sources,
    verify_cached,
)
from repro.workloads.swf import parse_swf_text, read_swf, write_swf

FIXTURE = Path(__file__).parent / "data" / "ctc_tiny.swf"


def write_registry(path: Path, entries: dict) -> None:
    path.write_text(json.dumps(entries), encoding="utf-8")


@pytest.fixture
def fx(tmp_path, monkeypatch):
    """A file://-backed fixture registry + empty trace cache."""
    raw = FIXTURE.read_bytes()
    source_dir = tmp_path / "archive"
    source_dir.mkdir()
    gz = source_dir / "fixture.swf.gz"
    gz.write_bytes(gzip.compress(raw))
    sha = hashlib.sha256(raw).hexdigest()
    registry = tmp_path / "registry.json"
    write_registry(
        registry,
        {
            "fixture": {
                "display_name": "CTC SP2 (bundled fixture)",
                "url": gz.as_uri(),
                "sha256": sha,
                "license": "bundled test fixture; freely redistributable",
                "paper_row": "ctc_sp2",
            }
        },
    )
    cache = tmp_path / "cache"
    monkeypatch.setenv("REPRO_TRACE_REGISTRY", str(registry))
    monkeypatch.setenv("REPRO_TRACE_DIR", str(cache))
    return SimpleNamespace(
        raw=raw, gz=gz, sha=sha, registry=registry, cache=cache, tmp=tmp_path
    )


class TestRegistry:
    def test_builtin_paper_traces_registered(self, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE_REGISTRY", raising=False)
        sources = trace_sources()
        for key in ("curie", "anl_intrepid", "sdsc_blue", "ctc_sp2"):
            assert key in sources
            assert sources[key].url.endswith(".swf.gz")
            assert len(sources[key].sha256) == 64
            assert "workload" in sources[key].license  # PWA licensing note

    def test_overlay_extends_and_overrides(self, fx):
        sources = trace_sources()
        assert "fixture" in sources  # overlay entry
        assert "curie" in sources  # built-ins survive
        assert sources["fixture"].url == fx.gz.as_uri()

    def test_unknown_name_lists_registered(self, fx):
        with pytest.raises(UnknownTraceError, match="fixture"):
            get_source("nope")

    def test_ref_parsing(self):
        assert is_trace_ref("pwa:curie")
        assert not is_trace_ref("/tmp/curie.swf")
        assert trace_ref_name("pwa:curie") == "curie"
        with pytest.raises(ValueError, match="empty"):
            trace_ref_name("pwa:")

    def test_registry_file_validation(self, tmp_path):
        bad = tmp_path / "bad.json"
        write_registry(bad, {"x": {"url": "file:///x"}})
        with pytest.raises(ValueError, match="lacks sha256"):
            load_registry_file(bad)
        write_registry(bad, {"x": {"url": "u", "sha256": "0" * 64, "bogus": 1}})
        with pytest.raises(ValueError, match="unknown key"):
            load_registry_file(bad)
        write_registry(bad, {"x": {"url": "u", "sha256": "xyz"}})
        with pytest.raises(ValueError, match="64 lowercase hex"):
            load_registry_file(bad)
        write_registry(
            bad, {"x": {"url": "u", "sha256": "0" * 64, "paper_row": 123}}
        )
        with pytest.raises(ValueError, match="paper_row must be a string"):
            load_registry_file(bad)

    def test_paper_prefix_resolution(self, fx):
        assert paper_prefix_for("pwa:fixture") == "ctc_sp2"
        assert paper_prefix_for("pwa:curie") == "curie"
        assert paper_prefix_for("/some/file.swf") is None
        assert paper_prefix_for(None, "curie") == "curie"
        assert paper_prefix_for(None, None) is None


class TestFetch:
    def test_fetch_downloads_decompresses_verifies(self, fx):
        result = fetch_trace("fixture")
        assert not result.was_cached
        assert result.path == fx.cache / "fixture.swf"
        assert result.path.read_bytes() == fx.raw  # decompressed, byte-exact
        assert result.sha256 == fx.sha

    def test_refetch_is_idempotent_and_offline(self, fx):
        fetch_trace("fixture")
        fx.gz.unlink()  # no source any more: a re-fetch must not download
        result = fetch_trace("fixture")
        assert result.was_cached
        assert result.path.read_bytes() == fx.raw

    def test_checksum_mismatch_rejected_and_nothing_cached(self, fx):
        write_registry(
            fx.registry,
            {"fixture": {"url": fx.gz.as_uri(), "sha256": "0" * 64}},
        )
        with pytest.raises(ChecksumMismatchError, match="expected sha256"):
            fetch_trace("fixture")
        assert not (fx.cache / "fixture.swf").exists()
        assert list(fx.cache.glob("*.tmp*")) == []  # no partial files left

    def test_interrupted_download_recovery(self, fx):
        # A killed fetch leaves a stale temp file and possibly a truncated
        # destination from some earlier epoch; the next fetch must sweep
        # the temp file and replace the corrupt entry atomically.
        import subprocess
        import sys

        dead = subprocess.Popen([sys.executable, "-c", "pass"])
        dead.wait()
        fx.cache.mkdir(parents=True)
        dest = fx.cache / "fixture.swf"
        dest.write_bytes(fx.raw[: len(fx.raw) // 2])  # truncated
        stale = fx.cache / f"fixture.swf.tmp{dead.pid}"
        stale.write_bytes(b"partial download")
        result = fetch_trace("fixture")
        assert not result.was_cached  # the corrupt entry was not trusted
        assert dest.read_bytes() == fx.raw
        assert not stale.exists()

    def test_concurrent_fetch_temp_file_left_alone(self, fx):
        # A temp file owned by a *live* process is a concurrent fetch in
        # progress and must not be swept.
        import subprocess
        import sys

        live = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(30)"])
        try:
            fx.cache.mkdir(parents=True)
            inflight = fx.cache / f"fixture.swf.tmp{live.pid}"
            inflight.write_bytes(b"concurrent download in progress")
            result = fetch_trace("fixture")
            assert result.path.read_bytes() == fx.raw
            assert inflight.exists()  # the live fetch was not disturbed
        finally:
            live.kill()
            live.wait()

    def test_tampered_cache_detected_on_refetch(self, fx):
        fetch_trace("fixture")
        (fx.cache / "fixture.swf").write_bytes(b"; tampered\n")
        result = fetch_trace("fixture")
        assert not result.was_cached
        assert (fx.cache / "fixture.swf").read_bytes() == fx.raw

    def test_force_redownloads(self, fx):
        fetch_trace("fixture")
        result = fetch_trace("fixture", force=True)
        assert not result.was_cached

    def test_uncompressed_source_accepted(self, fx):
        # registries may point at plain .swf URLs too: magic sniffing, not
        # the extension, decides decompression
        plain = fx.tmp / "archive" / "plain.swf"
        plain.write_bytes(fx.raw)
        write_registry(
            fx.registry, {"fixture": {"url": plain.as_uri(), "sha256": fx.sha}}
        )
        result = fetch_trace("fixture")
        assert result.path.read_bytes() == fx.raw

    def test_dead_url_raises_fetch_error(self, fx):
        write_registry(
            fx.registry,
            {
                "fixture": {
                    "url": (fx.tmp / "gone.swf.gz").as_uri(),
                    "sha256": fx.sha,
                }
            },
        )
        with pytest.raises(ValueError, match="cannot download"):
            fetch_trace("fixture")

    def test_cache_dir_env_and_argument(self, fx):
        explicit = fx.tmp / "elsewhere"
        result = fetch_trace("fixture", directory=explicit)
        assert result.path.parent == explicit
        assert trace_cache_dir() == fx.cache
        assert cached_trace_path("fixture") == fx.cache / "fixture.swf"


class TestResolve:
    def test_plain_paths_pass_through(self, fx):
        assert resolve_trace_ref("some/file.swf") == "some/file.swf"

    def test_missing_trace_names_fetch_command(self, fx):
        with pytest.raises(TraceUnavailableError, match="repro-sched fetch fixture"):
            resolve_trace_ref("pwa:fixture")

    def test_resolves_to_verified_cache_path(self, fx):
        fetch_trace("fixture")
        path = resolve_trace_ref("pwa:fixture")
        assert Path(path) == fx.cache / "fixture.swf"

    def test_corrupt_cache_is_unavailable(self, fx):
        fetch_trace("fixture")
        (fx.cache / "fixture.swf").write_bytes(b"garbage")
        with pytest.raises(TraceUnavailableError):
            resolve_trace_ref("pwa:fixture")
        assert verify_cached("fixture") is None


class TestSpecIntegration:
    def spec(self, **kw):
        kw.setdefault("trace", "pwa:fixture")
        kw.setdefault("policies", ("fcfs", "f1"))
        kw.setdefault("backfill", ("none",))
        kw.setdefault("window_jobs", 50)
        kw.setdefault("warmup", 5)
        kw.setdefault("bootstrap", 50)
        return EvaluateSpec(**kw)

    def test_unknown_ref_rejected_at_construction(self, fx):
        with pytest.raises(SpecError, match="unknown trace"):
            self.spec(trace="pwa:nope")
        with pytest.raises(SpecError, match="unknown trace"):
            SimulateSpec(swf="pwa:nope")

    def test_fingerprint_independent_of_cache_location(self, fx, monkeypatch):
        fp_before_fetch = self.spec().fingerprint()
        fetch_trace("fixture")
        assert self.spec().fingerprint() == fp_before_fetch
        monkeypatch.setenv("REPRO_TRACE_DIR", str(fx.tmp / "other-cache"))
        assert self.spec().fingerprint() == fp_before_fetch

    def test_fingerprint_is_content_addressed(self, fx):
        fp_original = self.spec().fingerprint()
        sim_fp_original = SimulateSpec(swf="pwa:fixture").fingerprint()
        # same content behind a different URL: identity unchanged
        mirror = fx.tmp / "mirror.swf.gz"
        mirror.write_bytes(fx.gz.read_bytes())
        write_registry(
            fx.registry, {"fixture": {"url": mirror.as_uri(), "sha256": fx.sha}}
        )
        assert self.spec().fingerprint() == fp_original
        assert SimulateSpec(swf="pwa:fixture").fingerprint() == sim_fp_original
        # different content hash: identity forks
        write_registry(
            fx.registry,
            {"fixture": {"url": mirror.as_uri(), "sha256": "f" * 64}},
        )
        assert self.spec().fingerprint() != fp_original
        assert SimulateSpec(swf="pwa:fixture").fingerprint() != sim_fp_original

    def test_pwa_and_path_fingerprints_differ_but_reports_match(self, fx):
        """The spec identity spells the source differently (content hash
        vs path), but the executed result is byte-identical because the
        bytes are."""
        fetch_trace("fixture")
        by_ref = api.run(self.spec())
        by_path = api.run(self.spec(trace=str(FIXTURE)))
        assert matrix_to_json(by_ref) == matrix_to_json(by_path)

    def test_streamed_pwa_evaluation_matches_materialised(self, fx):
        from repro.eval.matrix import run_matrix

        path = fetch_trace("fixture").path
        spec = self.spec()
        batch = run_matrix(read_swf(path), spec)
        stream = api.run(spec)
        assert matrix_to_json(batch) == matrix_to_json(stream)

    def test_cache_hits_across_fresh_refetch(self, fx, tmp_path):
        """Byte-identical reports whether the trace came from the cache
        or a fresh fetch — per-cell artifacts are content-addressed."""
        fetch_trace("fixture")
        cache = tmp_path / "artifacts"
        cold = api.run(self.spec(), cache=cache)
        assert cold.n_simulated > 0
        warm = api.run(self.spec(), cache=cache)
        # wipe the trace cache and re-fetch from the archive
        (fx.cache / "fixture.swf").unlink()
        fetch_trace("fixture")
        refetched = api.run(self.spec(), cache=cache)
        assert refetched.n_simulated == 0
        assert refetched.n_cached == cold.n_simulated
        assert matrix_to_json(warm) == matrix_to_json(refetched)

    def test_simulate_spec_pwa_ref(self, fx):
        fetch_trace("fixture")
        report = api.run(SimulateSpec(swf="pwa:fixture", policy="fcfs"))
        assert report.n_jobs == len(read_swf(FIXTURE))
        assert report.nmax == 338

    def test_unavailable_trace_error_reaches_api_callers(self, fx):
        with pytest.raises(ValueError, match="repro-sched fetch"):
            api.run(self.spec())


class TestGzRoundTripThroughFetch:
    def test_write_swf_gz_fetch_parse_round_trip(self, fx, tmp_path):
        """A workload written with write_swf to .gz, registered, fetched
        and re-parsed comes back bit-identical."""
        wl = parse_swf_text(FIXTURE.read_text())
        gz = tmp_path / "round.swf.gz"
        write_swf(wl, gz)
        write_registry(
            fx.registry,
            {
                "round": {
                    "url": gz.as_uri(),
                    "sha256": hashlib.sha256(
                        gzip.decompress(gz.read_bytes())
                    ).hexdigest(),
                }
            },
        )
        result = fetch_trace("round")
        back = read_swf(result.path)
        np.testing.assert_array_equal(back.submit, wl.submit)
        np.testing.assert_array_equal(back.runtime, wl.runtime)
        np.testing.assert_array_equal(back.estimate, wl.estimate)
        np.testing.assert_array_equal(back.size, wl.size)


class TestPaperComparison:
    def run_fixture(self, fx, **kw):
        fetch_trace("fixture")
        kw.setdefault("backfill", ("none", "easy"))
        return api.run(
            EvaluateSpec(
                trace="pwa:fixture",
                policies=("fcfs", "f1"),
                window_jobs=50,
                warmup=5,
                bootstrap=50,
                **kw,
            )
        )

    def test_doc_maps_modes_to_paper_rows(self, fx):
        result = self.run_fixture(fx)
        doc = paper_comparison_doc(result, "ctc_sp2")
        assert doc["none"]["row"] == "ctc_sp2_actual"
        assert doc["easy"]["row"] == "ctc_sp2_backfill"
        cell = doc["none"]["policies"]["FCFS"]
        assert cell["paper"] == pytest.approx(439.72)
        assert cell["ratio"] == pytest.approx(cell["measured"] / cell["paper"])

    def test_estimates_variant_selected(self, fx):
        result = self.run_fixture(fx, backfill=("none",), estimates=True)
        doc = paper_comparison_doc(result, "ctc_sp2")
        assert doc["none"]["row"] == "ctc_sp2_estimates"

    def test_render_block_and_absence(self, fx):
        result = self.run_fixture(fx)
        block = render_paper_comparison(result, "ctc_sp2")
        assert "paper-vs-measured" in block
        assert "ctc_sp2_actual" in block
        assert render_paper_comparison(result, "no_such_trace") is None

    def test_json_paper_block(self, fx):
        result = self.run_fixture(fx)
        doc = json.loads(matrix_to_json(result, paper="ctc_sp2"))
        assert doc["paper"]["prefix"] == "ctc_sp2"
        assert "FCFS" in doc["paper"]["comparison"]["none"]["policies"]
        # without the paper argument the document is unchanged
        assert "paper" not in json.loads(matrix_to_json(result))


class TestFetchCli:
    def test_bare_fetch_lists_registry(self, fx, capsys):
        assert main(["fetch"]) == 0
        out = capsys.readouterr().out
        assert "pwa:fixture" in out
        assert "not fetched" in out
        assert "license" in out

    def test_fetch_then_evaluate_end_to_end(self, fx, capsys, tmp_path):
        assert main(["fetch", "fixture"]) == 0
        out = capsys.readouterr().out
        assert "sha256 verified" in out
        out_dir = tmp_path / "report"
        assert (
            main(
                [
                    "evaluate",
                    "--trace",
                    "pwa:fixture",
                    "--policies",
                    "fcfs,f1",
                    "--window-jobs",
                    "50",
                    "--warmup",
                    "5",
                    "--bootstrap",
                    "50",
                    "--output-dir",
                    str(out_dir),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "paper-vs-measured" in out
        doc = json.loads((out_dir / "eval_matrix.json").read_text())
        assert doc["paper"]["prefix"] == "ctc_sp2"

    def test_fetch_unknown_name_exits_cleanly(self, fx):
        with pytest.raises(SystemExit, match="unknown trace"):
            main(["fetch", "nope"])

    def test_evaluate_unfetched_ref_names_fetch(self, fx):
        with pytest.raises(SystemExit, match="repro-sched fetch fixture"):
            main(["evaluate", "--trace", "pwa:fixture", "--window-jobs", "50"])

    def test_synthetic_fallback_flag(self, fx, capsys):
        # overlay an unfetched entry whose name has a synthetic stand-in
        write_registry(
            fx.registry,
            {"ctc_sp2": {"url": fx.gz.as_uri(), "sha256": fx.sha}},
        )
        code = main(
            [
                "evaluate",
                "--trace",
                "pwa:ctc_sp2",
                "--synthetic-fallback",
                "--jobs",
                "200",
                "--window-jobs",
                "50",
                "--warmup",
                "5",
                "--bootstrap",
                "50",
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "falling back to the synthetic stand-in 'ctc_sp2'" in captured.err
        assert "Evaluation matrix" in captured.out

    def test_synthetic_fallback_without_stand_in_fails(self, fx):
        with pytest.raises(SystemExit, match="no synthetic stand-in"):
            main(
                [
                    "evaluate",
                    "--trace",
                    "pwa:fixture",
                    "--synthetic-fallback",
                    "--window-jobs",
                    "50",
                ]
            )

    def test_fetch_dir_flag(self, fx, tmp_path, capsys):
        target = tmp_path / "elsewhere"
        assert main(["fetch", "fixture", "--dir", str(target)]) == 0
        assert (target / "fixture.swf").exists()

    def test_simulate_pwa_ref(self, fx, capsys):
        main(["fetch", "fixture"])
        capsys.readouterr()
        assert main(["simulate", "--swf", "pwa:fixture", "--policy", "fcfs"]) == 0
        assert "nmax=338" in capsys.readouterr().out

    def test_analyze_pwa_ref(self, fx, capsys):
        main(["fetch", "fixture"])
        capsys.readouterr()
        assert main(["analyze", "--swf", "pwa:fixture"]) == 0
        assert "CTC SP2" in capsys.readouterr().out

    def test_analyze_unfetched_ref_names_fetch(self, fx):
        with pytest.raises(SystemExit, match="repro-sched fetch"):
            main(["analyze", "--swf", "pwa:fixture"])

    def test_info_lists_pwa_traces(self, fx, capsys):
        assert main(["info"]) == 0
        assert "pwa:fixture" in capsys.readouterr().out
