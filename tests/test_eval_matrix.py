"""Tests for repro.eval.matrix and repro.eval.report."""

import json

import numpy as np
import pytest

from repro.eval.matrix import MatrixConfig, MatrixResult, run_matrix
from repro.eval.windows import stream_windows
from repro.eval.report import (
    matrix_to_csv,
    matrix_to_json,
    render_matrix_report,
    write_matrix_report,
)
from repro.experiments.export import write_all
from repro.runtime import ArtifactCache
from repro.workloads.traces import synthetic_trace


@pytest.fixture(scope="module")
def trace():
    return synthetic_trace("ctc_sp2", n_jobs=200, seed=7)


@pytest.fixture(scope="module")
def config():
    return MatrixConfig(
        policies=("fcfs", "f1"),
        backfill=("none", "easy"),
        window_jobs=50,
        warmup=5,
    )


@pytest.fixture(scope="module")
def result(trace, config):
    return run_matrix(trace, config)


class TestConfig:
    def test_policy_names_canonicalised(self):
        cfg = MatrixConfig(policies=("fcfs", "spt"), window_jobs=10)
        assert cfg.policies == ("FCFS", "SPT")

    def test_backfill_tokens_normalised(self):
        cfg = MatrixConfig(
            policies=("fcfs",), backfill=(False, True), window_jobs=10
        )
        assert cfg.backfill == ("none", "easy")

    def test_unknown_policy_rejected(self):
        with pytest.raises(KeyError, match="unknown policy"):
            MatrixConfig(policies=("nope",), window_jobs=10)

    def test_unknown_backfill_rejected(self):
        with pytest.raises(ValueError, match="unknown backfill"):
            MatrixConfig(policies=("fcfs",), backfill=("often",), window_jobs=10)

    def test_duplicate_policies_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            MatrixConfig(policies=("fcfs", "FCFS"), window_jobs=10)

    def test_exactly_one_window_axis(self):
        with pytest.raises(ValueError, match="exactly one"):
            MatrixConfig(policies=("fcfs",))
        with pytest.raises(ValueError, match="exactly one"):
            MatrixConfig(policies=("fcfs",), window_jobs=5, window_seconds=10.0)

    def test_window_knobs_validated_at_config_time(self):
        with pytest.raises(ValueError, match="window_jobs"):
            MatrixConfig(policies=("fcfs",), window_jobs=0)
        with pytest.raises(ValueError, match="window_seconds"):
            MatrixConfig(policies=("fcfs",), window_seconds=-1.0)
        with pytest.raises(ValueError, match="warmup"):
            MatrixConfig(policies=("fcfs",), window_jobs=5, warmup=-1)

    @pytest.mark.parametrize(
        "warmup, error", [(2.5, TypeError), (True, TypeError), (-1, ValueError)]
    )
    def test_warmup_must_be_a_non_negative_integer(self, warmup, error):
        with pytest.raises(error, match="warmup must be"):
            MatrixConfig(policies=("fcfs",), window_jobs=5, warmup=warmup)

    def test_backfill_vocabulary_shared_with_engine(self):
        cfg = MatrixConfig(
            policies=("fcfs",), backfill=("off",), window_jobs=10
        )
        assert cfg.backfill == ("none",)


class TestRunMatrix:
    def test_cell_count_and_order(self, result):
        assert len(result.cells) == result.n_windows * 4
        # window-major enumeration: policies x backfill cycle fastest
        head = [(c.window, c.policy, c.backfill) for c in result.cells[:5]]
        assert head == [
            (0, "FCFS", "none"),
            (0, "FCFS", "easy"),
            (0, "F1", "none"),
            (0, "F1", "easy"),
            (1, "FCFS", "none"),
        ]

    def test_shapes(self, result, config):
        assert result.n_windows == 4
        assert result.n_simulated == 16
        assert result.n_cached == 0
        for (p, b), s in result.summaries().items():
            assert p in config.policies and b in config.backfill
            assert s.n == result.n_windows

    def test_samples_and_cell_lookup(self, result):
        samples = result.samples("FCFS", "none")
        assert len(samples) == result.n_windows
        assert samples[2] == result.cell(2, "FCFS", "none").ave_bsld

    def test_warmup_accounting(self, result):
        for c in result.cells:
            assert c.n_scored == c.n_jobs - 5

    def test_paired_deltas_pair_within_mode(self, result):
        deltas = result.paired_deltas("fcfs")
        assert set(deltas) == {("F1", "none"), ("F1", "easy")}
        np.testing.assert_allclose(
            deltas[("F1", "none")],
            result.samples("F1", "none") - result.samples("FCFS", "none"),
        )

    def test_paired_deltas_unknown_baseline(self, result):
        with pytest.raises(ValueError, match="not part of this matrix"):
            result.paired_deltas("spt")

    def test_workers_bit_identical(self, trace, config, result):
        fanned = run_matrix(trace, config, workers=4)
        assert fanned.cells == result.cells

    def test_oversized_job_fails_fast_with_name(self, trace, config):
        import dataclasses

        bad_sizes = trace.size.copy()
        bad_sizes[17] = trace.nmax + 1
        bad = dataclasses.replace(trace, size=bad_sizes)
        with pytest.raises(ValueError, match=rf"job {int(bad.job_ids[17])} "):
            run_matrix(bad, config)

    def test_unknown_machine_size_rejected(self, trace, config):
        anon = type(trace)(
            submit=trace.submit,
            runtime=trace.runtime,
            size=trace.size,
            estimate=trace.estimate,
            job_ids=trace.job_ids,
            nmax=0,
        )
        with pytest.raises(ValueError, match="machine size unknown"):
            run_matrix(anon, config)

    def test_explicit_nmax_overrides(self, trace):
        cfg = MatrixConfig(
            policies=("fcfs",), nmax=trace.nmax * 2, window_jobs=100
        )
        res = run_matrix(trace, cfg)
        assert res.nmax == trace.nmax * 2


class TestCache:
    def test_second_run_simulates_nothing(self, trace, config, result, tmp_path):
        first = run_matrix(trace, config, cache=tmp_path)
        assert (first.n_simulated, first.n_cached) == (16, 0)
        second = run_matrix(trace, config, workers=2, cache=tmp_path)
        assert (second.n_simulated, second.n_cached) == (0, 16)
        # cached results identical to fresh ones except the cached marker
        for a, b in zip(first.cells, second.cells):
            assert a.to_entry() == b.to_entry()
            assert not a.cached and b.cached

    def test_config_change_invalidates(self, trace, config, tmp_path):
        run_matrix(trace, config, cache=tmp_path)
        import dataclasses

        other = dataclasses.replace(config, use_estimates=True)
        res = run_matrix(trace, other, cache=tmp_path)
        assert res.n_simulated == 16

    def test_accepts_artifact_cache_instance(self, trace, config, tmp_path):
        store = ArtifactCache(tmp_path)
        run_matrix(trace, config, cache=store)
        assert store.misses == 16
        run_matrix(trace, config, cache=store)
        assert store.hits == 16

    def test_corrupt_entry_is_resimulated(self, trace, config, tmp_path):
        store = ArtifactCache(tmp_path)
        run_matrix(trace, config, cache=store)
        victim = next(tmp_path.glob("eval-*.json"))
        victim.write_text("{ not json", encoding="utf-8")
        res = run_matrix(trace, config, cache=store)
        assert res.n_simulated == 1
        assert res.n_cached == 15


class TestReport:
    def test_csv_one_row_per_cell(self, result):
        text = matrix_to_csv(result)
        lines = text.strip().splitlines()
        assert lines[0].startswith("# trace=")
        assert lines[1].startswith("window,policy,backfill")
        assert len(lines) == 2 + len(result.cells)

    def test_json_round_trip(self, result):
        doc = json.loads(matrix_to_json(result))
        assert doc["n_windows"] == result.n_windows
        assert len(doc["cells"]) == len(result.cells)
        assert doc["config"]["policies"] == ["FCFS", "F1"]
        assert "FCFS/none" in doc["summaries"]

    def test_render_mentions_all_series(self, result):
        text = render_matrix_report(result)
        assert "backfill=none" in text
        assert "backfill=easy" in text
        assert "paired Δ vs FCFS" in text
        assert "simulated 16, cached 0" in text

    def test_render_custom_baseline(self, result):
        text = render_matrix_report(result, baseline="F1")
        assert "paired Δ vs F1" in text

    def test_render_baseline_spelling_canonicalised(self, result):
        # the CLI's own default spelling is lowercase; it must not crash
        assert render_matrix_report(result, baseline="fcfs") == render_matrix_report(
            result, baseline="FCFS"
        )

    def test_write_matrix_report(self, result, tmp_path):
        paths = write_matrix_report(tmp_path, result)
        assert sorted(p.name for p in paths) == [
            "eval_matrix.csv",
            "eval_matrix.json",
            "eval_matrix_deltas.csv",
        ]
        assert all(p.exists() for p in paths)

    def test_write_matrix_report_single_policy_no_deltas(self, trace, tmp_path):
        solo = run_matrix(trace, MatrixConfig(policies=("fcfs",), window_jobs=50))
        paths = write_matrix_report(tmp_path, solo)
        assert sorted(p.name for p in paths) == ["eval_matrix.csv", "eval_matrix.json"]

    def test_write_all_wiring(self, result, tmp_path):
        paths = write_all(tmp_path, matrix=result)
        assert sorted(p.name for p in paths) == [
            "eval_matrix.csv",
            "eval_matrix.json",
            "eval_matrix_deltas.csv",
        ]


class TestStreamingMatrix:
    """run_matrix over an iterable of windows must be indistinguishable
    from the materialised path — for any worker count, with or without
    a warm cache."""

    @staticmethod
    def _windows(trace, **kw):
        from repro.eval.windows import stream_windows

        return stream_windows(trace, jobs=50, warmup=5, **kw)

    def test_streamed_cells_bit_identical(self, trace, config, result):
        streamed = run_matrix(self._windows(trace), config)
        assert streamed.cells == result.cells
        assert streamed.n_windows == result.n_windows
        assert streamed.nmax == result.nmax

    def test_streamed_workers_bit_identical(self, trace, config, result):
        fanned = run_matrix(self._windows(trace), config, workers=4)
        assert fanned.cells == result.cells

    def test_trace_name_derived_from_windows(self, trace, config, result):
        streamed = run_matrix(self._windows(trace), config)
        assert streamed.trace_name == result.trace_name == trace.name

    def test_trace_name_override(self, trace, config):
        streamed = run_matrix(self._windows(trace), config, trace_name="renamed")
        assert streamed.trace_name == "renamed"

    def test_cached_streaming_rerun_simulates_nothing(self, trace, config, tmp_path):
        warm = run_matrix(trace, config, cache=tmp_path)
        assert warm.n_simulated == 16
        again = run_matrix(self._windows(trace), config, cache=tmp_path, workers=2)
        assert (again.n_simulated, again.n_cached) == (0, 16)
        assert [c.to_entry() for c in again.cells] == [
            c.to_entry() for c in warm.cells
        ]

    def test_streaming_populates_the_same_cache(self, trace, config, tmp_path):
        first = run_matrix(self._windows(trace), config, cache=tmp_path)
        assert first.n_simulated == 16
        again = run_matrix(trace, config, cache=tmp_path)
        assert (again.n_simulated, again.n_cached) == (0, 16)

    def test_json_reports_byte_identical(self, trace, config, result):
        doc = matrix_to_json(result)
        for workers in (1, 4):
            streamed = run_matrix(self._windows(trace), config, workers=workers)
            assert matrix_to_json(streamed) == doc

    def test_progress_is_cumulative_across_dispatch_batches(self, trace):
        # 100 two-job windows × 4 series = 400 cells: two dispatch batches
        config = MatrixConfig(
            policies=("fcfs", "f1"), backfill=("none", "easy"), window_jobs=2
        )
        for source in (trace, stream_windows(trace, jobs=2)):
            reports = []
            result = run_matrix(
                source, config, progress=lambda *report: reports.append(report)
            )
            assert result.n_simulated == 400
            done = [d for _, d, _ in reports]
            assert done == sorted(done)
            assert reports[-1] == ("cells", 400, 400)

    def test_empty_window_iterable_rejected(self, config):
        with pytest.raises(ValueError, match="no evaluation windows"):
            run_matrix(iter(()), config)

    def test_unknown_machine_size_rejected(self, trace, config):
        import dataclasses

        anon = dataclasses.replace(trace, nmax=0)
        from repro.eval.windows import stream_windows

        with pytest.raises(ValueError, match="machine size unknown"):
            run_matrix(stream_windows(anon, jobs=50, warmup=5), config)


class TestBootstrapDeltas:
    def test_delta_cis_deterministic_for_fixed_seed(self, result):
        a = result.delta_cis(n_boot=300)
        b = result.delta_cis(n_boot=300)
        assert a == b
        assert set(a) == {("F1", "none"), ("F1", "easy")}

    def test_delta_cis_brackets_the_point(self, result):
        for ci in result.delta_cis(n_boot=300).values():
            assert ci.defined
            assert ci.lo <= ci.point <= ci.hi
            assert ci.n == result.n_windows

    def test_delta_cis_change_with_config_seed(self, trace, config):
        import dataclasses

        reseeded = run_matrix(trace, dataclasses.replace(config, seed=99))
        a = run_matrix(trace, config).delta_cis(n_boot=300)
        b = reseeded.delta_cis(n_boot=300)
        # same samples (simulation is seed-independent), different draws
        assert any(
            a[key] != b[key] for key in a if a[key].lo != a[key].hi
        ) or all(a[key].lo == a[key].hi for key in a)

    def test_json_carries_ci_fields(self, result):
        doc = json.loads(matrix_to_json(result, n_boot=200))
        assert doc["bootstrap"] == {"baseline": "FCFS", "n_boot": 200, "level": 0.95}
        entry = doc["deltas"]["F1/none"]
        assert {"delta_ci_low", "delta_ci_high", "significant", "wins"} <= set(entry)
        assert entry["n"] == result.n_windows

    def test_deltas_csv_columns_and_determinism(self, result):
        from repro.eval.report import deltas_to_csv

        text = deltas_to_csv(result, n_boot=200)
        assert text == deltas_to_csv(result, n_boot=200)
        lines = text.strip().splitlines()
        assert "delta_ci_low,delta_ci_high,significant" in lines[1]
        assert len(lines) == 2 + 2  # one row per non-baseline series

    def test_render_report_shows_ci_and_marker_legend(self, result):
        text = render_matrix_report(result, n_boot=200)
        assert "bootstrap CI" in text
        assert "CI [" in text

    def test_single_window_reports_ci_na_without_crashing(self, trace):
        solo = run_matrix(
            trace,
            MatrixConfig(policies=("fcfs", "f1"), window_jobs=len(trace)),
        )
        assert solo.n_windows == 1
        text = render_matrix_report(solo)
        assert "CI n/a (1 window)" in text
        doc = json.loads(matrix_to_json(solo))
        entry = doc["deltas"]["F1/none"]
        assert entry["delta_ci_low"] is None
        assert entry["delta_ci_high"] is None
        assert entry["significant"] is None

    def test_bootstrap_zero_disables_cis(self, result):
        cis = result.delta_cis(n_boot=0)
        assert all(not ci.defined for ci in cis.values())
        text = render_matrix_report(result, n_boot=0)
        assert "CI n/a" in text
