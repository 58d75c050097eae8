"""Tests for repro.eval.matrix and repro.eval.report."""

import dataclasses
import hashlib
import json
import re
from pathlib import Path

import numpy as np
import pytest

from repro import api
from repro.eval.matrix import _CELL_FORMAT, MatrixResult, run_matrix
from repro.eval.windows import stream_windows
from repro.eval.report import (
    matrix_to_csv,
    matrix_to_json,
    render_matrix_report,
    write_matrix_report,
)
from repro.runtime import ArtifactCache
from repro.specs import EvaluateSpec, SpecError, eval_window_fingerprint
from repro.workloads.traces import synthetic_trace


@pytest.fixture(scope="module")
def trace():
    return synthetic_trace("ctc_sp2", n_jobs=200, seed=7)


@pytest.fixture(scope="module")
def spec():
    return EvaluateSpec(
        policies=("fcfs", "f1"),
        backfill=("none", "easy"),
        window_jobs=50,
        warmup=5,
    )


@pytest.fixture(scope="module")
def result(trace, spec):
    return run_matrix(trace, spec)


class TestConfig:
    """The matrix checks of :class:`EvaluateSpec` (the rest of its
    validation is pinned in ``test_specs.py``)."""

    def test_policy_names_canonicalised(self):
        spec = EvaluateSpec(policies=("fcfs", "spt"), window_jobs=10)
        assert spec.policies == ("FCFS", "SPT")

    def test_backfill_tokens_normalised(self):
        spec = EvaluateSpec(
            policies=("fcfs",), backfill=("off", "easy"), window_jobs=10
        )
        assert spec.backfill == ("none", "easy")
        # the engine's boolean spellings are no spec field values
        with pytest.raises(SpecError, match="backfill must be a list of strings"):
            EvaluateSpec(policies=("fcfs",), backfill=(False, True))

    def test_unknown_policy_rejected(self):
        with pytest.raises(SpecError, match="unknown policy"):
            EvaluateSpec(policies=("nope",), window_jobs=10)

    def test_unknown_backfill_rejected(self):
        with pytest.raises(SpecError, match="unknown backfill"):
            EvaluateSpec(policies=("fcfs",), backfill=("often",), window_jobs=10)

    def test_duplicate_policies_rejected(self):
        with pytest.raises(SpecError, match="duplicate policies"):
            EvaluateSpec(policies=("fcfs", "FCFS"), window_jobs=10)
        with pytest.raises(SpecError, match="duplicate backfill modes"):
            EvaluateSpec(policies=("fcfs",), backfill=("none", "off"))

    def test_empty_axes_rejected(self):
        with pytest.raises(SpecError, match="at least one policy"):
            EvaluateSpec(policies=())
        with pytest.raises(SpecError, match="at least one backfill mode"):
            EvaluateSpec(backfill=())

    def test_exactly_one_window_axis(self):
        # Neither axis cannot happen: the spec defaults window_jobs.
        with pytest.raises(SpecError, match="exactly one"):
            EvaluateSpec(policies=("fcfs",), window_jobs=5, window_seconds=10.0)

    def test_window_knobs_validated_at_config_time(self):
        with pytest.raises(SpecError, match="window_jobs"):
            EvaluateSpec(policies=("fcfs",), window_jobs=0)
        with pytest.raises(SpecError, match="window_seconds"):
            EvaluateSpec(policies=("fcfs",), window_seconds=-1.0)
        with pytest.raises(SpecError, match="warmup"):
            EvaluateSpec(policies=("fcfs",), window_jobs=5, warmup=-1)
        with pytest.raises(SpecError, match="max_windows"):
            EvaluateSpec(policies=("fcfs",), window_jobs=5, max_windows=0)
        with pytest.raises(SpecError, match="tau must be > 0"):
            EvaluateSpec(policies=("fcfs",), window_jobs=5, tau=-1.0)

    @pytest.mark.parametrize(
        "warmup, error", [(2.5, TypeError), (True, TypeError), (-1, ValueError)]
    )
    def test_warmup_must_be_a_non_negative_integer(self, warmup, error):
        # A type fault and a range fault share the one message text.
        with pytest.raises(
            SpecError,
            match=rf"^warmup must be a non-negative integer, got {re.escape(repr(warmup))}$",
        ):
            EvaluateSpec(policies=("fcfs",), window_jobs=5, warmup=warmup)

    @pytest.mark.parametrize("nmax", [400.5, True, -1, 0])
    def test_nmax_must_be_a_positive_integer(self, nmax):
        with pytest.raises(SpecError, match="nmax must be"):
            EvaluateSpec(policies=("fcfs",), window_jobs=5, nmax=nmax)

    def test_backfill_vocabulary_shared_with_engine(self):
        spec = EvaluateSpec(
            policies=("fcfs",), backfill=("off",), window_jobs=10
        )
        assert spec.backfill == ("none",)

    def test_platform_canonicalised(self):
        spec = EvaluateSpec(topology=[2, 2], distribution=None)
        assert (spec.topology, spec.distribution) == ((2, 2), "round_robin")


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

    def test_shapes(self, result, spec):
        assert result.n_windows == 4
        assert result.n_simulated == 16
        assert result.n_cached == 0
        for (p, b), s in result.summaries().items():
            assert p in spec.policies and b in spec.backfill
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

    def test_workers_bit_identical(self, trace, spec, result):
        fanned = run_matrix(trace, spec, workers=4)
        assert fanned.cells == result.cells

    def test_oversized_job_fails_fast_with_name(self, trace, spec):
        import dataclasses

        bad_sizes = trace.size.copy()
        bad_sizes[17] = trace.nmax + 1
        bad = dataclasses.replace(trace, size=bad_sizes)
        with pytest.raises(ValueError, match=rf"job {int(bad.job_ids[17])} "):
            run_matrix(bad, spec)

    def test_unknown_machine_size_rejected(self, trace, spec):
        anon = type(trace)(
            submit=trace.submit,
            runtime=trace.runtime,
            size=trace.size,
            estimate=trace.estimate,
            job_ids=trace.job_ids,
            nmax=0,
        )
        with pytest.raises(ValueError, match="machine size unknown"):
            run_matrix(anon, spec)

    def test_explicit_nmax_overrides(self, trace):
        spec = EvaluateSpec(
            policies=("fcfs",),
            backfill=("none",),
            nmax=trace.nmax * 2,
            window_jobs=100,
        )
        res = run_matrix(trace, spec)
        assert res.nmax == trace.nmax * 2


class TestCache:
    def test_second_run_simulates_nothing(self, trace, spec, result, tmp_path):
        first = run_matrix(trace, spec, cache=tmp_path)
        assert (first.n_simulated, first.n_cached) == (16, 0)
        second = run_matrix(trace, spec, workers=2, cache=tmp_path)
        assert (second.n_simulated, second.n_cached) == (0, 16)
        # cached results identical to fresh ones except the cached marker
        for a, b in zip(first.cells, second.cells):
            assert a.to_entry() == b.to_entry()
            assert not a.cached and b.cached

    def test_config_change_invalidates(self, trace, spec, tmp_path):
        run_matrix(trace, spec, cache=tmp_path)
        import dataclasses

        other = dataclasses.replace(spec, estimates=True)
        res = run_matrix(trace, other, cache=tmp_path)
        assert res.n_simulated == 16

    def test_accepts_artifact_cache_instance(self, trace, spec, tmp_path):
        store = ArtifactCache(tmp_path)
        run_matrix(trace, spec, cache=store)
        assert store.misses == 16
        run_matrix(trace, spec, cache=store)
        assert store.hits == 16

    def test_corrupt_entry_is_resimulated(self, trace, spec, tmp_path):
        store = ArtifactCache(tmp_path)
        run_matrix(trace, spec, cache=store)
        windows = list(stream_windows(trace, jobs=50, warmup=5))
        victim = store.json_path_for(
            eval_window_fingerprint(
                window_fingerprint=windows[1].fingerprint(),
                nmax=trace.nmax,
                use_estimates=spec.estimates,
                tau=spec.tau,
                cell_format=_CELL_FORMAT,
            )
        )
        assert victim.is_file()
        victim.write_text("{ not json", encoding="utf-8")
        res = run_matrix(trace, spec, cache=store)
        assert (res.n_simulated, res.n_cached) == (4, 12)
        assert [c.window for c in res.cells if not c.cached] == [1, 1, 1, 1]
        assert all(c.cached for c in res.cells if c.window != 1)
        # the re-simulated cells replace the unreadable document
        assert len(json.loads(victim.read_text(encoding="utf-8"))) == 4

    def test_identical_windows_simulate_and_count_per_cell(
        self, trace, spec, tmp_path
    ):
        """Two windows of identical content share one document, yet a
        cold run simulates both and counts every cell."""
        first = next(iter(stream_windows(trace, jobs=50, warmup=5)))
        twins = [dataclasses.replace(first, index=k) for k in (0, 1)]
        store = ArtifactCache(tmp_path)
        cold = run_matrix(twins, spec, cache=store)
        assert (cold.n_simulated, cold.n_cached) == (8, 0)
        assert (store.hits, store.misses) == (0, 8)
        (doc,) = tmp_path.glob("eval-*.json")
        assert len(json.loads(doc.read_text(encoding="utf-8"))) == 4
        warm = run_matrix(twins, spec, cache=store)
        assert (warm.n_simulated, warm.n_cached) == (0, 8)
        assert (store.hits, store.misses) == (8, 8)
        for a, b in zip(cold.cells, warm.cells):
            assert a.to_entry() == b.to_entry()
        assert cold.samples("F1", "easy")[0] == cold.samples("F1", "easy")[1]

    def test_added_policy_simulates_only_new_cells(self, trace, spec, tmp_path):
        store = ArtifactCache(tmp_path)
        run_matrix(trace, spec, cache=store)
        wider = dataclasses.replace(spec, policies=("fcfs", "f1", "spt"))
        res = run_matrix(trace, wider, cache=store)
        assert (res.n_simulated, res.n_cached) == (8, 16)
        assert {c.policy for c in res.cells if not c.cached} == {"SPT"}
        docs = sorted(tmp_path.glob("eval-*.json"))
        assert len(docs) == 4
        assert [len(json.loads(d.read_text(encoding="utf-8"))) for d in docs] == [6] * 4
        again = run_matrix(trace, spec, cache=ArtifactCache(tmp_path))
        assert (again.n_simulated, again.n_cached) == (0, 16)


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
        solo = run_matrix(
            trace, EvaluateSpec(policies=("fcfs",), backfill=("none",), window_jobs=50)
        )
        paths = write_matrix_report(tmp_path, solo)
        assert sorted(p.name for p in paths) == ["eval_matrix.csv", "eval_matrix.json"]


class TestStreamingMatrix:
    """run_matrix over an iterable of windows must be indistinguishable
    from the materialised path — for any worker count, with or without
    a warm cache."""

    @staticmethod
    def _windows(trace, **kw):
        from repro.eval.windows import stream_windows

        return stream_windows(trace, jobs=50, warmup=5, **kw)

    def test_streamed_cells_bit_identical(self, trace, spec, result):
        streamed = run_matrix(self._windows(trace), spec)
        assert streamed.cells == result.cells
        assert streamed.n_windows == result.n_windows
        assert streamed.nmax == result.nmax

    def test_streamed_workers_bit_identical(self, trace, spec, result):
        fanned = run_matrix(self._windows(trace), spec, workers=4)
        assert fanned.cells == result.cells

    def test_trace_name_derived_from_windows(self, trace, spec, result):
        streamed = run_matrix(self._windows(trace), spec)
        assert streamed.trace_name == result.trace_name == trace.name

    def test_trace_name_override(self, trace, spec):
        streamed = run_matrix(self._windows(trace), spec, trace_name="renamed")
        assert streamed.trace_name == "renamed"

    def test_cached_streaming_rerun_simulates_nothing(self, trace, spec, tmp_path):
        warm = run_matrix(trace, spec, cache=tmp_path)
        assert warm.n_simulated == 16
        again = run_matrix(self._windows(trace), spec, cache=tmp_path, workers=2)
        assert (again.n_simulated, again.n_cached) == (0, 16)
        assert [c.to_entry() for c in again.cells] == [
            c.to_entry() for c in warm.cells
        ]

    def test_streaming_populates_the_same_cache(self, trace, spec, tmp_path):
        first = run_matrix(self._windows(trace), spec, cache=tmp_path)
        assert first.n_simulated == 16
        again = run_matrix(trace, spec, cache=tmp_path)
        assert (again.n_simulated, again.n_cached) == (0, 16)

    def test_json_reports_byte_identical(self, trace, spec, result):
        doc = matrix_to_json(result)
        for workers in (1, 4):
            streamed = run_matrix(self._windows(trace), spec, workers=workers)
            assert matrix_to_json(streamed) == doc

    def test_progress_is_cumulative_across_dispatch_batches(self, trace):
        # 100 two-job windows × 4 series = 400 cells: two dispatch batches
        spec = EvaluateSpec(
            policies=("fcfs", "f1"), backfill=("none", "easy"), window_jobs=2
        )
        for source in (trace, stream_windows(trace, jobs=2)):
            reports = []
            result = run_matrix(
                source, spec, progress=lambda *report: reports.append(report)
            )
            assert result.n_simulated == 400
            done = [d for _, d, _ in reports]
            assert done == sorted(done)
            assert reports[-1] == ("cells", 400, 400)

    def test_empty_window_iterable_rejected(self, spec):
        with pytest.raises(ValueError, match="no evaluation windows"):
            run_matrix(iter(()), spec)

    def test_unknown_machine_size_rejected(self, trace, spec):
        import dataclasses

        anon = dataclasses.replace(trace, nmax=0)
        from repro.eval.windows import stream_windows

        with pytest.raises(ValueError, match="machine size unknown"):
            run_matrix(stream_windows(anon, jobs=50, warmup=5), spec)


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

    def test_delta_cis_change_with_config_seed(self, trace, spec):
        import dataclasses

        reseeded = run_matrix(trace, dataclasses.replace(spec, seed=99))
        a = run_matrix(trace, spec).delta_cis(n_boot=300)
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
            EvaluateSpec(
                policies=("fcfs", "f1"), backfill=("none",), window_jobs=len(trace)
            ),
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


class TestCacheKeyAndReportPins:
    """Evaluation cache keys and report bytes, pinned across versions.

    ROADMAP promises byte-identical reports and unchanged cache keys;
    the cell keys and report digests were computed by the library before
    the evaluation spec became the matrix's only declaration, and must
    not move.  The cell keys are read from the members of the window
    documents, whose own keys are pinned too.  None of them depends on
    where the trace file lives.
    """

    TRACE = str(Path(__file__).parent / "data" / "ctc_tiny.swf")
    WINDOW = dict(window_jobs=50, warmup=5, bootstrap=200)
    PINS = {
        "flat": (
            dict(policies=("fcfs", "f1"), backfill=("none", "easy")),
            [
                "653050a8032b6291ee766d579b78dc71",
                "937215f6cee284ea73808cf2bda1fab7",
                "d6d8f89cac2baa2fcf86029f9cac6169",
                "e678f537c53e5418f80bf0108fc44534",
            ],
            [
                "06514d9fb6c57a481f9dfd45fd6fa79b",
                "080d885a1a7e60db7db6f98f1d73ec98",
                "08abe4974bb6cdbe6169a9bfcfa20000",
                "484e0ff0863390163442dac1e30921f3",
                "52836b93b518d75ccdd68d624e5decf7",
                "67d600117399e50b5fdbde99444ec144",
                "6aa7f407d54c0e75e93e25d030009cb1",
                "6d87ef18ce288ea5cfca1dd5f4a1e2c0",
                "b423f62c553befcd9a1936ddf0b584f1",
                "c2aea02e6654df432320cbb7799a07d9",
                "d77be84d0ae36aac8b46ea80f3a6f5c0",
                "da68e60fd4b0e3f7da3fc2d4bac6dcec",
                "ddc0d9ed4c618943d8deb9666244f10a",
                "e2842237877c32bf4bd3b93cd8e065a0",
                "f4094ae4716a4ffd0d2ed88a4e18c43f",
                "ffc07fd62af79c5a48b6cd75d6405cdd",
            ],
            {
                "eval_matrix.csv": "44b8b3910ab3f63580aa15351a9d1e27154c6bae3ae95add92fc3b9eb5351b7c",
                "eval_matrix.json": "53f528ae4a03b8db7d9fc124de090462b11e81633c97c4cd7012983a8adc78c7",
                "eval_matrix_deltas.csv": "47efaa44d612491df7e43370ed1855a4436e88e23144ba2786c737247b3f7fcc",
            },
        ),
        "partitioned": (
            dict(
                backfill=("easy", "hybrid"),
                nmax=1024,
                topology=(2, 2),
                distribution="random",
                seed=3,
            ),
            [
                "199e540b7aa88c1b3a5cff51c6585a51",
                "7d644301ddff4b6c7c1d25426b520b60",
                "c7d3c1b8c5634a8e5bc76117658b026c",
                "d8bb5caa296f2de38a3680c973960710",
            ],
            [
                "1569e95effaf847893e17bf3d200f47c",
                "624509ee46129b6b9e0b8fef2cce0d0d",
                "702e906dbfc5489bd3ca3874decf8a3a",
                "795c53365519cce1834e004acb4da551",
                "84d6c85fdaf5a682eaf313fd10474919",
                "96aef344ecec2332c6637f4eb7751699",
                "9d897cf5265b660fd9e8821cb07a7c91",
                "b1cd1e628a5b363355ccf3b458cccc54",
                "c56bf7ae1fb7b63fe0d9c3c7a2960cd6",
                "d4d42173582c753be99325df3b10898b",
                "d538667a84a8fea392e2aa030cb0268f",
                "e1711e511ddd7266ea9a82461473b3f6",
                "e47c2859c90d62a58790d9da1cf9d0a7",
                "ed69cc9d164fda1fd78945fb09e72116",
                "f1abc40132263738f56082e1c2899e65",
                "f6336e4daa789fa6e1bf3720607819d5",
            ],
            {
                "eval_matrix.csv": "1615c8b8ae9212d856905cda576def0f923124791906a66c0db195e48769880d",
                "eval_matrix.json": "1604d086de8673579a0d06e694b42d3819e7e063c0207add8022766d14e97b8e",
                "eval_matrix_deltas.csv": "23683ccafde7d8b1a2ecafb8d7133e0e1e204fe4e0b76bc50e2f7d97d2006ca9",
            },
        ),
    }

    @pytest.mark.parametrize("case", sorted(PINS))
    def test_keys_and_report_bytes(self, case, tmp_path):
        fields, documents, keys, digests = self.PINS[case]
        spec = EvaluateSpec(trace=self.TRACE, **self.WINDOW, **fields)
        result = api.run(spec, workers=1, cache=tmp_path / "cache")
        stored = sorted((tmp_path / "cache").glob("eval-*.json"))
        # one document per window, holding that window's cells as members
        assert [p.name for p in stored] == [f"eval-{key}.json" for key in documents]
        members = [json.loads(p.read_text(encoding="utf-8")) for p in stored]
        assert [len(m) for m in members] == [len(spec.policies) * len(spec.backfill)] * 4
        assert sorted(key for m in members for key in m) == keys
        paths = write_matrix_report(
            tmp_path / "report",
            result,
            baseline=spec.baseline,
            n_boot=spec.bootstrap,
            level=spec.ci,
        )
        assert {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in paths
        } == digests
