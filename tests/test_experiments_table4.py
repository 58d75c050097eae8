"""Tests for the Table 4 experiment declarations and runner."""

import dataclasses

import numpy as np
import pytest

from repro.experiments import table4
from repro.experiments.paper_data import PAPER_TABLE4, POLICY_COLUMNS, paper_row
from repro.experiments.scale import SCALES
from repro.experiments.table4 import (
    TABLE4_ROWS,
    build_row_workload,
    row_ids,
    run_row,
    run_rows,
)


class TestDeclarations:
    def test_eighteen_rows(self):
        assert len(TABLE4_ROWS) == 18

    def test_row_ids_match_paper_data(self):
        assert set(row_ids()) == set(PAPER_TABLE4)

    def test_paper_order(self):
        ids = row_ids()
        assert ids[0] == "model_256_actual"
        assert ids[1] == "model_1024_actual"
        assert ids[5] == "model_1024_backfill"
        assert ids[6] == "curie_actual"
        assert ids[-1] == "ctc_sp2_backfill"

    def test_modes_consistent(self):
        for row in TABLE4_ROWS:
            if row.row_id.endswith("_actual"):
                assert not row.use_estimates and not row.backfill
            elif row.row_id.endswith("_estimates"):
                assert row.use_estimates and not row.backfill
            else:
                assert row.use_estimates and row.backfill

    def test_paper_medians_attached(self):
        row = TABLE4_ROWS[0]
        assert row.paper_medians["FCFS"] == pytest.approx(5846.87)
        assert row.paper_medians["F1"] == pytest.approx(29.58)


class TestPaperData:
    def test_all_rows_have_8_columns(self):
        for rid, values in PAPER_TABLE4.items():
            assert len(values) == 8, rid

    def test_paper_row_mapping(self):
        row = paper_row("ctc_sp2_backfill")
        assert row["F2"] == pytest.approx(10.77)

    def test_unknown_row(self):
        with pytest.raises(KeyError):
            paper_row("nope")

    def test_published_headline_claims(self):
        """Shape claims the paper states in prose, asserted on its table."""
        for rid, values in PAPER_TABLE4.items():
            by = dict(zip(POLICY_COLUMNS, values))
            # learned policies beat FCFS everywhere
            best_learned = min(by["F1"], by["F2"], by["F3"], by["F4"])
            assert best_learned < by["FCFS"], rid
        # §4.2.3: F1 with backfilling > 12x better than best ad-hoc
        row = paper_row("model_256_backfill")
        best_adhoc = min(row["FCFS"], row["WFP"], row["UNI"], row["SPT"])
        assert best_adhoc / row["F1"] > 12.0


class TestBuildRowWorkload:
    def test_model_row(self):
        wl, nmax = build_row_workload(TABLE4_ROWS[0], SCALES["smoke"], seed=0)
        assert nmax == 256
        assert wl.span >= SCALES["smoke"].n_sequences * SCALES["smoke"].days * 86400.0

    def test_trace_row(self):
        row = next(r for r in TABLE4_ROWS if r.source == "ctc_sp2")
        scale = SCALES["smoke"]
        wl, nmax = build_row_workload(row, scale, seed=0)
        assert nmax == 338
        assert len(wl) >= scale.trace_jobs
        assert wl.span >= scale.n_sequences * scale.days * 86400.0

    def test_same_stream_across_modes(self):
        """Rows 1/3/5 share the workload (only the regime changes)."""
        actual = next(r for r in TABLE4_ROWS if r.row_id == "model_256_actual")
        backfill = next(r for r in TABLE4_ROWS if r.row_id == "model_256_backfill")
        wa, _ = build_row_workload(actual, SCALES["smoke"], seed=3)
        wb, _ = build_row_workload(backfill, SCALES["smoke"], seed=3)
        np.testing.assert_array_equal(wa.submit, wb.submit)
        np.testing.assert_array_equal(wa.estimate, wb.estimate)

    def test_each_stream_is_built_once(self):
        """Rows sharing a stream share the memoised object, and its arrays
        refuse writes so no row can change another's input."""
        actual = next(r for r in TABLE4_ROWS if r.row_id == "ctc_sp2_actual")
        backfill = next(r for r in TABLE4_ROWS if r.row_id == "ctc_sp2_backfill")
        wa, na = build_row_workload(actual, SCALES["smoke"], seed=4)
        wb, nb = build_row_workload(backfill, SCALES["smoke"], seed=4)
        assert wa is wb and na == nb
        for name in ("submit", "runtime", "size", "estimate", "job_ids"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(wa, name)[0] = 1

    def test_memo_key_covers_the_inputs(self):
        model = TABLE4_ROWS[0]
        w0, _ = build_row_workload(model, SCALES["smoke"], seed=0)
        w1, _ = build_row_workload(model, SCALES["smoke"], seed=1)
        assert w0 is not w1
        assert not np.array_equal(w0.submit[:50], w1.submit[:50])
        trace = next(r for r in TABLE4_ROWS if r.source == "curie")
        more = dataclasses.replace(SCALES["smoke"], trace_jobs=SCALES["smoke"].trace_jobs + 1)
        t0, _ = build_row_workload(trace, SCALES["smoke"], seed=0)
        t1, _ = build_row_workload(trace, more, seed=0)
        assert t0 is not t1


class TestRunRow:
    @pytest.fixture(scope="class")
    def smoke_result(self):
        return run_row("model_256_actual", SCALES["smoke"], seed=0)

    def test_runs_all_policies(self, smoke_result):
        assert smoke_result.policy_names == POLICY_COLUMNS

    def test_sample_counts(self, smoke_result):
        for name in POLICY_COLUMNS:
            assert len(smoke_result.samples[name]) == SCALES["smoke"].n_sequences

    def test_by_string_id(self):
        res = run_row("ctc_sp2_actual", SCALES["smoke"], seed=0, policies=("FCFS", "F1"))
        assert res.policy_names == ("FCFS", "F1")

    def test_unknown_row(self):
        with pytest.raises(KeyError):
            run_row("model_512_actual", SCALES["smoke"])

    def test_shape_learned_beats_fcfs(self, smoke_result):
        med = smoke_result.medians()
        assert min(med["F1"], med["F2"]) <= med["FCFS"]


class TestRunRows:
    def test_matches_run_row(self):
        single = run_row("model_256_actual", SCALES["smoke"], seed=0, policies=("FCFS",))
        batch = run_rows(["model_256_actual"], SCALES["smoke"], seed=0, policies=("FCFS",))
        np.testing.assert_array_equal(
            single.samples["FCFS"], batch[0].samples["FCFS"]
        )

    def test_cold_and_warm_memo_agree(self):
        rows = ["model_256_actual", "curie_estimates", "model_256_backfill"]
        table4._stream.cache_clear()
        cold = run_rows(rows, SCALES["smoke"], seed=2, policies=("FCFS", "F1"))
        warm = run_rows(rows, SCALES["smoke"], seed=2, policies=("FCFS", "F1"))
        for a, b in zip(cold, warm):
            for name in a.policy_names:
                assert a.samples[name].tobytes() == b.samples[name].tobytes()

    def test_paper_order_builds_each_stream_once(self):
        table4._stream.cache_clear()
        run_rows(None, SCALES["smoke"], seed=1, policies=("FCFS",), workers=1)
        assert table4._stream.cache_info().misses == 6  # 2 model + 4 trace streams

    def test_each_row_calls_run_row_and_build_row_workload(self, monkeypatch):
        """Per-row layer timings wrap these two module attributes."""
        calls = []

        def counted(name):
            fn = getattr(table4, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)

            return wrapper

        for name in ("run_row", "build_row_workload"):
            monkeypatch.setattr(table4, name, counted(name))
        rows = ["model_256_actual", "model_256_estimates"]
        run_rows(rows, SCALES["smoke"], seed=0, policies=("FCFS",), workers=1)
        assert sorted(calls) == ["build_row_workload"] * 2 + ["run_row"] * 2

    def test_custom_row_object_runs_as_given(self):
        """A modified/unregistered row must run verbatim, not be re-resolved
        against the TABLE4_ROWS registry by id."""
        import dataclasses

        custom = dataclasses.replace(
            TABLE4_ROWS[0], row_id="my-custom-row", backfill=True
        )
        (result,) = run_rows([custom], SCALES["smoke"], policies=("FCFS",))
        assert result.name == "my-custom-row"
        assert result.backfill is True
