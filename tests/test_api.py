"""Tests for the repro.api facade (spec execution, sweeps, caching)."""

import numpy as np
import pytest

import repro
from repro import api
from repro.eval.matrix import MatrixResult, run_matrix
from repro.runtime import ArtifactCache
from repro.specs import (
    EvaluateSpec,
    SimulateSpec,
    SpecError,
    SweepSpec,
    Table4Spec,
    TrainSpec,
    load_spec,
)

TINY_TRAIN = dict(n_tuples=2, trials_per_tuple=16, nmax=32, regression_max_points=400)


@pytest.fixture()
def tiny_swf(tmp_path):
    """A small on-disk SWF trace (deterministic)."""
    wl = repro.lublin_workload(160, nmax=32, seed=7)
    path = tmp_path / "tiny.swf"
    repro.write_swf(wl, path)
    return path


class TestRunDispatch:
    def test_non_spec_rejected(self):
        with pytest.raises(SpecError, match="takes a Spec"):
            api.run({"spec": "train"})

    def test_train(self):
        result = api.run(TrainSpec(**TINY_TRAIN))
        assert result.policies
        assert result.config.n_tuples == 2

    def test_train_matches_direct_pipeline(self):
        spec = TrainSpec(**TINY_TRAIN)
        direct = repro.obtain_policies(spec.to_pipeline_config())
        via_api = api.run(spec)
        np.testing.assert_array_equal(
            direct.distribution.score, via_api.distribution.score
        )

    def test_simulate_matches_direct_engine(self):
        spec = SimulateSpec(policy="F1", jobs=120, nmax=32, seed=3)
        report = api.run(spec)
        wl = repro.apply_tsafrir(
            repro.lublin_workload(120, 32, seed=3), seed=4
        )
        direct = repro.simulate(wl, repro.get_policy("F1"), 32)
        assert report.ave_bsld == pytest.approx(direct.ave_bsld)
        assert report.n_jobs == 120
        assert not report.cached

    def test_evaluate_matches_direct_matrix(self, tiny_swf):
        spec = EvaluateSpec(
            trace=str(tiny_swf),
            policies=("fcfs", "f1"),
            backfill=("none",),
            window_jobs=40,
        )
        via_api = api.run(spec)
        direct = run_matrix(repro.read_swf(tiny_swf), spec)
        assert isinstance(via_api, MatrixResult)
        assert via_api.cells == direct.cells

    def test_evaluate_stream_matches_batch(self, tmp_path):
        """Every trace file streams; it must match the matrix of the
        workload ``read_swf`` materialises cell for cell and byte for
        byte, at any worker count."""
        from repro.eval.report import matrix_to_json

        path = "tests/data/ctc_tiny.swf"
        spec = EvaluateSpec(trace=path, window_jobs=40, warmup=4, seed=2)
        batch = run_matrix(repro.read_swf(path), spec)
        for workers in (1, 2, 4):
            cache = tmp_path / f"w{workers}"
            streamed = api.run(spec, workers=workers, cache=cache)
            assert streamed.cells == batch.cells
            assert streamed.trace_name == batch.trace_name
            assert matrix_to_json(streamed) == matrix_to_json(batch)
            again = api.run(spec, workers=workers, cache=cache)
            assert (again.n_simulated, again.n_cached) == (0, len(batch.cells))

    def test_table4(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "smoke")
        results = api.run(Table4Spec(rows=("ctc_sp2_actual",)))
        assert len(results) == 1
        assert results[0].name == "ctc_sp2_actual"

    def test_run_file(self, tmp_path, tiny_swf):
        path = tmp_path / "eval.toml"
        path.write_text(
            f'spec = "evaluate"\ntrace = "{tiny_swf}"\nwindow_jobs = 40\n',
            encoding="utf-8",
        )
        loaded = api.run(load_spec(path))
        from_flags = api.run(EvaluateSpec(trace=str(tiny_swf), window_jobs=40))
        assert loaded.cells == from_flags.cells


class TestCaching:
    def test_simulate_cache_round_trip(self, tmp_path):
        spec = SimulateSpec(policy="F1", jobs=100, nmax=32)
        cache = ArtifactCache(tmp_path / "cache")
        cold = api.run(spec, cache=cache)
        warm = api.run(spec, cache=cache)
        assert not cold.cached and warm.cached
        assert warm.line() == cold.line()
        assert cold.ave_bsld == warm.ave_bsld

    def test_simulate_cache_is_content_addressed(self, tmp_path):
        # Same workload content via a renamed file -> same cache entry.
        wl = repro.lublin_workload(80, nmax=32, seed=1)
        a, b = tmp_path / "a.swf", tmp_path / "b.swf"
        repro.write_swf(wl, a)
        repro.write_swf(wl, b)
        cache = ArtifactCache(tmp_path / "cache")
        first = api.run(SimulateSpec(swf=str(a), policy="F1"), cache=cache)
        second = api.run(SimulateSpec(swf=str(b), policy="F1"), cache=cache)
        assert not first.cached and second.cached

    def test_evaluate_cached_rerun_simulates_nothing(self, tiny_swf, tmp_path):
        spec = EvaluateSpec(trace=str(tiny_swf), window_jobs=40)
        cache = ArtifactCache(tmp_path / "cache")
        cold = api.run(spec, cache=cache)
        warm = api.run(spec, cache=cache)
        assert cold.n_simulated > 0 and cold.n_cached == 0
        assert warm.n_simulated == 0 and warm.n_cached == cold.n_simulated

    def test_train_cache_via_path(self, tmp_path):
        spec = TrainSpec(**TINY_TRAIN)
        cold = api.run(spec, cache=tmp_path / "cache")
        warm = api.run(spec, cache=tmp_path / "cache")
        np.testing.assert_array_equal(
            cold.distribution.score, warm.distribution.score
        )
        assert (tmp_path / "cache" / f"trials-{spec.distribution_key()}.npz").exists()


class TestSweep:
    def _sweep(self, tiny_swf):
        return SweepSpec(
            base=EvaluateSpec(
                trace=str(tiny_swf),
                policies=("fcfs",),
                backfill=("none",),
                window_jobs=40,
            ),
            grid={
                "policies": [["fcfs"], ["f1"]],
                "backfill": [["none"], ["easy"]],
            },
        )

    def test_sweep_runs_every_grid_point(self, tiny_swf, tmp_path):
        result = api.run(self._sweep(tiny_swf), cache=tmp_path / "cache")
        assert len(result.cells) == 4
        assert all(isinstance(c.result, MatrixResult) for c in result.cells)
        # 160 jobs / 40-job windows = 4 windows x 1 policy x 1 mode each.
        assert result.n_simulated == 16
        assert result.n_cached == 0

    def test_sweep_rerun_is_fully_cached(self, tiny_swf, tmp_path):
        spec = self._sweep(tiny_swf)
        api.run(spec, cache=tmp_path / "cache")
        warm = api.run(spec, cache=tmp_path / "cache")
        assert warm.n_simulated == 0
        assert warm.n_cached == 16

    def test_extended_grid_only_simulates_new_cells(self, tiny_swf, tmp_path):
        api.run(self._sweep(tiny_swf), cache=tmp_path / "cache")
        wider = SweepSpec(
            base=self._sweep(tiny_swf).base,
            grid={
                "policies": [["fcfs"], ["f1"]],
                "backfill": [["none"], ["easy"], ["conservative"]],
            },
        )
        grown = api.run(wider, cache=tmp_path / "cache")
        # 2 new children (fcfs/conservative, f1/conservative) x 4 windows.
        assert grown.n_simulated == 8
        assert grown.n_cached == 16

    def test_sweep_matches_individual_runs(self, tiny_swf):
        sweep = api.run(self._sweep(tiny_swf))
        for cell in sweep.cells:
            assert cell.result.cells == api.run(cell.spec).cells

    def test_summary_outputs(self, tiny_swf, tmp_path):
        result = api.run(self._sweep(tiny_swf), cache=tmp_path / "cache")
        table = result.summary_table()
        assert "simulated 16, cached 0" in table
        assert "policies × backfill" in table
        csv = result.summary_csv()
        assert csv.splitlines()[0] == (
            "policies,backfill,fingerprint,n_simulated,n_cached,headline"
        )
        assert len(csv.splitlines()) == 5

    def test_sweep_over_train_specs(self, tmp_path):
        sweep = SweepSpec(
            base=TrainSpec(**TINY_TRAIN),
            grid={"seed": [0, 1]},
        )
        cold = api.run(sweep, cache=tmp_path / "cache")
        assert cold.n_simulated == 2 and cold.n_cached == 0
        warm = api.run(sweep, cache=tmp_path / "cache")
        assert warm.n_simulated == 0 and warm.n_cached == 2


class TestProgress:
    def test_progress_callback_sees_phases(self, tiny_swf, tmp_path):
        seen = []
        api.run(
            self_sweep_spec(tiny_swf),
            cache=tmp_path / "cache",
            progress=lambda phase, done, total: seen.append(phase),
        )
        assert "sweep" in seen
        assert "cells" in seen


def self_sweep_spec(tiny_swf):
    """Module-level helper so TestProgress stays tiny."""
    return SweepSpec(
        base=EvaluateSpec(
            trace=str(tiny_swf),
            policies=("fcfs",),
            backfill=("none",),
            window_jobs=40,
        ),
        grid={"policies": [["fcfs"], ["f1"]]},
    )
