"""Tests for the repro-sched command-line interface."""

import argparse
import dataclasses
import json
import os
from pathlib import Path

import pytest

from repro.cli import build_parser, main, spec_from_args
from repro.specs import EvaluateSpec, SimulateSpec, Table4Spec, TrainSpec


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_all_subcommands_known(self):
        parser = build_parser()
        for cmd in (
            "train",
            "simulate",
            "evaluate",
            "table4",
            "fetch",
            "figures",
            "trace",
            "info",
        ):
            args = parser.parse_args([cmd] if cmd != "trace" else [cmd, "curie"])
            assert args.command == cmd


class TestInfo:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "repro 1.0.0" in out
        assert "FCFS" in out
        assert "curie" in out
        assert "model_256_actual" in out


class TestSimulate:
    def test_model_simulation(self, capsys):
        assert main(["simulate", "--policy", "F1", "--jobs", "150", "--nmax", "64"]) == 0
        out = capsys.readouterr().out
        assert "policy=F1" in out
        assert "AVEbsld=" in out

    def test_backfill_flags(self, capsys):
        code = main(
            [
                "simulate",
                "--policy",
                "FCFS",
                "--jobs",
                "100",
                "--nmax",
                "64",
                "--estimates",
                "--backfill",
                "easy",
            ]
        )
        assert code == 0
        assert "backfilled=" in capsys.readouterr().out

    def test_trace_simulation(self, capsys):
        assert main(["simulate", "--trace", "ctc_sp2", "--jobs", "200"]) == 0
        assert "AVEbsld=" in capsys.readouterr().out

    def test_swf_replay(self, tmp_path, capsys):
        import repro

        wl = repro.lublin_workload(50, nmax=32, seed=0)
        path = tmp_path / "t.swf"
        repro.write_swf(wl, path)
        assert main(["simulate", "--swf", str(path), "--policy", "SPT"]) == 0
        assert "jobs=50" in capsys.readouterr().out

    def test_headerless_swf_names_missing_header_and_override(self, tmp_path):
        headerless = tmp_path / "nohdr.swf"
        headerless.write_text(
            "1 0 0 10 1 -1 -1 1 10 -1 1\n2 1 0 10 1 -1 -1 1 10 -1 1\n"
        )
        with pytest.raises(SystemExit, match="MaxProcs"):
            main(["simulate", "--swf", str(headerless)])
        with pytest.raises(SystemExit, match="--nmax"):
            main(["simulate", "--swf", str(headerless)])
        # the override fixes it
        assert main(["simulate", "--swf", str(headerless), "--nmax", "4"]) == 0


class TestTrace:
    def test_emit_to_stdout(self, capsys):
        assert main(["trace", "ctc_sp2", "--jobs", "20"]) == 0
        out = capsys.readouterr().out
        assert "; Computer: CTC SP2" in out

    def test_emit_to_file(self, tmp_path, capsys):
        path = tmp_path / "curie.swf"
        assert main(["trace", "curie", "--jobs", "20", "--output", str(path)]) == 0
        assert path.exists()
        assert "20 jobs written" in capsys.readouterr().out


class TestFigures:
    def test_figure3_fast(self, capsys):
        assert main(["figures", "--figure", "3"]) == 0
        out = capsys.readouterr().out
        assert "Figure 3 panel rn" in out

    def test_figure1_smoke_scale(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "smoke")
        assert main(["figures", "--figure", "1"]) == 0
        assert "Figure 1" in capsys.readouterr().out


class TestTable4:
    def test_single_row_smoke(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "smoke")
        assert main(["table4", "--rows", "ctc_sp2_actual", "--plot"]) == 0
        out = capsys.readouterr().out
        assert "Medians:" in out
        assert "paper" in out

    def test_unknown_row_rejected(self):
        with pytest.raises(SystemExit, match="unknown Table 4 row 'bogus'"):
            main(["table4", "--rows", "bogus"])

    def test_serial_split_keeps_policies(self, capsys, monkeypatch, tmp_path):
        """The per-row dispatch of a serial run keeps every other field."""
        monkeypatch.setenv("REPRO_SCALE", "smoke")
        argv = ["--rows", "model_256_actual", "--policies", "fcfs,f1"]
        assert main(["table4", *argv]) == 0
        flags = capsys.readouterr().out
        path = tmp_path / "t4.toml"
        path.write_text(
            'spec = "table4"\nrows = ["model_256_actual"]\n'
            'policies = ["fcfs", "f1"]\n',
            encoding="utf-8",
        )
        assert main(["run", str(path)]) == 0
        assert capsys.readouterr().out == flags
        assert "F2" not in flags  # not the paper's policy columns


class TestTrain:
    def test_tiny_training_run(self, capsys, tmp_path):
        out_csv = tmp_path / "dist.csv"
        code = main(
            [
                "train",
                "--tuples",
                "1",
                "--trials",
                "32",
                "--scale",
                "smoke",
                "--top",
                "2",
                "--output",
                str(out_csv),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "rank 1:" in out
        assert out_csv.exists()


class TestAnalyze:
    def test_model_profile(self, capsys):
        assert main(["analyze", "--jobs", "400"]) == 0
        out = capsys.readouterr().out
        assert "serial fraction" in out
        assert "offered load" in out

    def test_agreement_matrix(self, capsys):
        assert main(["analyze", "--jobs", "300", "--agreement", "FCFS", "SPT"]) == 0
        out = capsys.readouterr().out
        assert "Kendall tau" in out
        assert "1.00" in out

    def test_trace_profile(self, capsys):
        assert main(["analyze", "--trace", "ctc_sp2", "--jobs", "300"]) == 0
        assert "CTC SP2" in capsys.readouterr().out

    def test_swf_profile(self, tmp_path, capsys):
        import repro

        wl = repro.lublin_workload(60, nmax=32, seed=0)
        path = tmp_path / "x.swf"
        repro.write_swf(wl, path)
        assert main(["analyze", "--swf", str(path)]) == 0
        assert "60 jobs" in capsys.readouterr().out


FIXTURE_SWF = str(Path(__file__).parent / "data" / "ctc_tiny.swf")


class TestEvaluate:
    def _run(self, *extra):
        return main(
            [
                "evaluate",
                "--trace",
                FIXTURE_SWF,
                "--window-jobs",
                "50",
                "--warmup",
                "5",
                *extra,
            ]
        )

    def test_swf_matrix_report(self, capsys):
        assert self._run() == 0
        out = capsys.readouterr().out
        assert "Evaluation matrix for CTC SP2" in out
        assert "backfill=none" in out
        assert "backfill=easy" in out
        assert "paired Δ vs FCFS" in out

    def test_workers_bit_identical_output(self, capsys):
        assert self._run("--workers", "1") == 0
        serial = capsys.readouterr().out
        assert self._run("--workers", "4") == 0
        fanned = capsys.readouterr().out
        assert serial == fanned

    def test_cache_second_run_free(self, capsys, tmp_path):
        cache = str(tmp_path / "cache")
        assert self._run("--cache", cache) == 0
        assert "simulated 16, cached 0" in capsys.readouterr().out
        assert self._run("--cache", cache) == 0
        assert "simulated 0, cached 16" in capsys.readouterr().out

    def test_output_dir_written(self, capsys, tmp_path):
        out = tmp_path / "report"
        assert self._run("--output-dir", str(out)) == 0
        files = sorted(p.name for p in out.iterdir())
        assert files == [
            "eval_matrix.csv",
            "eval_matrix.json",
            "eval_matrix_deltas.csv",
        ]
        lines = (out / "eval_matrix.csv").read_text().splitlines()
        assert lines[1].startswith("window,policy,backfill")
        assert len(lines) == 2 + 16
        delta_lines = (out / "eval_matrix_deltas.csv").read_text().splitlines()
        assert delta_lines[1].startswith("policy,backfill,baseline")
        assert "delta_ci_low,delta_ci_high,significant" in delta_lines[1]

    def test_synthetic_fallback(self, capsys):
        code = main(
            [
                "evaluate",
                "--synthetic",
                "ctc_sp2",
                "--jobs",
                "150",
                "--window-jobs",
                "50",
                "--policies",
                "fcfs,spt",
                "--backfill",
                "easy",
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "synthetic stand-in" in captured.err
        assert "backfill=easy" in captured.out

    def test_bad_policy_list_rejected(self):
        with pytest.raises(SystemExit, match="unknown policy"):
            self._run("--policies", "fcfs,bogus")

    def test_bad_policy_message_is_not_a_quoted_repr(self):
        with pytest.raises(SystemExit) as info:
            main(["evaluate", "--synthetic", "ctc_sp2", "--policies", "fcfs,bogus"])
        message = str(info.value)
        assert "invalid evaluate spec: unknown policy 'bogus'" in message
        assert '"' not in message

    def test_bad_backfill_rejected(self):
        with pytest.raises(SystemExit, match="unknown backfill"):
            self._run("--backfill", "sometimes")

    def test_conflicting_window_axes_rejected(self):
        with pytest.raises(SystemExit, match="exactly one"):
            self._run("--window-seconds", "100")

    def test_zero_window_jobs_rejected_cleanly(self):
        with pytest.raises(SystemExit, match="window_jobs"):
            main(["evaluate", "--trace", FIXTURE_SWF, "--window-jobs", "0"])

    def test_lowercase_baseline_accepted(self, capsys):
        assert self._run("--baseline", "fcfs") == 0
        assert "paired Δ vs FCFS" in capsys.readouterr().out

    def test_unknown_baseline_rejected_cleanly(self):
        with pytest.raises(SystemExit, match="unknown policy"):
            self._run("--baseline", "bogus")

    def test_missing_machine_size_rejected_cleanly(self, tmp_path):
        headerless = tmp_path / "nohdr.swf"
        headerless.write_text("1 0 0 10 1 -1 -1 1 10 -1 1\n2 1 0 10 1 -1 -1 1 10 -1 1\n")
        with pytest.raises(SystemExit, match="machine size unknown"):
            main(["evaluate", "--trace", str(headerless), "--window-jobs", "2"])


class TestFiguresExport:
    def test_output_dir_written(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "smoke")
        out = tmp_path / "figdata"
        assert main(["figures", "--figure", "2", "--output-dir", str(out)]) == 0
        files = sorted(p.name for p in out.iterdir())
        assert "fig2_convergence.csv" in files
        text = (out / "fig2_convergence.csv").read_text()
        assert text.splitlines()[1] == "trials,normalized_std"


class TestEvaluateStreaming:
    def _run(self, *extra):
        return main(
            [
                "evaluate",
                "--trace",
                FIXTURE_SWF,
                "--window-jobs",
                "50",
                "--warmup",
                "5",
                *extra,
            ]
        )

    @staticmethod
    def _materialised():
        """The same matrix from the file read whole by ``read_swf``."""
        from repro.eval.matrix import run_matrix
        from repro.specs import EvaluateSpec
        from repro.workloads.swf import read_swf

        spec = EvaluateSpec(
            policies=("fcfs", "f1"), backfill=("none", "easy"),
            window_jobs=50, warmup=5,
        )
        return run_matrix(read_swf(FIXTURE_SWF), spec)

    def test_stream_output_identical_to_materialised(self, capsys):
        from repro.eval.report import render_matrix_report

        assert self._run() == 0
        streamed = capsys.readouterr().out
        assert streamed == render_matrix_report(self._materialised()) + "\n"

    def test_stream_reports_written_identically(self, capsys, tmp_path):
        from repro.eval.report import write_matrix_report

        assert self._run("--output-dir", str(tmp_path / "a")) == 0
        capsys.readouterr()
        write_matrix_report(tmp_path / "b", self._materialised())
        for name in ("eval_matrix.csv", "eval_matrix.json", "eval_matrix_deltas.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()

    def test_stream_cached_rerun_simulates_nothing(self, capsys, tmp_path):
        assert self._run("--cache", str(tmp_path)) == 0
        capsys.readouterr()
        assert self._run("--cache", str(tmp_path), "--workers", "2") == 0
        assert "simulated 0, cached 16" in capsys.readouterr().out

    def test_stream_synthetic_fallback(self, capsys):
        assert main(["evaluate", "--jobs", "300", "--window-jobs", "100"]) == 0
        captured = capsys.readouterr()
        assert "synthetic stand-in" in captured.err
        assert "Evaluation matrix for" in captured.out

    def test_stream_flag_is_gone(self):
        with pytest.raises(SystemExit):
            self._run("--stream")

    @pytest.mark.parametrize("broken", ["truncated_gz", "unsorted"])
    def test_broken_trace_exits_1_without_traceback(self, broken, tmp_path):
        import subprocess
        import sys

        from repro.workloads.swf import read_swf, write_swf

        rows = Path(FIXTURE_SWF).read_text(encoding="utf-8").splitlines()
        if broken == "truncated_gz":
            path = tmp_path / "trunc.swf.gz"
            write_swf(read_swf(FIXTURE_SWF), path)
            path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
            expected = "truncated or corrupt gzip data after line"
        else:
            path = tmp_path / "unsorted.swf"
            jobs = [r for r in rows if r.strip() and not r.startswith(";")]
            header = [r for r in rows if r.startswith(";")]
            path.write_text(
                "\n".join(header + jobs[:10] + [jobs[12], jobs[11]] + jobs[13:]) + "\n",
                encoding="utf-8",
            )
            expected = "requires a submit-sorted trace: job"
        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli", "evaluate", "--trace", str(path),
             "--window-jobs", "20", "--policies", "fcfs", "--backfill", "none"],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": str(Path(__file__).parent.parent / "src")},
        )
        assert proc.returncode == 1
        assert proc.stderr.startswith("repro-sched evaluate: ")
        assert expected in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_bootstrap_ci_in_report(self, capsys):
        assert self._run("--bootstrap", "200", "--ci", "0.9") == 0
        out = capsys.readouterr().out
        assert "90% bootstrap CI" in out
        assert "CI [" in out

    def test_bootstrap_zero_marks_ci_na(self, capsys):
        assert self._run("--bootstrap", "0") == 0
        assert "CI n/a" in capsys.readouterr().out

    def test_bootstrap_deterministic_across_runs(self, capsys):
        assert self._run("--bootstrap", "200", "--seed", "3") == 0
        first = capsys.readouterr().out
        assert self._run("--bootstrap", "200", "--seed", "3", "--workers", "2") == 0
        assert capsys.readouterr().out == first

    def test_bad_ci_level_rejected(self):
        with pytest.raises(SystemExit, match=r"ci must be a coverage level"):
            self._run("--ci", "1.5")

    def test_bad_bootstrap_rejected(self):
        with pytest.raises(SystemExit, match="bootstrap must be a non-negative integer, got -5"):
            self._run("--bootstrap", "-5")


class TestSimulateBackfillModes:
    """The simulate verb shares the engine's backfill-mode vocabulary."""

    BASE = ["simulate", "--policy", "FCFS", "--jobs", "100", "--nmax", "64"]

    def test_mode_tokens_accepted(self, capsys):
        for mode in ("none", "easy", "conservative"):
            assert main([*self.BASE, "--backfill", mode]) == 0
            assert "backfilled=" in capsys.readouterr().out

    def test_bare_flag_is_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([*self.BASE, "--backfill"])
        assert exc.value.code == 2
        assert "--backfill: expected one argument" in capsys.readouterr().err

    def test_unknown_mode_rejected(self):
        with pytest.raises(SystemExit, match="backfill"):
            main([*self.BASE, "--backfill", "sometimes"])

    def test_simulate_cache_flag(self, capsys, tmp_path):
        cache = str(tmp_path / "cache")
        assert main([*self.BASE, "--cache", cache]) == 0
        cold = capsys.readouterr().out
        assert main([*self.BASE, "--cache", cache]) == 0
        assert capsys.readouterr().out == cold

    def test_simulate_workers_flag_accepted(self, capsys):
        assert main([*self.BASE, "--workers", "2"]) == 0
        assert "policy=FCFS" in capsys.readouterr().out


class TestRunCommand:
    """`repro-sched run SPEC` reproduces the flag invocations."""

    def _write_eval_spec(self, tmp_path, **extra):
        lines = [
            'spec = "evaluate"',
            f'trace = "{FIXTURE_SWF}"',
            "window_jobs = 50",
            "warmup = 5",
        ]
        lines += [f"{k} = {v}" for k, v in extra.items()]
        path = tmp_path / "eval.toml"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path

    def test_run_evaluate_spec(self, capsys, tmp_path):
        assert main(["run", str(self._write_eval_spec(tmp_path))]) == 0
        out = capsys.readouterr().out
        assert "Evaluation matrix for CTC SP2" in out
        assert "simulated 16, cached 0" in out

    def test_run_matches_flags_byte_identically(self, capsys, tmp_path):
        spec = self._write_eval_spec(tmp_path)
        assert main(["run", str(spec), "--output-dir", str(tmp_path / "s")]) == 0
        spec_stdout = capsys.readouterr().out
        code = main(
            [
                "evaluate",
                "--trace",
                FIXTURE_SWF,
                "--window-jobs",
                "50",
                "--warmup",
                "5",
                "--output-dir",
                str(tmp_path / "f"),
            ]
        )
        assert code == 0
        flag_stdout = capsys.readouterr().out
        assert spec_stdout.replace(str(tmp_path / "s"), "") == flag_stdout.replace(
            str(tmp_path / "f"), ""
        )
        for name in ("eval_matrix.csv", "eval_matrix.json", "eval_matrix_deltas.csv"):
            assert (tmp_path / "s" / name).read_bytes() == (
                tmp_path / "f" / name
            ).read_bytes()

    def test_run_train_spec(self, capsys, tmp_path):
        path = tmp_path / "train.toml"
        path.write_text(
            'spec = "train"\nn_tuples = 1\ntrials_per_tuple = 32\n'
            'scale = "smoke"\ntop_k = 2\n',
            encoding="utf-8",
        )
        out_csv = tmp_path / "dist.csv"
        assert main(["run", str(path), "--output", str(out_csv)]) == 0
        out = capsys.readouterr().out
        assert "rank 1:" in out
        assert out_csv.exists()

    def test_run_simulate_spec(self, capsys, tmp_path):
        path = tmp_path / "sim.toml"
        path.write_text(
            'spec = "simulate"\npolicy = "F1"\njobs = 120\nnmax = 64\n',
            encoding="utf-8",
        )
        assert main(["run", str(path)]) == 0
        assert "policy=F1 jobs=120 nmax=64" in capsys.readouterr().out

    def test_run_table4_spec(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "smoke")
        path = tmp_path / "t4.toml"
        path.write_text(
            'spec = "table4"\nrows = ["ctc_sp2_actual"]\n', encoding="utf-8"
        )
        assert main(["run", str(path)]) == 0
        out = capsys.readouterr().out
        assert "Medians:" in out
        assert "[ctc_sp2_actual]" in out

    def test_run_missing_file_rejected(self):
        with pytest.raises(SystemExit, match="cannot read"):
            main(["run", "no_such_spec.toml"])

    def test_run_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.toml"
        path.write_text('spec = "train"\nn_tuple = 3\n', encoding="utf-8")
        with pytest.raises(SystemExit, match="unknown key"):
            main(["run", str(path)])
        # Documents written before the heterogeneous platform and the
        # evaluate ``stream`` toggle were removed carry keys unknown now.
        for doc, key in (
            (SimulateSpec(policy="fcfs").to_dict(), "hetero"),
            (EvaluateSpec().to_dict(), "stream"),
        ):
            doc[key] = None if key == "hetero" else False
            path = tmp_path / "old.json"
            path.write_text(json.dumps(doc), encoding="utf-8")
            with pytest.raises(SystemExit, match=f"unknown key.*'{key}'"):
                main(["run", str(path)])


class TestSweepCommand:
    def _write_sweep(self, tmp_path, modes='[["none"], ["easy"]]'):
        path = tmp_path / "sweep.toml"
        path.write_text(
            "\n".join(
                [
                    'spec = "sweep"',
                    "[base]",
                    'spec = "evaluate"',
                    f'trace = "{FIXTURE_SWF}"',
                    'policies = ["fcfs"]',
                    'backfill = ["none"]',
                    "window_jobs = 50",
                    "warmup = 5",
                    "[grid]",
                    'policies = [["fcfs"], ["f1"]]',
                    f"backfill = {modes}",
                ]
            )
            + "\n",
            encoding="utf-8",
        )
        return path

    def test_sweep_executes_grid(self, capsys, tmp_path):
        spec = self._write_sweep(tmp_path)
        cache = str(tmp_path / "cache")
        assert main(["sweep", str(spec), "--cache", cache]) == 0
        out = capsys.readouterr().out
        assert "4 evaluate spec(s)" in out
        assert "sweep totals: simulated 16, cached 0" in out

    def test_sweep_rerun_fully_cached_and_extension_incremental(
        self, capsys, tmp_path
    ):
        cache = str(tmp_path / "cache")
        spec = self._write_sweep(tmp_path)
        assert main(["sweep", str(spec), "--cache", cache]) == 0
        capsys.readouterr()
        assert main(["sweep", str(spec), "--cache", cache]) == 0
        assert "sweep totals: simulated 0, cached 16" in capsys.readouterr().out
        wider = self._write_sweep(
            tmp_path, modes='[["none"], ["easy"], ["conservative"]]'
        )
        assert main(["sweep", str(wider), "--cache", cache]) == 0
        assert "sweep totals: simulated 8, cached 16" in capsys.readouterr().out

    def test_sweep_summary_csv(self, capsys, tmp_path):
        spec = self._write_sweep(tmp_path)
        out_dir = tmp_path / "report"
        assert main(["sweep", str(spec), "--output-dir", str(out_dir)]) == 0
        capsys.readouterr()
        lines = (out_dir / "sweep_summary.csv").read_text().splitlines()
        assert lines[0].startswith("policies,backfill,")
        assert len(lines) == 5

    def test_sweep_rejects_non_sweep_spec(self, tmp_path):
        path = tmp_path / "train.toml"
        path.write_text('spec = "train"\n', encoding="utf-8")
        with pytest.raises(SystemExit, match="not a sweep"):
            main(["sweep", str(path)])

    def test_run_accepts_sweep_spec_too(self, capsys, tmp_path):
        spec = self._write_sweep(tmp_path)
        assert main(["run", str(spec)]) == 0
        assert "sweep totals:" in capsys.readouterr().out


class TestInfoSpecKinds:
    def test_info_lists_spec_kinds(self, capsys):
        assert main(["info"]) == 0
        assert "spec kinds: evaluate, simulate, sweep, table4, train" in (
            capsys.readouterr().out
        )


class TestPlatformFlags:
    def _simulate(self, *extra):
        return main(
            [
                "simulate",
                "--policy",
                "fcfs",
                "--swf",
                FIXTURE_SWF,
                "--nmax",
                "1024",
                *extra,
            ]
        )

    def test_topology_one_prints_flat_bytes(self, capsys):
        assert self._simulate() == 0
        flat = capsys.readouterr().out
        assert self._simulate("--topology", "1") == 0
        assert capsys.readouterr().out == flat
        assert "topology=" not in flat

    def test_partitioned_simulate_labels_the_platform(self, capsys):
        assert (
            self._simulate(
                "--topology", "2x2", "--distribution", "by_size", "--backfill", "hybrid"
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "topology=2x2 distribution=by_size" in out

    def test_bad_topology_rejected_at_parse_time(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--topology", "2xbanana"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--topology", "0"])

    def test_uneven_topology_rejected_cleanly(self):
        with pytest.raises(SystemExit, match="does not divide evenly"):
            self._simulate("--topology", "3x3")

    def test_evaluate_topology_matrix(self, capsys, tmp_path):
        cache = str(tmp_path / "cache")
        argv = [
            "evaluate",
            "--trace",
            FIXTURE_SWF,
            "--nmax",
            "1024",
            "--window-jobs",
            "100",
            "--policies",
            "fcfs,f1",
            "--backfill",
            "easy,hybrid",
            "--topology",
            "2x2",
            "--cache",
            cache,
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "topology=2x2 distribution=round_robin" in out
        assert "simulated 8, cached 0" in out
        assert main(argv) == 0
        assert "simulated 0, cached 8" in capsys.readouterr().out


class TestBadScale:
    """A bad scale name exits naming its source on every verb."""

    MESSAGE = (
        r"repro-sched {verb}: unknown scale 'huge' \(from \$REPRO_SCALE\);"
        r" available: "
    )

    @pytest.mark.parametrize(
        "argv", [["info"], ["figures", "--figure", "3"], ["train"], ["table4"]]
    )
    def test_environment_scale(self, argv, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "huge")
        with pytest.raises(SystemExit, match=self.MESSAGE.format(verb=argv[0])):
            main(argv)

    def test_figures_scale_flag(self):
        with pytest.raises(SystemExit, match="repro-sched figures: unknown scale"):
            main(["figures", "--figure", "3", "--scale", "huge"])


SPEC_VERBS = {"train": TrainSpec, "simulate": SimulateSpec,
              "evaluate": EvaluateSpec, "table4": Table4Spec}


def _subparser(verb: str) -> argparse.ArgumentParser:
    parser = build_parser()
    sub = next(
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    )
    return sub.choices[verb]


def _spec(argv: list[str]):
    args = build_parser().parse_args(argv)
    return spec_from_args(args)


class TestSpecFlags:
    """Experiment flags are derived from the spec dataclasses' fields."""

    @pytest.mark.parametrize("verb", sorted(SPEC_VERBS))
    def test_every_field_has_exactly_one_flag(self, verb):
        dests = [
            action.dest
            for action in _subparser(verb)._actions
            if action.option_strings
        ]
        for f in dataclasses.fields(SPEC_VERBS[verb]):
            assert dests.count(f.name) == 1, f.name

    @pytest.mark.parametrize("verb", sorted(SPEC_VERBS))
    def test_bare_verb_builds_the_default_spec(self, verb, monkeypatch):
        monkeypatch.delenv("REPRO_SCALE", raising=False)
        assert _spec([verb]) == SPEC_VERBS[verb]()

    def test_fields_without_a_hand_written_flag_are_reachable(self):
        train = _spec(
            ["train", "--tau", "5", "--s-size", "8", "--q-size", "16",
             "--no-balanced-trials", "--regression-max-points", "100"]
        )
        assert (train.tau, train.s_size, train.q_size) == (5.0, 8, 16)
        assert (train.balanced_trials, train.regression_max_points) == (False, 100)
        assert _spec(["simulate", "--tau", "2"]).tau == 2.0
        assert _spec(["evaluate", "--tau", "3"]).tau == 3.0
        assert _spec(["table4", "--policies", "fcfs,f1"]).policies == ("FCFS", "F1")

    def test_boolean_flags_negate(self):
        assert _spec(["evaluate", "--estimates", "--no-estimates"]).estimates is False
        assert _spec(["simulate", "--estimates"]).estimates is True

    def test_spec_validation_names_the_verb(self):
        with pytest.raises(SystemExit, match="repro-sched evaluate: .*unknown policy"):
            _spec(["evaluate", "--policies", "fcfs,bogus"])


PINS = json.loads(
    (Path(__file__).parent / "data" / "cli_spec_pins.json").read_text("utf-8")
)


class TestFlagParityPins:
    """Flag vectors from the tests, CI and README build pinned specs.

    The pins were recorded from the hand-written parser the derived one
    replaced; ``table4 --rows`` was then several words and is now a
    comma list (the two-row pin).
    """

    @pytest.mark.parametrize("pin", PINS, ids=lambda pin: " ".join(pin["argv"]))
    def test_pinned_spec_and_fingerprint(self, pin, monkeypatch):
        for var in ("REPRO_SCALE", "REPRO_TRACE_REGISTRY"):
            monkeypatch.delenv(var, raising=False)
        spec = _spec(pin["argv"])
        assert json.loads(json.dumps(spec.to_dict())) == pin["spec"]
        assert spec.fingerprint() == pin["fingerprint"]

    def test_pins_cover_the_hand_written_flags(self):
        """Each of the 37 flags the hand-written parser had (39 less the
        removed ``--hetero-archs`` and ``--stream``) is pinned."""
        given = {
            (pin["argv"][0], word.replace("--no-", "--"))
            for pin in PINS
            for word in pin["argv"][1:]
            if word.startswith("--")
        }
        assert len(given) == 37
        for verb, flag in given:
            assert flag in _subparser(verb)._option_string_actions
