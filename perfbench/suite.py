"""The benchmark's two seeded workloads and the four parts they are made of.

Each part is a :class:`Part` of four steps.  ``prepare`` turns the
seed into the program's inputs (configs, and SWF files written into the
work directory); it belongs to set-up.  ``run`` is the timed call
through the library's public entry points, always with ``workers=1``.
``check`` counts failed operations without trusting the library's own
bookkeeping, and ``canonical`` reduces the result to a JSON-able value
whose SHA-256 is the run's digest.

Why these parts: ``train`` is the only one through trial simulation and
the regression fits; ``table4`` is the only one on the dynamic-policy
(WFP3/UNICEF) simulation path; ``evaluate`` runs static policies in the
C kernel over a parsed SWF trace and only stores into the cache;
``sweep`` is the only one on partitioned platforms, hybrid backfill and
cache reads.

A benchmark workload (:data:`WORKLOADS`) runs its parts one after the
other in one timed call.  ``paper`` is the paper's own pipeline (learn
the policies, then the Table 4 experiments); ``traces`` is the
trace-driven evaluation under backfilling, on the flat machine and on
partitioned platforms.  Neither reaches a layer the other stresses, so
each is the control for changes to the other's layers.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

import checks
from repro import api, simulate
from repro.core.functions import enumerate_function_space
from repro.core.pipeline import PipelineConfig, obtain_policies
from repro.core.regression import RegressionConfig
from repro.eval.report import write_matrix_report
from repro.eval.windows import slice_windows
from repro.experiments.paper_data import POLICY_COLUMNS
from repro.experiments.scale import SCALES
from repro.experiments.table4 import row_ids, run_rows
from repro.policies import get_policy
from repro.runtime.cache import ArtifactCache
from repro.specs import EvaluateSpec, SweepSpec
from repro.workloads import lublin_workload, synthetic_trace, write_swf
from repro.workloads.lublin import scale_to_utilization

# --- part sizes (each takes a few seconds on a 2-core host) ---------------
TRAIN_TUPLES, TRAIN_TRIALS, TRAIN_NMAX = 16, 8192, 256
TRAIN_REGRESSION = RegressionConfig(bases=("id", "log"), max_points=4000)
TRAIN_CANDIDATES = sum(
    {s.alpha, s.beta, s.gamma} <= set(TRAIN_REGRESSION.bases)
    for s in enumerate_function_space()
)
EVAL_JOBS, EVAL_WINDOW, EVAL_WARMUP, EVAL_BOOTSTRAP = 60_000, 2000, 100, 1000
EVAL_POLICIES = ("fcfs", "spt", "f1", "f2")
EVAL_BACKFILL = ("none", "easy", "conservative")
SWEEP_JOBS, SWEEP_MODEL_NMAX, SWEEP_NMAX, SWEEP_LOAD = 6000, 64, 256, 0.7
SWEEP_WINDOW, SWEEP_WARMUP = 1000, 50
SWEEP_POLICIES = ("fcfs", "f1")
SWEEP_BACKFILL = ("easy", "hybrid")
SWEEP_TOPOLOGIES = ((1,), (2, 2))
SWEEP_DISTRIBUTIONS = ("round_robin", "by_size")


@dataclass(frozen=True)
class Checked:
    """Operations attempted and failed in one run, with the reasons."""

    attempted: int
    failed: int
    problems: list[str]


@dataclass(frozen=True)
class Part:
    """The four steps of one part of a benchmark workload (see the module docstring)."""

    prepare: Callable[[int, Path], dict[str, Any]]
    run: Callable[[dict[str, Any]], Any]
    check: Callable[[dict[str, Any], Any], Checked]
    canonical: Callable[[dict[str, Any], Any], Any]


def digest(value: Any) -> str:
    """SHA-256 of a canonical JSON value (floats spelled as hex)."""

    def encode(v: Any) -> Any:
        if isinstance(v, (float, np.floating)):
            return float(v).hex()
        if isinstance(v, np.ndarray):
            return [encode(x) for x in v.tolist()]
        if isinstance(v, dict):
            return {str(k): encode(x) for k, x in v.items()}
        if isinstance(v, (list, tuple)):
            return [encode(x) for x in v]
        if isinstance(v, np.integer):
            return int(v)
        return v

    text = json.dumps(encode(value), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


# --- train -----------------------------------------------------------------
def prepare_train(seed: int, workdir: Path) -> dict[str, Any]:
    return {
        "config": PipelineConfig(
            n_tuples=TRAIN_TUPLES,
            trials_per_tuple=TRAIN_TRIALS,
            nmax=TRAIN_NMAX,
            seed=seed,
            regression=TRAIN_REGRESSION,
        )
    }


def run_train(inputs: dict[str, Any]):
    return obtain_policies(inputs["config"], workers=1)


def check_train(inputs: dict[str, Any], result) -> Checked:
    failed, problems = checks.train_problems(
        [t.scores for t in result.trial_results],
        [f.rank_error for f in result.fitted],
    )
    expected = inputs["config"].n_tuples + TRAIN_CANDIDATES
    if len(result.trial_results) + len(result.fitted) != expected:
        problems.append(
            f"{len(result.trial_results)} tuples + {len(result.fitted)} candidates,"
            f" expected {expected} operations"
        )
        failed = expected
    return Checked(expected, failed, problems)


def canonical_train(inputs: dict[str, Any], result) -> Any:
    return {
        "scores": [t.scores for t in result.trial_results],
        "fitted": [(f.spec.short_name, f.coeffs, f.rank_error) for f in result.fitted],
        "policies": [p.name for p in result.policies],
    }


# --- table4 ----------------------------------------------------------------
def prepare_table4(seed: int, workdir: Path) -> dict[str, Any]:
    return {"seed": seed, "scale": SCALES["smoke"]}


def run_table4(inputs: dict[str, Any]):
    return run_rows(None, inputs["scale"], seed=inputs["seed"], workers=1)


def check_table4(inputs: dict[str, Any], result) -> Checked:
    medians = {r.name: r.medians() for r in result}
    failed, problems = checks.table4_problems(medians, row_ids(), POLICY_COLUMNS)
    return Checked(len(row_ids()), failed, problems)


def canonical_table4(inputs: dict[str, Any], result) -> Any:
    return [(r.name, {p: r.samples[p] for p in r.policy_names}) for r in result]


# --- evaluate / sweep shared ---------------------------------------------------
def _cells(result) -> list[tuple[int, str, str, float]]:
    return [(c.window, c.policy, c.backfill, c.ave_bsld) for c in result.cells]


def _canonical_cells(result) -> list:
    return [
        (c.window, c.policy, c.backfill, c.n_jobs, c.n_scored, c.ave_bsld,
         c.utilization, c.makespan, c.backfilled, c.cached)
        for c in result.cells
    ]


def _sample_validity(
    workload, result, spec: EvaluateSpec, nmax: int, seed: int
) -> tuple[int, list[str]]:
    """Re-run one seeded window per backfill mode through ``repro.simulate``.

    The re-run must be a feasible schedule (per leaf when partitioned)
    and reproduce the matrix cell's ``ave_bsld`` exactly; a window that
    fails either way fails every cell of that window and mode.
    """
    windows = slice_windows(workload, jobs=spec.window_jobs, warmup=spec.warmup)
    rng = np.random.default_rng([seed, len(windows)])
    policies = [get_policy(p).name for p in spec.policies]
    failed, problems = 0, []
    for backfill in spec.backfill:
        win = windows[int(rng.integers(len(windows)))]
        policy = policies[int(rng.integers(len(policies)))]
        wl = win.workload
        res = simulate(
            wl, get_policy(policy), nmax, backfill=backfill,
            topology=spec.topology, distribution=spec.distribution,
            platform_seed=spec.seed,
        )
        leaves = 1 if spec.topology is None else int(np.prod(spec.topology))
        found = checks.schedule_problems(
            wl.submit, res.start, wl.runtime, wl.size, nmax // leaves,
            None if leaves == 1 else res.leaf,
        )
        cell = next(
            (c for c in result.cells
             if (c.window, c.policy, c.backfill) == (win.index, policy, backfill)),
            None,
        )
        rerun = float(res.bsld()[win.warmup:].mean())
        if cell is None or cell.ave_bsld != rerun:
            found.append(f"cell ave_bsld {getattr(cell, 'ave_bsld', None)!r} != re-run {rerun!r}")
        if found:
            failed += len(policies)
            problems += [f"window {win.index} {backfill}: {p}" for p in found]
    return failed, problems


# --- evaluate ----------------------------------------------------------------
def prepare_evaluate(seed: int, workdir: Path) -> dict[str, Any]:
    wl = synthetic_trace("ctc_sp2", seed=seed, n_jobs=EVAL_JOBS)
    path = workdir / "ctc_sp2.swf"
    write_swf(wl, path)
    spec = EvaluateSpec(
        trace=str(path),
        policies=EVAL_POLICIES,
        backfill=EVAL_BACKFILL,
        window_jobs=EVAL_WINDOW,
        warmup=EVAL_WARMUP,
        bootstrap=EVAL_BOOTSTRAP,
        seed=seed,
    )
    return {
        "workload": wl, "spec": spec, "seed": seed,
        "cache": ArtifactCache(workdir / "cache"), "report": workdir / "report",
    }


def run_evaluate(inputs: dict[str, Any]):
    spec = inputs["spec"]
    result = api.run(spec, workers=1, cache=inputs["cache"])
    paths = write_matrix_report(
        inputs["report"], result, baseline=spec.baseline,
        n_boot=spec.bootstrap, level=spec.ci,
    )
    return result, paths


def check_evaluate(inputs: dict[str, Any], outcome) -> Checked:
    result, _ = outcome
    spec = inputs["spec"]
    n_windows = EVAL_JOBS // EVAL_WINDOW
    expected = n_windows * len(spec.policies) * len(spec.backfill)
    failed, problems = checks.matrix_problems(
        _cells(result), n_windows=n_windows, policies=spec.policies,
        backfills=spec.backfill, n_cached=result.n_cached, expected_cached=0,
    )
    v_failed, v_problems = _sample_validity(
        inputs["workload"], result, spec, result.nmax, inputs["seed"]
    )
    return Checked(expected, min(failed + v_failed, expected), problems + v_problems)


def canonical_evaluate(inputs: dict[str, Any], outcome) -> Any:
    result, paths = outcome
    return {
        "cells": _canonical_cells(result),
        "split": (result.n_simulated, result.n_cached),
        "report": {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in paths},
    }


# --- sweep -------------------------------------------------------------------
def prepare_sweep(seed: int, workdir: Path) -> dict[str, Any]:
    # Jobs sized for a 64-core machine fit one leaf of the 2x2 topology;
    # arrivals are compressed to 0.7 offered load on all 256 cores so
    # that jobs queue and backfilling has work to do.
    wl = lublin_workload(SWEEP_JOBS, SWEEP_MODEL_NMAX, seed=seed, name="lublin_sweep")
    wl = dataclasses.replace(
        scale_to_utilization(wl, SWEEP_LOAD, SWEEP_NMAX), nmax=SWEEP_NMAX
    )
    path = workdir / "lublin_sweep.swf"
    write_swf(wl, path)
    base = EvaluateSpec(
        trace=str(path),
        policies=SWEEP_POLICIES,
        backfill=SWEEP_BACKFILL,
        window_jobs=SWEEP_WINDOW,
        warmup=SWEEP_WARMUP,
        seed=seed,
    )
    spec = SweepSpec(
        base=base,
        grid={
            "topology": [list(t) for t in SWEEP_TOPOLOGIES],
            "distribution": list(SWEEP_DISTRIBUTIONS),
        },
    )
    return {"workload": wl, "spec": spec, "seed": seed, "cache": ArtifactCache(workdir / "cache")}


def run_sweep(inputs: dict[str, Any]):
    return api.run(inputs["spec"], workers=1, cache=inputs["cache"])


def check_sweep(inputs: dict[str, Any], result) -> Checked:
    n_windows = SWEEP_JOBS // SWEEP_WINDOW
    per_child = n_windows * len(SWEEP_POLICIES) * len(SWEEP_BACKFILL)
    n_children = len(SWEEP_TOPOLOGIES) * len(SWEEP_DISTRIBUTIONS)
    expected = per_child * n_children
    failed, problems = 0, []
    if len(result.cells) != n_children:
        problems.append(f"{len(result.cells)} sweep children, expected {n_children}")
        failed = expected
    for child in result.cells:
        spec = child.spec
        # A product-one topology is the flat machine whatever the
        # distribution, so only its first distribution simulates; the
        # others are served wholly from the cache.
        flat = int(np.prod(spec.topology)) == 1
        cached = per_child if flat and spec.distribution != SWEEP_DISTRIBUTIONS[0] else 0
        f, p = checks.matrix_problems(
            _cells(child.result), n_windows=n_windows, policies=spec.policies,
            backfills=spec.backfill, n_cached=child.result.n_cached,
            expected_cached=cached,
        )
        v_failed, v_problems = _sample_validity(
            inputs["workload"], child.result, spec, child.result.nmax, inputs["seed"]
        )
        failed += f + v_failed
        problems += [f"{child.label()}: {q}" for q in p + v_problems]
    return Checked(expected, min(failed, expected), problems)


def canonical_sweep(inputs: dict[str, Any], result) -> Any:
    return [
        (child.label(), child.n_simulated, child.n_cached, _canonical_cells(child.result))
        for child in result.cells
    ]


PARTS: dict[str, Part] = {
    "train": Part(prepare_train, run_train, check_train, canonical_train),
    "table4": Part(prepare_table4, run_table4, check_table4, canonical_table4),
    "evaluate": Part(prepare_evaluate, run_evaluate, check_evaluate, canonical_evaluate),
    "sweep": Part(prepare_sweep, run_sweep, check_sweep, canonical_sweep),
}

#: Benchmark workload -> the parts its timed call runs, in order.
WORKLOADS: dict[str, tuple[str, ...]] = {
    "paper": ("train", "table4"),
    "traces": ("evaluate", "sweep"),
}
