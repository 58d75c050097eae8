"""Per-layer metrics of the traced run: where the wrappers go, what they yield.

:func:`install` puts a :class:`~spans.Tracer` wrapper on the module
attribute each layer's caller looks up, so every call into a layer's
public function becomes one span.  Spans are taken at layer
granularity, never per job or per event: the one per-event call (a
dynamic policy's ``scores``) only adds to a timer and a count, so its
time stays inside the self time of ``sim.dynamic``.  :func:`per_layer`
turns spans, the run's :class:`~repro.obs.metrics.MetricsRegistry`
counters and the cache's counters into the metric names of
``BENCHMARK.json``.

Every ``simulate`` call falls into exactly one of four span names, so
their busy times add up to the simulator's total: ``sim.dynamic`` (a
dynamic policy), ``sim.hybrid`` (a static policy with hybrid
backfilling), ``sim.partitioned`` (any other run on a partitioned
topology) and ``sim.static`` (any other run on the flat machine).
"""

from __future__ import annotations

import json
import math
import statistics
from collections import Counter
from pathlib import Path

import repro.api
import repro.core.pipeline
import repro.core.regression
import repro.core.trials
import repro.eval.matrix
import repro.experiments.dynamic
import repro.experiments.table4
import repro.runtime.executor
import suite
from repro.core.distribution import ScoreDistribution
from repro.obs.metrics import MetricsRegistry
from repro.policies.adhoc import UNICEF, WFP3
from repro.runtime.cache import ArtifactCache
from repro.sim.engine import normalize_backfill
from repro.specs import SweepSpec
from spans import Tracer, self_times

#: Counters the library itself keeps; they must repeat exactly.
SIM_COUNTERS = (
    "sim.runs", "sim.events", "sim.jobs_completed", "sim.backfill_passes",
    "sim.backfilled", "sim.leaves", "listsched.trials", "listsched.jobs",
)


def simulate_layer(workload, policy, nmax, **kwargs) -> str:
    """The span name of one ``simulate`` call (see the module docstring)."""
    if policy.dynamic:
        return "sim.dynamic"
    if normalize_backfill(kwargs.get("backfill")) == "hybrid":
        return "sim.hybrid"
    topology = kwargs.get("topology")
    if topology is not None and math.prod(topology) > 1:
        return "sim.partitioned"
    return "sim.static"


def caches(inputs: dict) -> list[ArtifactCache]:
    """The benchmark's own cache instances in a workload's per-part inputs."""
    return [i["cache"] for i in inputs.values() if isinstance(i.get("cache"), ArtifactCache)]


def install(tracer: Tracer, inputs: dict) -> Counter:
    """Wrap every layer boundary the workload's parts can reach.

    *inputs* maps each part to its inputs.  Returns the counts the
    wrappers take at those boundaries.
    """
    counts: Counter = Counter()
    w = tracer.wrap
    # sim
    w(repro.eval.matrix, "simulate", simulate_layer)
    w(repro.experiments.dynamic, "simulate", simulate_layer)
    w(repro.core.trials, "simulate_fixed_priority_batch", "sim.listsched")
    for cls in (WFP3, UNICEF):
        w(cls, "scores", "policies.dynamic.score", span=False)
    # core
    w(repro.core.pipeline, "generate_tuples", "core.taskgen")
    w(repro.runtime.executor, "run_trials", "core.trials")
    w(ScoreDistribution, "from_trial_results", "core.distribution")
    w(repro.core.pipeline, "fit_all", "core.regression")

    def fitted(result, *a, **k):
        counts.update({
            "core.regression.candidates": 1,
            "core.regression.finite": math.isfinite(result.rank_error),
        })

    def solved(result, *a, **k):
        counts.update({"core.regression.solves": 1, "core.regression.nfev": result.nfev})

    w(repro.core.regression, "fit_function", "core.regression.fit", fitted)
    w(repro.core.regression, "least_squares", "core.regression.solve", solved)
    # workloads and experiments
    w(repro.api, "read_swf", "workloads.swf",
      lambda r, *a, **k: counts.update({"workloads.swf.rows": len(r)}))
    w(repro.experiments.table4, "build_row_workload", "workloads.generate")
    w(repro.experiments.dynamic, "extract_sequences", "workloads.sequences")
    w(repro.experiments.table4, "run_row", "experiments.table4.row")
    # eval, stats, api
    w(repro.eval.matrix, "slice_windows", "eval.windows",
      lambda r, *a, **k: counts.update({"eval.windows.count": len(r)}))
    w(repro.api, "run_matrix", "eval.matrix")
    w(repro.eval.matrix, "bootstrap_mean_ci", "stats.bootstrap",
      lambda r, *a, **k: counts.update({"stats.bootstrap.calls": 1}))
    w(suite, "write_matrix_report", "eval.report",
      lambda r, *a, **k: counts.update({"eval.report.bytes": sum(p.stat().st_size for p in r)}))
    w(repro.api, "run",
      lambda spec, *a, **k: "api.sweep" if isinstance(spec, SweepSpec) else "api.run")
    # runtime: the benchmark's own cache instances
    for cache in caches(inputs):
        for method in ("load", "load_json"):
            w(cache, method, "runtime.cache.load")
        for method in ("store", "store_json"):
            w(cache, method, "runtime.cache.store")
    return counts


def layer_of(span_name: str) -> str:
    """The layer a span belongs to: its first two name components."""
    return ".".join(span_name.split(".")[:2])


def self_by_layer(tracer: Tracer) -> dict[str, dict[str, float]]:
    """Self time summed per layer, under each top-level span (one per part)."""
    roots: list[int] = []
    for i, s in enumerate(tracer.spans):
        roots.append(i if s.parent is None else roots[s.parent])
    out: dict[str, dict[str, float]] = {}
    for s, root, t in zip(tracer.spans, roots, self_times(tracer.spans)):
        by_layer = out.setdefault(tracer.spans[root].name, {})
        by_layer[layer_of(s.name)] = by_layer.get(layer_of(s.name), 0.0) + t
    return out


def per_layer(
    tracer: Tracer, c: Counter, registry: MetricsRegistry, inputs: dict,
    load_s: float,
) -> dict[str, float]:
    """Every per-layer metric except ``bench.trace_overhead_ratio``."""
    busy = tracer.busy
    own = tracer.self_by_name()
    rows = tracer.durations("experiments.table4.row")
    cms = [cache.metrics for cache in caches(inputs)]
    hits = sum(cm.value("cache.hits") for cm in cms)
    misses = sum(cm.value("cache.misses") for cm in cms)
    candidates = c["core.regression.candidates"]
    score = tracer.timers.get("policies.dynamic.score", (0.0, 0))
    sweeps = {i for i, s in enumerate(tracer.spans) if s.name == "api.sweep"}
    out = {
        "sim.ckernel.load_s": load_s,
        "sim.static.busy_s": busy("sim.static"),
        "sim.dynamic.busy_s": busy("sim.dynamic"),
        "policies.dynamic.score_calls": score[1],
        "policies.dynamic.score_s": score[0],
        "sim.hybrid.busy_s": busy("sim.hybrid"),
        "sim.partitioned.busy_s": busy("sim.partitioned"),
        "sim.listsched.busy_s": busy("sim.listsched"),
        **{name: registry.value(name) for name in SIM_COUNTERS},
        "core.taskgen.busy_s": busy("core.taskgen"),
        "core.distribution.busy_s": busy("core.distribution"),
        "core.trials.busy_s": busy("core.trials"),
        "core.regression.busy_s": busy("core.regression"),
        "core.regression.candidates": candidates,
        "core.regression.solves": c["core.regression.solves"],
        "core.regression.nfev": c["core.regression.nfev"],
        "core.regression.finite_ratio": (
            c["core.regression.finite"] / candidates if candidates else 0.0
        ),
        "workloads.swf.parse_s": busy("workloads.swf"),
        "workloads.swf.rows": c["workloads.swf.rows"],
        "workloads.generate_s": busy("workloads.generate"),
        "workloads.sequences_s": busy("workloads.sequences"),
        "eval.windows.busy_s": busy("eval.windows"),
        "eval.windows.count": c["eval.windows.count"],
        "eval.matrix.self_s": own.get("eval.matrix", 0.0),
        "eval.cells.simulated": registry.value("eval.cells.simulated"),
        "eval.cells.cached": registry.value("eval.cells.cached"),
        "eval.report.busy_s": busy("eval.report"),
        "eval.report.bytes": c["eval.report.bytes"],
        "stats.bootstrap.busy_s": busy("stats.bootstrap"),
        "stats.bootstrap.calls": c["stats.bootstrap.calls"],
        "runtime.cache.store_s": busy("runtime.cache.store"),
        "runtime.cache.bytes_stored": sum(cm.value("cache.bytes_stored") for cm in cms),
        "runtime.cache.load_s": busy("runtime.cache.load"),
        "runtime.cache.hits": hits,
        "runtime.cache.misses": misses,
        "runtime.cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "api.sweep.self_s": own.get("api.sweep", 0.0),
        "specs.sweep.children": sum(
            s.parent in sweeps and s.name == "api.run" for s in tracer.spans
        ),
        "experiments.table4.row_p50_s": statistics.median(rows) if rows else 0.0,
        "experiments.table4.row_max_s": max(rows, default=0.0),
    }
    return {k: float(v) for k, v in out.items()}


def write_spans(tracer: Tracer, path: Path) -> None:
    """Write the spans as JSON lines (id, name, start, end, parent)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as fh:
        for i, s in enumerate(tracer.spans):
            fh.write(json.dumps(
                {"id": i, "name": s.name, "start": s.start, "end": s.end, "parent": s.parent}
            ) + "\n")
