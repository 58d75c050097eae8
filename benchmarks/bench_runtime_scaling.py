"""Runtime scaling: trial-simulation wall clock vs worker count x backend.

The training pipeline's simulation phase is embarrassingly parallel;
:class:`repro.runtime.TrialRunner` fans it over a pluggable executor
backend with a guarantee of bit-identical results.  This bench measures
the curve at 1/2/4/8 workers for every backend on the active scale's
training config.  Expect >1.5x at 4 workers on a >=4-core machine; on
fewer cores every curve flattens at the core count (the determinism
assertion still exercises the full fan-out path on every backend).

Each point decomposes where the wall time went using the runtime's
telemetry: in-worker compute (the ``runtime.chunk`` timer the workers
report back), queue dispatch (``runtime.queue.dispatch`` — task-file
writing, zero off the workqueue backend), and everything else (spawn,
pickling, lease polling — wall minus the other two).  The workers=1
point on the ``local`` backend runs in process (the serial shortcut) and
is the serial reference every speedup divides; the ``workqueue`` backend
always runs the queue protocol, so its workers=1 point prices the
protocol itself.  On a host with fewer cores than workers the curve
shows dispatch overhead, not speedup.
"""

import os
import time

import numpy as np

from repro.core.pipeline import PipelineConfig, build_distribution
from repro.obs import MetricsRegistry, current_registry, use_registry
from repro.runtime import BACKEND_NAMES

from conftest import BENCH_SEED, run_once

WORKER_COUNTS = (1, 2, 4, 8)


def _sweep(config):
    timings = {}
    baseline = None
    ambient = current_registry()
    for backend in BACKEND_NAMES:
        for workers in WORKER_COUNTS:
            # A fresh registry per point keeps the decomposition per
            # (backend, workers); the totals still merge into the ambient
            # bench registry (and so into BENCH_runtime_scaling.json).
            registry = MetricsRegistry()
            start = time.perf_counter()
            with use_registry(registry):
                _, results, dist = build_distribution(
                    config, workers=workers, backend=backend
                )
            wall = time.perf_counter() - start
            compute = registry.timer_seconds("runtime.chunk")
            dispatch = registry.timer_seconds("runtime.queue.dispatch")
            timings[(backend, workers)] = (
                wall,
                compute,
                dispatch,
                max(0.0, wall - compute - dispatch),
            )
            ambient.merge(registry)
            if baseline is None:
                baseline = dist
            else:
                # the runtime's core guarantee: no backend, worker count
                # or retry ever changes results
                np.testing.assert_array_equal(dist.score, baseline.score)
    return timings


def bench_runtime_scaling(benchmark, record, scale):
    """Simulation-phase speedup of every executor backend."""
    config = PipelineConfig(
        n_tuples=max(scale.n_tuples, 8),
        trials_per_tuple=scale.trials_per_tuple,
        seed=BENCH_SEED,
    )
    timings = run_once(benchmark, _sweep, config)
    serial = timings[("local", 1)][0]
    lines = [
        f"cores available: {os.cpu_count()}",
        f"config: n_tuples={config.n_tuples} "
        f"trials_per_tuple={config.trials_per_tuple}",
        "backend    workers  seconds  speedup  compute  dispatch  other",
    ]
    extra = {}
    for (backend, workers), (wall, compute, dispatch, other) in timings.items():
        speedup = serial / wall if wall > 0 else float("inf")
        lines.append(
            f"{backend:<9s}  {workers:>7d}  {wall:>7.2f}  {speedup:>6.2f}x"
            f"  {compute:>7.2f}  {dispatch:>8.2f}  {other:>5.2f}"
        )
        extra[f"speedup_{backend}_{workers}"] = round(speedup, 3)
        extra[f"overhead_{backend}_{workers}"] = round(dispatch + other, 3)
        if backend == "local":
            # The headline curve the baseline pins: the persistent
            # work-stealing pool, the fastest fan-out on this runtime.
            extra[f"speedup_{workers}"] = round(speedup, 3)
            extra[f"overhead_{workers}"] = round(dispatch + other, 3)
    lines.append(
        "compute = in-worker runtime.chunk seconds; dispatch = queue task"
        " writing (runtime.queue.dispatch); other = spawn + pickle + lease"
        " polling (wall - compute - dispatch)"
    )
    record("\n".join(lines), extra=extra)
