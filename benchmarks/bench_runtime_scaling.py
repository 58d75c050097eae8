"""Runtime scaling: trial-simulation wall clock vs worker count.

The training pipeline's simulation phase is embarrassingly parallel;
:class:`repro.runtime.TrialRunner` fans it over its worker pool with a
guarantee of bit-identical results.  This bench measures the curve at
1/2/4/8 workers on one fixed training size — 32 tuples x 8192 trials,
whatever ``REPRO_SCALE`` says — large enough that compute, not pool
start-up, dominates every point.  Expect >1.5x at 4 workers on a
>=4-core machine; on fewer cores the curve flattens at the core count
(the determinism assertion still exercises the full fan-out path).

Each point decomposes where the wall time went using the runtime's
telemetry: compute is the worker-seconds spent in chunks (the
``runtime.chunk`` timer the workers report back; the whole wall for
the in-process workers=1 loop), and overhead is the wall beyond an
even split of that compute over the workers (spawn, pickling, queueing,
the idle tail).  The workers=1 point is the serial reference every
speedup divides.  On a host with fewer cores than
workers the curve shows dispatch overhead, not speedup.
"""

import os
import time

import numpy as np

from repro.core.pipeline import PipelineConfig, build_distribution
from repro.obs import MetricsRegistry, current_registry, use_registry

from conftest import BENCH_SEED, run_once

WORKER_COUNTS = (1, 2, 4, 8)

#: Fixed so the curve compares across hosts and scales; 0.86 s serial
#: on a 2-CPU container.
CONFIG = PipelineConfig(n_tuples=32, trials_per_tuple=8192, seed=BENCH_SEED)


def _sweep(config):
    timings = {}
    baseline = None
    ambient = current_registry()
    for workers in WORKER_COUNTS:
        # A fresh registry per point keeps the decomposition per worker
        # count; the totals still merge into the ambient bench registry
        # (and so into BENCH_runtime_scaling.json).
        registry = MetricsRegistry()
        start = time.perf_counter()
        with use_registry(registry):
            _, _, dist = build_distribution(config, workers=workers)
        wall = time.perf_counter() - start
        compute = registry.timer_seconds("runtime.chunk") if workers > 1 else wall
        timings[workers] = (wall, compute, max(0.0, wall - compute / workers))
        ambient.merge(registry)
        if baseline is None:
            baseline = dist
        else:
            # the runtime's core guarantee: no worker count ever
            # changes results
            np.testing.assert_array_equal(dist.score, baseline.score)
    return timings


def bench_runtime_scaling(benchmark, record):
    """Simulation-phase speedup of the worker pool."""
    timings = run_once(benchmark, _sweep, CONFIG)
    serial = timings[1][0]
    lines = [
        f"cores available: {os.cpu_count()}",
        f"config: n_tuples={CONFIG.n_tuples} "
        f"trials_per_tuple={CONFIG.trials_per_tuple}",
        "workers  seconds  speedup  compute  overhead",
    ]
    extra = {}
    for workers, (wall, compute, other) in timings.items():
        speedup = serial / wall if wall > 0 else float("inf")
        lines.append(
            f"{workers:>7d}  {wall:>7.2f}  {speedup:>6.2f}x"
            f"  {compute:>7.2f}  {other:>8.2f}"
        )
        extra[f"speedup_{workers}"] = round(speedup, 3)
        extra[f"overhead_{workers}"] = round(other, 3)
    lines.append(
        "compute = worker-seconds in chunks (runtime.chunk; the wall for"
        " the in-process workers=1 loop); overhead = wall - compute /"
        " workers (spawn + pickle + queueing + idle tail)"
    )
    record("\n".join(lines), extra=extra)
