"""One fresh benchmark process: set up, make the timed calls, check, report.

``run.py`` starts this file several times per run, so every process
pays the set-up a user pays: interpreter start, ``import repro`` (numpy,
scipy), loading the compiled simulation kernel and generating the first
seeded inputs.  Each seed in ``--seeds`` is one timed call that runs
the workload's parts in order, each on its own inputs from that seed.  The result is one JSON line on standard output.

    python3 perfbench/child.py --workload NAME --seeds N[,N...] --t0 EPOCH
        --workdir DIR [--trace] [--spans FILE]
    python3 perfbench/child.py --load-kernel

The C kernel is required (``REPRO_SIM_KERNEL=c``, set by ``run.py``):
without it the run would silently measure the Python fallback, which
is 10-100x slower for static policies.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
import time
from pathlib import Path


def load_kernel() -> tuple[float, str]:
    """Load (building on first use) the C kernel; fail loudly without it."""
    from repro.sim import _cbackend

    t = time.perf_counter()
    kernel = _cbackend.load()
    load_s = time.perf_counter() - t
    if kernel is None:
        raise SystemExit("the C simulation kernel did not load")
    return load_s, str(_cbackend.cache_dir())


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--load-kernel", action="store_true")
    ap.add_argument("--workload")
    ap.add_argument("--seeds", type=lambda s: [int(x) for x in s.split(",")])
    ap.add_argument("--t0", type=float)
    ap.add_argument("--workdir", type=Path)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans", type=Path)
    args = ap.parse_args(argv)

    if args.load_kernel:
        print(json.dumps({"kernel_dir": load_kernel()[1]}))
        return 0

    import suite
    from repro.obs.metrics import MetricsRegistry, use_registry

    load_s, _ = load_kernel()
    parts = {name: suite.PARTS[name] for name in suite.WORKLOADS[args.workload]}
    out: dict = {"iterations": []}
    for k, seed in enumerate(args.seeds):
        workdir = args.workdir / str(k)
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            inputs = {}
            for name, part in parts.items():
                (workdir / name).mkdir(parents=True)
                inputs[name] = part.prepare(seed, workdir / name)
            if k == 0:
                out["setup_s"] = time.time() - args.t0

            registry = MetricsRegistry()
            tracer = None
            if args.trace:
                import layers
                from spans import Tracer

                tracer = Tracer()
                counts = layers.install(tracer, inputs)
            result, parts_s = {}, {}
            try:
                with use_registry(registry):
                    start = time.perf_counter()
                    for name, part in parts.items():
                        t = time.perf_counter()
                        if tracer is None:
                            result[name] = part.run(inputs[name])
                        else:
                            result[name] = tracer.call(f"bench.{name}", part.run, inputs[name])
                        parts_s[name] = time.perf_counter() - t
                    wall_s = time.perf_counter() - start
            finally:
                if tracer is not None:
                    tracer.restore()

            checked = {name: part.check(inputs[name], result[name]) for name, part in parts.items()}
            problems = [f"{name}: {p}" for name, c in checked.items() for p in c.problems]
            counters = registry.to_dict()["counters"]
            out["iterations"].append({
                "seed": seed,
                "wall_s": wall_s,
                "parts_s": parts_s,
                "jobs": counters.get("sim.jobs_completed", 0) + counters.get("listsched.jobs", 0),
                "attempted": sum(c.attempted for c in checked.values()),
                "failed": sum(c.failed for c in checked.values()),
                "problems": problems[:20],
                "digest": suite.digest({
                    name: part.canonical(inputs[name], result[name])
                    for name, part in parts.items()
                }),
                "counters": counters,
            })
            if tracer is not None:
                out["layers"] = layers.per_layer(tracer, counts, registry, inputs, load_s)
                out["self_by_layer"] = layers.self_by_layer(tracer)
                if args.spans is not None:
                    layers.write_spans(tracer, args.spans)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    out["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
