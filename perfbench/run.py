"""Repository benchmark: one seeded workload, measured end to end or traced.

Run from the root of a checkout:

    python3 perfbench/run.py --workload {paper,traces}
        --seed N --seconds S --trace {0,1}

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the metric names
and units are those of ``BENCHMARK.json`` (``end_to_end`` with
``--trace 0``, ``per_layer`` with ``--trace 1``).  Details of every
call go to standard error.

``--trace 0`` makes ``round(seconds / typical call time)`` timed calls,
call *i* on the inputs of seed ``100 * seed + i``, spread round robin
over three fresh processes (``child.py``), one after another; it
reports the median set-up over the processes and the median wall time
and throughput over the calls.  ``--trace 1`` repeats call 0 in one
untraced and one traced process: per-layer metrics come from the traced
one, whose digest and library counters must equal the untraced ones,
and the ratio of their wall times is the tracing overhead.

The C simulation kernel is compiled once, before any timed call, into
``.bench_build/ckernel`` in the checkout; scratch files live under
``.bench_build/work`` and are removed.  BLAS thread pools are pinned to
one thread so a call does not compete with itself for the host's cores.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
#: Typical wall time of one timed call per workload on the reference host
#: (2 shared cores); a run makes round(seconds / typical) timed calls.
TYPICAL_WALL_S = {"paper": 6.2, "traces": 7.0}
PROCESSES, MAX_CALLS = 3, 100
#: Every run must end within this many seconds (the first run of a
#: checkout additionally compiles the kernel, which is not counted).
DEADLINE_S = 165.0


def call_seeds(seed: int, workload: str, seconds: float) -> list[int]:
    """Input seeds of the timed calls: call *i* of a run uses ``100 * seed + i``."""
    n = min(max(round(seconds / TYPICAL_WALL_S[workload]), PROCESSES), MAX_CALLS)
    return [MAX_CALLS * seed + i for i in range(n)]


def child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["REPRO_SIM_KERNEL"] = "c"
    env["REPRO_CKERNEL_DIR"] = str(root / ".bench_build" / "ckernel")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(args: list[str], env: dict[str, str], timeout: float) -> dict:
    """Run ``child.py`` with *args* and parse its JSON line; fail loudly."""
    cmd = [sys.executable, str(HERE / "child.py"), *args]
    proc = subprocess.run(
        cmd, env=env, capture_output=True, text=True, timeout=max(timeout, 1.0)
    )
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"benchmark process failed ({proc.returncode}): {' '.join(args)}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def process(workload: str, seeds: list[int], root: Path, env: dict, deadline: float,
            trace: bool = False) -> dict:
    """One fresh process: set-up, then one timed call per seed."""
    args = ["--workload", workload, "--seeds=" + ",".join(map(str, seeds)),
            "--workdir", str(root / ".bench_build" / "work" / workload),
            "--t0", repr(time.time())]
    if trace:
        args += ["--trace", "--spans", str(root / ".bench_build" / f"spans-{workload}.jsonl")]
    return run_child(args, env, deadline - time.monotonic())


def end_to_end(procs: list[dict]) -> dict[str, float]:
    med = statistics.median
    calls = [it for p in procs for it in p["iterations"]]
    return {
        "setup_s": med(p["setup_s"] for p in procs),
        "wall_s": med(it["wall_s"] for it in calls),
        "sim_jobs_per_s": med(it["jobs"] / it["wall_s"] for it in calls),
        "peak_rss_mib": med(p["peak_rss_mib"] for p in procs),
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(TYPICAL_WALL_S), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    root = Path.cwd()
    spec_path = root / "BENCHMARK.json"
    if not (root / "src" / "repro" / "__init__.py").is_file() or not spec_path.is_file():
        sys.stderr.write(
            f"{root} is not a checkout of the repository (needs src/repro and BENCHMARK.json)\n"
        )
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    env = child_env(root)
    kernel = run_child(["--load-kernel"], env, timeout=600.0)
    sys.stderr.write(f"simulation backend: C kernel from {kernel['kernel_dir']}\n")
    deadline = time.monotonic() + DEADLINE_S

    seeds = call_seeds(args.seed, args.workload, args.seconds)
    problems: list[str] = []
    if args.trace:
        plain = process(args.workload, seeds[:1], root, env, deadline)
        traced = process(args.workload, seeds[:1], root, env, deadline, trace=True)
        procs = [plain, traced]
        (p_it,), (t_it,) = plain["iterations"], traced["iterations"]
        values = dict(traced["layers"])
        values["bench.trace_overhead_ratio"] = t_it["wall_s"] / p_it["wall_s"]
        wanted = spec["per_layer"]
        if t_it["digest"] != p_it["digest"]:
            problems.append("traced and untraced results differ")
        if t_it["counters"] != p_it["counters"]:
            problems.append("library counters differ between traced and untraced runs")
        for part, by_layer in traced["self_by_layer"].items():
            total = sum(by_layer.values())
            for layer, t in sorted(by_layer.items(), key=lambda kv: -kv[1]):
                sys.stderr.write(f"self time {part:<14} {layer:<22} {t:8.4f} s {t / total:6.1%}\n")
    else:
        procs = [
            process(args.workload, seeds[p::PROCESSES], root, env, deadline)
            for p in range(PROCESSES)
        ]
        values = end_to_end(procs)
        wanted = spec["end_to_end"]

    calls = [it for p in procs for it in p["iterations"]]
    for p in procs:
        sys.stderr.write(f"process setup_s={p['setup_s']:.4f} peak_rss_mib={p['peak_rss_mib']:.1f}\n")
    for it in calls:
        problems += it["problems"]
        parts = " ".join(f"{name}={t:.4f}" for name, t in it["parts_s"].items())
        sys.stderr.write(
            f"call seed={it['seed']} wall_s={it['wall_s']:.4f} ({parts}) jobs={it['jobs']:.0f}"
            f" failed={it['failed']}/{it['attempted']} digest={it['digest'][:16]}\n"
        )
    for p in problems:
        sys.stderr.write(f"problem: {p}\n")

    attempted = sum(it["attempted"] for it in calls)
    failed = sum(it["failed"] for it in calls)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
