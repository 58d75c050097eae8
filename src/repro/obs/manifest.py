"""Run manifests: one JSON summary of what a run did and where time went.

A *run manifest* (``run_manifest.json``) is written beside every report
when telemetry is enabled (``--telemetry``): the spec identity
(canonical fingerprint plus, for ``pwa:<name>`` traces, the registry's
pinned content hash), the execution knobs (the resolved workers,
scale and simulation kernel of :mod:`repro.runtime.config`,
plus the seed), cache hit/miss/byte accounting, per-phase wall-time
durations (from the tracer's top-level spans), jobs/events simulated
and the resulting jobs/sec.  ``repro-sched stats RUN_DIR`` renders it
back as a terminal breakdown (:func:`render_manifest`).

Manifests are *observations*, never inputs: nothing in a manifest feeds
a cache key, a fingerprint or an RNG draw, and writing one is atomic
(temp file + rename), so a crashed run never leaves a half manifest.
The result-relevant identities inside — spec fingerprint, trace content
hash — are stable across cache directories, worker counts and telemetry
on/off, which the determinism tests pin down.
"""

from __future__ import annotations

import json
import os
import platform
import sys
from pathlib import Path
from typing import Any

from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import Tracer

__all__ = [
    "MANIFEST_NAME",
    "MANIFEST_SCHEMA",
    "build_manifest",
    "machine_info",
    "read_manifest",
    "render_manifest",
    "write_manifest",
]

#: Bump when the manifest layout changes incompatibly.
MANIFEST_SCHEMA = 1

#: The file name every run writes (and ``repro-sched stats`` reads).
MANIFEST_NAME = "run_manifest.json"


def machine_info() -> dict:
    """The host facts a perf number is meaningless without."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
    }


def _spec_block(spec: Any) -> dict:
    """Identity block of the executed spec (tolerates ``None``)."""
    if spec is None:
        return {}
    block: dict = {
        "kind": getattr(spec, "kind", type(spec).__name__),
        "fingerprint": spec.fingerprint(),
    }
    doc = spec.to_dict()
    block["doc"] = doc
    # Result-relevant source identity: pwa:<name> references pin the
    # registry's content hash, so the manifest attests *which bytes*
    # were evaluated, not where they were cached.
    sources = {}
    for field in ("trace", "swf"):
        ref = doc.get(field)
        if isinstance(ref, str):
            try:
                from repro.specs.simulate import trace_ref_identity

                identity = trace_ref_identity(ref)
            except Exception:  # unfetched/unknown refs: record verbatim
                identity = ref
            sources[field] = {"ref": ref, "identity": identity}
    if sources:
        block["sources"] = sources
    return block


def _platform_block(spec: Any) -> dict | None:
    """Platform identity of the executed spec, ``None`` on flat machines.

    Mirrors :func:`repro.sim.platform.platform_identity` (plus the
    heterogeneous architecture list), so flat-machine manifests carry no
    platform block at all — their bytes match the pre-platform library.
    """
    if spec is None:
        return None
    hetero = getattr(spec, "hetero", None)
    if hetero is not None:
        return {"hetero": list(hetero)}
    from repro.sim.platform import platform_identity

    return platform_identity(
        getattr(spec, "topology", None),
        getattr(spec, "distribution", None),
        getattr(spec, "seed", 0),
    )


def build_manifest(
    *,
    registry: MetricsRegistry,
    tracer: Tracer | None = None,
    spec: Any = None,
    command: str | None = None,
    workers: int | str | None = None,
    chunk_size: int | None = None,
    scale: str | None = None,
    sim_kernel: str | None = None,
    wall_seconds: float | None = None,
) -> dict:
    """Assemble the manifest document from one run's telemetry.

    *registry* should already include the run's cache counters (merge
    ``cache.metrics`` in before calling); *wall_seconds* is the caller's
    end-to-end measurement and the denominator of ``jobs_per_sec``.
    """
    metrics = registry.to_dict()
    counters = metrics["counters"]
    phases = tracer.phase_seconds() if tracer is not None else {}
    # Jobs simulated across both engines: the online scheduler
    # (evaluate/simulate/table4 cells) and the training trial simulator.
    jobs = counters.get("sim.jobs_completed", 0) + counters.get(
        "listsched.jobs", 0
    )
    doc: dict = {
        "schema": MANIFEST_SCHEMA,
        "command": command,
        "spec": _spec_block(spec),
        "execution": {
            "workers": workers,
            "chunk_size": chunk_size,
            "scale": scale,
            "sim_kernel": sim_kernel,
            "argv": list(sys.argv[1:]) if sys.argv else [],
        },
        "runtime": {"shards": registry.timer_count("runtime.shard.wall")},
        "machine": machine_info(),
        "phases": phases,
        "cache": {
            "hits": counters.get("cache.hits", 0),
            "misses": counters.get("cache.misses", 0),
            "bytes_stored": counters.get("cache.bytes_stored", 0),
            "bytes_loaded": counters.get("cache.bytes_loaded", 0),
        },
        "simulation": {
            "jobs_simulated": jobs,
            "events": counters.get("sim.events", 0),
            "engine_runs": counters.get("sim.runs", 0),
            "trials": counters.get("listsched.trials", 0),
            "backfilled": counters.get("sim.backfilled", 0),
            "backfill_passes": counters.get("sim.backfill_passes", 0),
        },
        "wall_seconds": wall_seconds,
        "jobs_per_sec": (
            jobs / wall_seconds if wall_seconds and wall_seconds > 0 else None
        ),
        "metrics": metrics,
    }
    seed = getattr(spec, "seed", None)
    if seed is not None:
        doc["execution"]["seed"] = seed
    platform_block = _platform_block(spec)
    if platform_block is not None:
        doc["platform"] = platform_block
    return doc


def write_manifest(directory: str | Path, manifest: dict) -> Path:
    """Atomically write ``run_manifest.json`` into *directory*."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / MANIFEST_NAME
    tmp = path.with_name(path.name + f".tmp{os.getpid()}")
    try:
        tmp.write_text(
            json.dumps(manifest, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
    return path


def read_manifest(target: str | Path) -> dict:
    """Load a manifest from a run directory or a direct file path."""
    path = Path(target)
    if path.is_dir():
        path = path / MANIFEST_NAME
    if not path.is_file():
        raise FileNotFoundError(
            f"no {MANIFEST_NAME} at {path} — run with --telemetry to write one"
        )
    doc = json.loads(path.read_text(encoding="utf-8"))
    if not isinstance(doc, dict) or "schema" not in doc:
        raise ValueError(f"{path} is not a run manifest")
    return doc


def _fmt_bytes(n: float) -> str:
    for unit in ("B", "KiB", "MiB", "GiB"):
        if abs(n) < 1024 or unit == "GiB":
            return f"{n:.1f} {unit}" if unit != "B" else f"{int(n)} B"
        n /= 1024
    return f"{n:.1f} GiB"  # pragma: no cover - loop always returns


def render_manifest(doc: dict) -> str:
    """Terminal breakdown of one manifest (the ``stats`` verb's output)."""
    spec = doc.get("spec") or {}
    execution = doc.get("execution") or {}
    cache = doc.get("cache") or {}
    sim = doc.get("simulation") or {}
    machine = doc.get("machine") or {}
    lines = [
        f"run manifest (schema {doc.get('schema')})"
        + (f" — {doc['command']}" if doc.get("command") else ""),
    ]
    if spec:
        lines.append(
            f"  spec: kind={spec.get('kind')} fingerprint={spec.get('fingerprint')}"
        )
        for field, src in (spec.get("sources") or {}).items():
            lines.append(f"  {field}: {src['ref']} (identity {src['identity']})")
    platform_block = doc.get("platform") or {}
    if platform_block.get("hetero"):
        lines.append("  platform: hetero=" + ",".join(platform_block["hetero"]))
    elif platform_block.get("topology"):
        lines.append(
            "  platform: topology="
            + "x".join(str(v) for v in platform_block["topology"])
            + f" distribution={platform_block.get('distribution')}"
            + (
                f" seed={platform_block['seed']}"
                if "seed" in platform_block
                else ""
            )
        )
    lines.append(
        "  execution: workers={} scale={} kernel={} seed={}".format(
            execution.get("workers"),
            execution.get("scale"),
            execution.get("sim_kernel"),
            execution.get("seed"),
        )
    )
    lines.append(
        "  machine: python {} on {} ({} cores)".format(
            machine.get("python"), machine.get("machine"), machine.get("cpu_count")
        )
    )
    wall = doc.get("wall_seconds")
    if wall is not None:
        lines.append(f"  wall time: {wall:.3f}s")
    phases = doc.get("phases") or {}
    if phases:
        lines.append("  phases:")
        width = max(len(name) for name in phases)
        for name, seconds in sorted(
            phases.items(), key=lambda kv: kv[1], reverse=True
        ):
            share = f" ({seconds / wall:5.1%})" if wall else ""
            lines.append(f"    {name.ljust(width)}  {seconds:9.3f}s{share}")
    jobs = sim.get("jobs_simulated", 0)
    jps = doc.get("jobs_per_sec")
    lines.append(
        f"  simulated: {jobs} jobs, {sim.get('events', 0)} events,"
        f" {sim.get('engine_runs', 0)} engine runs,"
        f" {sim.get('trials', 0)} trials"
        + (f" -> {jps:,.0f} jobs/sec" if jps else "")
    )
    if sim.get("backfilled") or sim.get("backfill_passes"):
        lines.append(
            f"  backfill: {sim.get('backfilled', 0)} jobs backfilled over"
            f" {sim.get('backfill_passes', 0)} passes"
        )
    total = cache.get("hits", 0) + cache.get("misses", 0)
    if total:
        lines.append(
            f"  cache: {cache.get('hits', 0)} hits / {cache.get('misses', 0)}"
            f" misses ({cache.get('hits', 0) / total:.0%} hit rate),"
            f" stored {_fmt_bytes(cache.get('bytes_stored', 0))},"
            f" loaded {_fmt_bytes(cache.get('bytes_loaded', 0))}"
        )
    else:
        lines.append("  cache: not used")
    timers = (doc.get("metrics") or {}).get("timers") or {}
    if timers:
        lines.append("  timers (cumulative):")
        width = max(len(name) for name in timers)
        for name, entry in sorted(
            timers.items(), key=lambda kv: kv[1]["seconds"], reverse=True
        ):
            lines.append(
                f"    {name.ljust(width)}  {entry['seconds']:9.3f}s"
                f"  x{entry['count']}"
            )
    return "\n".join(lines)
