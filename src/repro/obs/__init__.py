"""repro.obs — zero-dependency telemetry: metrics, spans, run manifests.

The observability layer of the library, in three pieces:

* :mod:`repro.obs.metrics` — a process-local
  :class:`~repro.obs.metrics.MetricsRegistry` of counters, gauges and
  monotonic timers.  Worker processes collect into their own registry
  and ship it back on the result channel next to each result; the
  parent merges, so merged parallel metrics equal serial metrics.
* :mod:`repro.obs.tracing` — nested wall-time spans
  (``with span("eval.cell", policy=...)``) collected into an in-memory
  tree, exportable as JSONL; top-level spans become the manifest's
  per-phase durations.
* :mod:`repro.obs.manifest` — the ``run_manifest.json`` written beside
  every report under ``--telemetry`` (spec fingerprint, trace content
  hashes, seed, workers, cache hit/miss/bytes, phase timings, jobs
  simulated, jobs/sec) and its terminal renderer (``repro-sched
  stats``).

**The contract, CI-enforced:** telemetry never forks a result.  The
ambient registry/tracer default to no-op nulls, recording happens at
event/shard/cell granularity (never in a per-job inner loop), and
nothing recorded ever feeds a cache key, a spec fingerprint or an RNG
draw — a run with ``--telemetry`` produces byte-identical result
JSON/CSV to one without.
"""

from repro.obs.manifest import (
    MANIFEST_NAME,
    MANIFEST_SCHEMA,
    build_manifest,
    machine_info,
    read_manifest,
    render_manifest,
    write_manifest,
)
from repro.obs.metrics import (
    NULL_REGISTRY,
    MetricsDelta,
    MetricsRegistry,
    NullRegistry,
    current_registry,
    use_registry,
)
from repro.obs.tracing import (
    NULL_TRACER,
    NullTracer,
    Span,
    Tracer,
    current_tracer,
    span,
    use_tracer,
)

__all__ = [
    "MANIFEST_NAME",
    "MANIFEST_SCHEMA",
    "MetricsDelta",
    "MetricsRegistry",
    "NULL_REGISTRY",
    "NULL_TRACER",
    "NullRegistry",
    "NullTracer",
    "Span",
    "Tracer",
    "build_manifest",
    "current_registry",
    "current_tracer",
    "machine_info",
    "read_manifest",
    "render_manifest",
    "span",
    "use_registry",
    "use_tracer",
    "write_manifest",
]
