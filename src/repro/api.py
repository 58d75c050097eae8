"""repro.api — one entry point that executes any experiment spec.

:func:`run` is the facade over the whole library: give it any
:class:`~repro.specs.Spec` (built in Python, from CLI flags, or loaded
from a TOML/JSON file via :func:`~repro.specs.load_spec` /
:func:`run_file`) and it dispatches to the matching subsystem:

========== ===================================================== =====================
spec kind  executed by                                           returns
========== ===================================================== =====================
train      :func:`repro.core.pipeline.obtain_policies`           ``PipelineResult``
simulate   :func:`repro.sim.engine.simulate` (content-cached)    :class:`SimulateReport`
evaluate   :func:`repro.eval.matrix.run_matrix`                  ``MatrixResult``
table4     :func:`repro.experiments.table4.run_rows`             ``list[DynamicExperimentResult]``
sweep      :func:`run` per expanded child, shared cache          :class:`SweepResult`
========== ===================================================== =====================

``workers``, ``cache`` and ``progress`` are *execution*
arguments, not spec fields: they cannot change any result (the runtime's
bit-identical contract) and therefore never enter a fingerprint.  Passing ``cache``
reuses every content-addressed artifact the specs describe — training
distributions, evaluation cells, single simulations — so re-running a
spec (or growing a sweep grid by one axis value) only simulates what
was never simulated before.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.core.pipeline import PipelineResult, obtain_policies
from repro.eval.matrix import MatrixConfig, MatrixResult, run_matrix
from repro.eval.windows import Window, stream_windows, workload_fingerprint
from repro.experiments.table4 import run_rows
from repro.policies.registry import get_policy
from repro.runtime.cache import ArtifactCache, coerce_cache
from repro.runtime.config import resolve_workers
from repro.sim.engine import simulate
from repro.sim.hetero import (
    HeteroPlatform,
    hetero_simulate,
    parse_arch_specs,
    workload_to_hetero_jobs,
)
from repro.sim.job import Workload
from repro.sim.metrics import makespan as schedule_makespan
from repro.sim.metrics import utilization as schedule_utilization
from repro.sim.platform import platform_identity, topology_label
from repro.specs import (
    EvaluateSpec,
    SimulateSpec,
    Spec,
    SpecError,
    SweepSpec,
    Table4Spec,
    TrainSpec,
    load_spec,
    simulate_cell_fingerprint,
)
from repro.specs.fingerprint import SIMULATE_CELL_FORMAT
from repro.traces import resolve_trace_ref
from repro.workloads.swf import SwfStream, read_swf
from repro.workloads.traces import synthetic_trace

__all__ = [
    "SimulateReport",
    "SweepCell",
    "SweepResult",
    "run",
    "run_file",
]

ProgressFn = Callable[[str, int, int], None]


# ----------------------------------------------------------------------
# result types owned by the facade
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SimulateReport:
    """Metrics of one whole-workload simulation (cache-roundtrippable).

    Unlike :class:`repro.sim.ScheduleResult` this carries only the
    headline metrics, so a cache hit can reproduce it without re-running
    the engine; use :func:`repro.simulate` directly when the full
    per-job schedule is needed.
    """

    policy: str
    backfill: str
    n_jobs: int
    nmax: int
    ave_bsld: float
    makespan: float
    utilization: float
    backfilled: int
    #: Platform label for non-flat runs (e.g. ``"topology=2x4
    #: distribution=round_robin"``); ``None`` on the paper's flat machine,
    #: so flat report lines and cache entries are byte-identical to the
    #: pre-platform library.
    platform: str | None = None
    cached: bool = False

    def line(self) -> str:
        """The one-line summary the CLI prints."""
        text = (
            f"policy={self.policy} jobs={self.n_jobs} nmax={self.nmax} "
            f"AVEbsld={self.ave_bsld:.2f} makespan={self.makespan:.0f}s "
            f"util={self.utilization:.3f} backfilled={self.backfilled}"
        )
        if self.platform is not None:
            text += f" {self.platform}"
        return text

    def to_entry(self) -> dict:
        """JSON-cacheable representation (format-versioned)."""
        entry = {
            "format": SIMULATE_CELL_FORMAT,
            "policy": self.policy,
            "backfill": self.backfill,
            "n_jobs": self.n_jobs,
            "nmax": self.nmax,
            "ave_bsld": self.ave_bsld,
            "makespan": self.makespan,
            "utilization": self.utilization,
            "backfilled": self.backfilled,
        }
        if self.platform is not None:
            entry["platform"] = self.platform
        return entry

    @classmethod
    def from_entry(cls, entry: object) -> "SimulateReport | None":
        """Decode a cache entry; ``None`` for foreign/stale formats."""
        if not isinstance(entry, dict) or entry.get("format") != SIMULATE_CELL_FORMAT:
            return None
        try:
            return cls(
                policy=str(entry["policy"]),
                backfill=str(entry["backfill"]),
                n_jobs=int(entry["n_jobs"]),
                nmax=int(entry["nmax"]),
                ave_bsld=float(entry["ave_bsld"]),
                makespan=float(entry["makespan"]),
                utilization=float(entry["utilization"]),
                backfilled=int(entry["backfilled"]),
                platform=(
                    str(entry["platform"]) if entry.get("platform") is not None else None
                ),
                cached=True,
            )
        except (KeyError, TypeError, ValueError):
            return None


@dataclass(frozen=True)
class SweepCell:
    """One grid point of a sweep: its spec, result and cache accounting."""

    overrides: tuple[tuple[str, Any], ...]
    spec: Spec
    fingerprint: str
    result: Any
    n_simulated: int
    n_cached: int

    def label(self) -> str:
        """``axis=value`` labels of this grid point."""
        return " ".join(f"{k}={_axis_value(v)}" for k, v in self.overrides)


@dataclass(frozen=True)
class SweepResult:
    """All grid points of one executed sweep."""

    spec: SweepSpec
    cells: tuple[SweepCell, ...]

    @property
    def n_simulated(self) -> int:
        """Artifacts simulated across the whole grid."""
        return sum(c.n_simulated for c in self.cells)

    @property
    def n_cached(self) -> int:
        """Artifacts served from cache across the whole grid."""
        return sum(c.n_cached for c in self.cells)

    def summary_table(self) -> str:
        """Terminal rendering: one line per grid point, then totals."""
        lines = [
            f"sweep over {len(self.spec.grid)}"
            f" {'axis' if len(self.spec.grid) == 1 else 'axes'}"
            f" ({' × '.join(name for name, _ in self.spec.grid)}):"
            f" {len(self.cells)} {self.spec.base.kind} spec(s)"
        ]
        for cell in self.cells:
            lines.append(
                f"  {cell.label()} | simulated {cell.n_simulated},"
                f" cached {cell.n_cached} | {_headline(cell.result)}"
            )
        lines.append(
            f"sweep totals: simulated {self.n_simulated}, cached {self.n_cached}"
        )
        return "\n".join(lines)

    def summary_csv(self) -> str:
        """One CSV row per grid point (axes + accounting + headline)."""
        axes = [name for name, _ in self.spec.grid]
        lines = [
            ",".join(axes + ["fingerprint", "n_simulated", "n_cached", "headline"])
        ]
        for cell in self.cells:
            values = dict(cell.overrides)
            lines.append(
                ",".join(
                    [_axis_value(values[a]) for a in axes]
                    + [
                        cell.fingerprint,
                        str(cell.n_simulated),
                        str(cell.n_cached),
                        _headline(cell.result),
                    ]
                )
            )
        return "\n".join(lines) + "\n"


def _axis_value(value: Any) -> str:
    if isinstance(value, tuple):
        if value and all(isinstance(v, int) for v in value):
            # topology tuples: match the CLI spelling ("2x4")
            return topology_label(value)
        return "+".join(str(v) for v in value)
    return str(value)


def _headline(result: Any) -> str:
    """One-phrase summary of a child result for sweep tables."""
    if isinstance(result, MatrixResult):
        return f"windows={result.n_windows} best={result.best()}"
    if isinstance(result, PipelineResult):
        return f"best={result.best.describe()}"
    if isinstance(result, SimulateReport):
        return f"AVEbsld={result.ave_bsld:.2f}"
    if isinstance(result, list):
        return f"rows={len(result)}"
    return type(result).__name__


# ----------------------------------------------------------------------
# per-kind runners
# ----------------------------------------------------------------------
def _run_train(
    spec: TrainSpec,
    *,
    workers: int | str,
    cache: ArtifactCache | None,
    progress: ProgressFn | None,
) -> PipelineResult:
    return obtain_policies(
        spec.to_pipeline_config(), progress, workers=workers, cache=cache
    )


def _swf_nmax_or_raise(spec_nmax: int | None, wl: Workload, path: str) -> int:
    """The effective machine size of an SWF replay, failing clearly.

    Raw PWA files occasionally lack the ``MaxProcs`` header the
    "default --nmax to the trace's machine size" path relies on; name
    the missing header and the override instead of simulating against a
    zero-core machine.
    """
    nmax = spec_nmax or wl.nmax
    if nmax < 1:
        raise ValueError(
            f"machine size unknown: the SWF header of {path} has no"
            " MaxProcs (or MaxNodes) line to default to — pass --nmax"
            " (SimulateSpec.nmax / EvaluateSpec.nmax) to set the machine"
            " size explicitly"
        )
    return nmax


def _simulate_workload(spec: SimulateSpec) -> tuple[Workload, int]:
    """Materialise the spec's workload source and machine size."""
    if spec.swf:
        path = resolve_trace_ref(spec.swf)
        wl = read_swf(path)
        return wl, _swf_nmax_or_raise(spec.nmax, wl, path)
    if spec.trace:
        wl = synthetic_trace(spec.trace, seed=spec.seed, n_jobs=spec.jobs)
        return wl, spec.nmax or wl.nmax
    import repro  # lazy: the facade is imported by repro.__init__

    wl = repro.lublin_workload(spec.jobs or 2000, spec.nmax, seed=spec.seed)
    wl = repro.apply_tsafrir(wl, seed=spec.seed + 1)
    return wl, spec.nmax


def _run_simulate(
    spec: SimulateSpec,
    *,
    workers: int | str,
    cache: ArtifactCache | None,
    progress: ProgressFn | None,
) -> SimulateReport:
    # A single simulation is one serial engine run however many workers
    # were requested; the flag is accepted for CLI symmetry.
    wl, nmax = _simulate_workload(spec)
    if spec.hetero is not None:
        return _run_simulate_hetero(spec, wl, cache=cache, progress=progress)
    # None on the flat machine (and product-1 topologies), so flat cache
    # keys are byte-identical to the pre-platform library.
    platform = platform_identity(spec.topology, spec.distribution, spec.seed)
    key = None
    if cache is not None:
        key = simulate_cell_fingerprint(
            workload_fingerprint=workload_fingerprint(wl),
            policy=spec.policy,
            backfill=spec.backfill,
            nmax=nmax,
            use_estimates=spec.estimates,
            tau=spec.tau,
            platform=platform,
        )
        hit = SimulateReport.from_entry(cache.load_json(key))
        if hit is not None:
            if progress is not None:
                progress("simulate", 1, 1)
            return hit
    result = simulate(
        wl,
        get_policy(spec.policy),
        nmax,
        use_estimates=spec.estimates,
        backfill=spec.backfill,
        tau=spec.tau,
        topology=spec.topology,
        distribution=spec.distribution,
        platform_seed=spec.seed,
    )
    if progress is not None:
        progress("simulate", 1, 1)
    label = None
    if platform is not None:
        label = (
            f"topology={topology_label(spec.topology)}"
            f" distribution={spec.distribution}"
        )
    report = SimulateReport(
        policy=result.policy_name,
        backfill=spec.backfill,
        n_jobs=len(wl),
        nmax=nmax,
        ave_bsld=result.ave_bsld,
        makespan=result.makespan,
        utilization=result.utilization,
        backfilled=result.backfill_count,
        platform=label,
    )
    if cache is not None:
        cache.store_json(key, report.to_entry())
    return report


def _run_simulate_hetero(
    spec: SimulateSpec,
    wl: Workload,
    *,
    cache: ArtifactCache | None,
    progress: ProgressFn | None,
) -> SimulateReport:
    """The heterogeneous-platform branch of the ``simulate`` verb.

    The workload is lifted onto the declared architecture pools
    (:func:`repro.sim.hetero.workload_to_hetero_jobs`) and scheduled by
    the dispatcher prototype; makespan and utilization are computed from
    the runtime of the variant each job actually executed, against the
    platform's total core count.
    """
    archs = parse_arch_specs(spec.hetero)
    platform = HeteroPlatform({a.name: a.cores for a in archs})
    jobs = workload_to_hetero_jobs(wl, archs)
    nmax = platform.total_cores
    key = None
    if cache is not None:
        key = simulate_cell_fingerprint(
            workload_fingerprint=workload_fingerprint(wl),
            policy=spec.policy,
            backfill=spec.backfill,
            nmax=nmax,
            use_estimates=spec.estimates,
            tau=spec.tau,
            platform={"hetero": list(spec.hetero)},
        )
        hit = SimulateReport.from_entry(cache.load_json(key))
        if hit is not None:
            if progress is not None:
                progress("simulate", 1, 1)
            return hit
    result = hetero_simulate(jobs, get_policy(spec.policy), platform, tau=spec.tau)
    if progress is not None:
        progress("simulate", 1, 1)
    executed = result.executed_runtime
    sizes = [job.variants[a].size for job, a in zip(jobs, result.chosen_arch)]
    report = SimulateReport(
        policy=result.policy_name,
        backfill=spec.backfill,
        n_jobs=len(wl),
        nmax=nmax,
        ave_bsld=result.ave_bsld,
        makespan=schedule_makespan(result.start, executed),
        utilization=schedule_utilization(result.start, executed, sizes, nmax),
        backfilled=0,
        platform="hetero=" + "+".join(spec.hetero),
    )
    if cache is not None:
        cache.store_json(key, report.to_entry())
    return report


def _evaluate_source(
    spec: EvaluateSpec, config: MatrixConfig
) -> tuple[Workload | Iterable[Window], str | None]:
    """The window source (and trace-name override) a spec declares.

    ``pwa:<name>`` trace references resolve through the content-verified
    local cache (:func:`repro.traces.resolve_trace_ref`) before any file
    is opened; a missing trace raises the error naming ``repro-sched
    fetch`` rather than a bare file-not-found.
    """
    trace_path = resolve_trace_ref(spec.trace) if spec.trace else None
    if trace_path and spec.stream:
        # Lazy replay: the trace file is parsed incrementally and windows
        # are sliced as jobs stream past — it is never resident in full.
        stream = SwfStream(trace_path, keep_failed=not spec.drop_failed)
        source = stream_windows(
            stream.jobs(),
            jobs=config.window_jobs,
            seconds=config.window_seconds,
            warmup=config.warmup,
            max_windows=config.max_windows,
            name=stream.name,
            # the *effective* machine size, so per-job validation in the
            # stream matches what the matrix will simulate against
            nmax=spec.nmax or stream.machine_size,
        )
        return source, stream.name
    if trace_path:
        wl = read_swf(trace_path, keep_failed=not spec.drop_failed)
    else:
        wl = synthetic_trace(spec.synthetic, seed=spec.seed, n_jobs=spec.jobs)
    if spec.stream:
        # Synthetic/materialised sources still exercise the lazy
        # windowing + batched dispatch path under --stream.
        source = stream_windows(
            wl,
            jobs=config.window_jobs,
            seconds=config.window_seconds,
            warmup=config.warmup,
            max_windows=config.max_windows,
        )
        return source, wl.name
    return wl, None


def _run_evaluate(
    spec: EvaluateSpec,
    *,
    workers: int | str,
    cache: ArtifactCache | None,
    progress: ProgressFn | None,
) -> MatrixResult:
    config = spec.to_matrix_config()
    source, trace_name = _evaluate_source(spec, config)
    return run_matrix(
        source,
        config,
        workers=workers,
        cache=cache,
        progress=progress,
        trace_name=trace_name,
    )


def _run_table4(
    spec: Table4Spec,
    *,
    workers: int | str,
    cache: ArtifactCache | None,
    progress: ProgressFn | None,
) -> list:
    # Table 4 rows have no per-row artifact cache (yet): each row is a
    # fresh dynamic experiment, so ``cache`` is accepted and unused.
    return run_rows(
        spec.resolved_rows(),
        spec.resolve_scale(),
        seed=spec.seed,
        policies=spec.resolved_policies(),
        workers=workers,
        progress=progress,
    )


def _fallback_accounting(spec: Spec, result: Any) -> tuple[int, int]:
    """(simulated, cached) estimate when no cache counters exist."""
    if isinstance(result, MatrixResult):
        return result.n_simulated, result.n_cached
    if isinstance(result, SimulateReport):
        return (0, 1) if result.cached else (1, 0)
    if isinstance(result, list):
        return len(result), 0
    return 1, 0


def _run_sweep(
    spec: SweepSpec,
    *,
    workers: int | str,
    cache: ArtifactCache | None,
    progress: ProgressFn | None,
) -> SweepResult:
    cells = []
    points = spec.iter_grid()
    for i, (overrides, child) in enumerate(points):
        if progress is not None:
            progress("sweep", i, len(points))
        # Cache-counter deltas around the child give uniform accounting
        # (every cacheable layer routes through the shared ArtifactCache).
        snapshot = cache.metrics.delta() if cache is not None else None
        result = run(child, workers=workers, cache=cache, progress=progress)
        if snapshot is not None:
            n_cached = int(snapshot.value("cache.hits"))
            n_simulated = int(snapshot.value("cache.misses"))
        else:
            n_simulated, n_cached = _fallback_accounting(child, result)
        cells.append(
            SweepCell(
                overrides=tuple(overrides.items()),
                spec=child,
                fingerprint=child.fingerprint(),
                result=result,
                n_simulated=n_simulated,
                n_cached=n_cached,
            )
        )
    if progress is not None:
        progress("sweep", len(points), len(points))
    return SweepResult(spec=spec, cells=tuple(cells))


_RUNNERS: dict[str, Callable[..., Any]] = {
    "train": _run_train,
    "simulate": _run_simulate,
    "evaluate": _run_evaluate,
    "table4": _run_table4,
    "sweep": _run_sweep,
}


# ----------------------------------------------------------------------
# the facade
# ----------------------------------------------------------------------
def run(
    spec: Spec,
    *,
    workers: int | str | None = None,
    cache: str | Path | ArtifactCache | None = None,
    progress: ProgressFn | None = None,
) -> Any:
    """Execute *spec* and return its result (see the module table).

    Parameters
    ----------
    spec:
        Any registered spec.  Use :func:`repro.specs.load_spec` (or
        :func:`run_file`) for TOML/JSON documents.
    workers:
        Worker-process count (or ``"auto"``) for the parallel phases;
        ``None`` resolves ``$REPRO_WORKERS``, then 1.  Results are
        bit-identical for every value.
    cache:
        An :class:`~repro.runtime.ArtifactCache` or a directory path for
        one; every content-addressed artifact below the spec is loaded
        instead of recomputed on a hit.
    progress:
        ``progress(phase, done, total)`` callback, same contract as the
        rest of the library.
    """
    if not isinstance(spec, Spec):
        raise SpecError(
            f"run() takes a Spec, got {type(spec).__name__};"
            " use repro.specs.load_spec() for files"
        )
    runner = _RUNNERS.get(spec.kind)
    if runner is None:  # pragma: no cover - registry and runners co-evolve
        raise SpecError(f"no runner registered for spec kind {spec.kind!r}")
    return runner(
        spec,
        workers=resolve_workers(workers),
        cache=coerce_cache(cache),
        progress=progress,
    )


def run_file(
    path: str | Path,
    *,
    workers: int | str | None = None,
    cache: str | Path | ArtifactCache | None = None,
    progress: ProgressFn | None = None,
) -> Any:
    """Load a spec document and :func:`run` it."""
    return run(load_spec(path), workers=workers, cache=cache, progress=progress)
