"""The evaluation matrix runner: {policies × backfill modes × windows}.

One *cell* of the matrix is the deterministic simulation of one trace
window under one policy and one backfill mode; the matrix fans its cells
over :class:`repro.runtime.TrialRunner`, so a real-trace evaluation
scales with the worker pool exactly like training does.  Three contracts
carry over from the runtime:

* **determinism** — cells are enumerated window-major before dispatch
  and reassembled by index, so the result is bit-identical for any
  ``workers`` count (the engine itself is a pure function of
  its inputs; the recorded per-cell seed is spawned per index for any
  future stochastic policy, never drawn from a shared stream);
* **content-addressed caching** — each cell's key fingerprints the
  window's arrays plus every result-relevant knob
  (:func:`repro.runtime.config_fingerprint`), so a re-run with an
  unchanged config loads every cell from the
  :class:`~repro.runtime.ArtifactCache` without simulating;
* **fail-fast validation** — the workload is validated against the
  machine size on entry (:meth:`Workload.validate_for_machine`), naming
  the offending job instead of dying mid-simulation.

:func:`run_matrix` accepts either a materialised
:class:`~repro.sim.job.Workload` (cut here by
:func:`repro.eval.windows.stream_windows`) or an *iterable of windows*
(e.g. :func:`~repro.eval.windows.stream_windows` over an SWF file, so an
archive-scale trace is never resident in full).  Both feed one loop
that dispatches cells in bounded batches as windows arrive — and
because one slicer cuts every window and cells are pure functions with
index-derived seeds and content-derived cache keys, the two sources
produce bit-identical results for any ``workers`` count.
"""

from __future__ import annotations

import re
from collections.abc import Iterable
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

# slice_windows stays importable from here: the repository benchmark
# wraps ``repro.eval.matrix.slice_windows``.
from repro.eval.windows import Window, slice_windows, stream_windows  # noqa: F401
from repro.obs.metrics import current_registry
from repro.obs.tracing import span
from repro.policies.registry import get_policy
from repro.runtime import ArtifactCache, TrialRunner, coerce_cache
from repro.runtime.progress import ProgressCallback
from repro.sim.engine import normalize_backfill, simulate
from repro.specs.fingerprint import eval_cell_fingerprint
from repro.sim.job import Workload
from repro.sim.metrics import DEFAULT_TAU
from repro.util.rng import RngFactory
from repro.util.stats import BootstrapCI, Summary, bootstrap_mean_ci, summarize
from repro.util.validation import check_positive, check_positive_int

__all__ = [
    "BACKFILL_TOKENS",
    "CellResult",
    "MatrixConfig",
    "MatrixResult",
    "run_matrix",
]

#: Canonical backfill-axis tokens (CLI and config spelling).
BACKFILL_TOKENS = ("none", "easy", "conservative", "hybrid")

#: Bump when CellResult's cached fields change; stale entries turn into
#: cache misses instead of mis-decoding.
_CELL_FORMAT = 1


def _normalize_backfill_token(token: str | bool | None) -> str:
    # The engine owns the vocabulary; the matrix axis just needs a string
    # token ("none" rather than None) for cache keys and CSV columns.
    return normalize_backfill(token) or "none"


@dataclass(frozen=True)
class MatrixConfig:
    """Declarative description of one evaluation matrix.

    Exactly one of *window_jobs* / *window_seconds* selects the slicing
    axis.  ``nmax=0`` defers to the workload's own machine size (SWF
    header ``MaxProcs``).  Policy names are canonicalised through the
    registry and backfill tokens through :data:`BACKFILL_TOKENS`, so two
    configs that mean the same thing fingerprint the same.
    """

    policies: tuple[str, ...]
    backfill: tuple[str, ...] = ("none",)
    nmax: int = 0
    use_estimates: bool = False
    tau: float = DEFAULT_TAU
    window_jobs: int | None = None
    window_seconds: float | None = None
    warmup: int = 0
    max_windows: int | None = None
    seed: int = 0
    #: Platform topology tuple (``None`` = the paper's flat machine);
    #: partitions every cell's machine into equal per-leaf schedulers.
    topology: tuple[int, ...] | None = None
    #: Job→leaf distribution strategy for partitioned topologies (the
    #: ``random`` strategy draws from the config *seed*).
    distribution: str = "round_robin"

    def __post_init__(self) -> None:
        if not self.policies:
            raise ValueError("at least one policy is required")
        canonical = tuple(get_policy(name).name for name in self.policies)
        if len(set(canonical)) != len(canonical):
            raise ValueError(f"duplicate policies in {self.policies}")
        object.__setattr__(self, "policies", canonical)
        modes = tuple(_normalize_backfill_token(b) for b in self.backfill)
        if not modes:
            raise ValueError("at least one backfill mode is required")
        if len(set(modes)) != len(modes):
            raise ValueError(f"duplicate backfill modes in {self.backfill}")
        object.__setattr__(self, "backfill", modes)
        if (self.window_jobs is None) == (self.window_seconds is None):
            raise ValueError("pass exactly one of window_jobs / window_seconds")
        if self.window_jobs is not None:
            check_positive_int("window_jobs", self.window_jobs)
        if self.window_seconds is not None:
            check_positive("window_seconds", float(self.window_seconds))
        check_positive_int("warmup", self.warmup, allow_zero=True)
        if self.max_windows is not None:
            check_positive_int("max_windows", self.max_windows)
        if self.nmax < 0:
            raise ValueError(f"nmax must be >= 0, got {self.nmax}")
        if self.tau <= 0:
            raise ValueError(f"tau must be > 0, got {self.tau}")
        from repro.sim.platform import normalize_distribution, normalize_topology

        object.__setattr__(self, "topology", normalize_topology(self.topology))
        object.__setattr__(
            self, "distribution", normalize_distribution(self.distribution)
        )


@dataclass(frozen=True)
class CellResult:
    """Metrics of one (window, policy, backfill) simulation."""

    window: int
    policy: str
    backfill: str
    n_jobs: int
    n_scored: int
    ave_bsld: float
    utilization: float
    makespan: float
    backfilled: int
    seed: int
    cached: bool = False

    def to_entry(self) -> dict:
        """JSON-cacheable representation (format-versioned)."""
        return {
            "format": _CELL_FORMAT,
            "window": self.window,
            "policy": self.policy,
            "backfill": self.backfill,
            "n_jobs": self.n_jobs,
            "n_scored": self.n_scored,
            "ave_bsld": self.ave_bsld,
            "utilization": self.utilization,
            "makespan": self.makespan,
            "backfilled": self.backfilled,
            "seed": self.seed,
        }

    @classmethod
    def from_entry(cls, entry: dict) -> "CellResult | None":
        """Decode a cache entry; ``None`` for foreign/stale formats."""
        if not isinstance(entry, dict) or entry.get("format") != _CELL_FORMAT:
            return None
        try:
            return cls(
                window=int(entry["window"]),
                policy=str(entry["policy"]),
                backfill=str(entry["backfill"]),
                n_jobs=int(entry["n_jobs"]),
                n_scored=int(entry["n_scored"]),
                ave_bsld=float(entry["ave_bsld"]),
                utilization=float(entry["utilization"]),
                makespan=float(entry["makespan"]),
                backfilled=int(entry["backfilled"]),
                seed=int(entry["seed"]),
                cached=True,
            )
        except (KeyError, TypeError, ValueError):
            return None


@dataclass(frozen=True)
class _CellTask:
    """Picklable work unit handed to the worker pool."""

    window: int
    policy: str
    backfill: str
    submit: np.ndarray
    runtime: np.ndarray
    size: np.ndarray
    estimate: np.ndarray
    nmax: int
    use_estimates: bool
    tau: float
    warmup: int
    seed: int
    topology: tuple[int, ...] | None = None
    distribution: str = "round_robin"
    #: seed of the ``random`` distribution (the config seed — identical
    #: for every cell, so a window's assignment is cache-stable).
    platform_seed: int = 0


def _simulate_cell(task: _CellTask) -> CellResult:
    """Simulate one matrix cell (module-level: pool-picklable).

    The ``eval.cell`` timer is per *cell* (one whole window simulation),
    recorded into whatever registry is ambient — the worker call's when
    fanned out, the run's when serial, the null registry otherwise.
    """
    with current_registry().timer("eval.cell"):
        return _simulate_cell_inner(task)


def _simulate_cell_inner(task: _CellTask) -> CellResult:
    wl = Workload(
        submit=task.submit,
        runtime=task.runtime,
        size=task.size,
        estimate=task.estimate,
        job_ids=np.arange(len(task.submit), dtype=np.int64),
        name=f"cell[w{task.window}]",
        nmax=task.nmax,
    )
    result = simulate(
        wl,
        get_policy(task.policy),
        task.nmax,
        use_estimates=task.use_estimates,
        backfill=task.backfill,
        tau=task.tau,
        topology=task.topology,
        distribution=task.distribution,
        platform_seed=task.platform_seed,
    )
    scored = result.bsld()[task.warmup :]
    return CellResult(
        window=task.window,
        policy=task.policy,
        backfill=task.backfill,
        n_jobs=len(wl),
        n_scored=len(scored),
        ave_bsld=float(scored.mean()),
        utilization=result.utilization,
        makespan=result.makespan,
        backfilled=result.backfill_count,
        seed=task.seed,
    )


@dataclass(frozen=True)
class MatrixResult:
    """All cells of one evaluation matrix, window-major."""

    config: MatrixConfig
    trace_name: str
    nmax: int
    n_windows: int
    cells: tuple[CellResult, ...]
    n_simulated: int
    n_cached: int

    @cached_property
    def _by_key(self) -> dict[tuple[int, str, str], CellResult]:
        return {(c.window, c.policy, c.backfill): c for c in self.cells}

    def cell(self, window: int, policy: str, backfill: str) -> CellResult:
        """Look up one cell (canonical policy/backfill spelling)."""
        return self._by_key[(window, policy, backfill)]

    def samples(self, policy: str, backfill: str) -> np.ndarray:
        """Per-window AVEbsld of one (policy, backfill) series."""
        return np.array(
            [
                self._by_key[(w, policy, backfill)].ave_bsld
                for w in range(self.n_windows)
            ],
            dtype=float,
        )

    def summaries(self) -> dict[tuple[str, str], Summary]:
        """AVEbsld summary per (policy, backfill) series over windows."""
        return {
            (p, b): summarize(self.samples(p, b))
            for p in self.config.policies
            for b in self.config.backfill
        }

    def paired_deltas(self, baseline: str | None = None) -> dict[tuple[str, str], np.ndarray]:
        """Per-window ``AVEbsld(policy) - AVEbsld(baseline)`` deltas.

        Pairing is within a window and a backfill mode — both series saw
        the identical job stream, so the difference isolates the policy
        (the paper's boxplots make the same pairing across sequences).
        *baseline* defaults to the config's first policy.
        """
        base = get_policy(baseline).name if baseline else self.config.policies[0]
        if base not in self.config.policies:
            raise ValueError(
                f"baseline {base!r} is not part of this matrix {self.config.policies}"
            )
        return {
            (p, b): self.samples(p, b) - self.samples(base, b)
            for p in self.config.policies
            if p != base
            for b in self.config.backfill
        }

    @cached_property
    def _delta_ci_memo(self) -> dict:
        # delta_cis is deterministic in (baseline, n_boot, level); the CLI
        # renders terminal + JSON + CSV from one result, so memoising here
        # avoids re-running the bootstrap once per report format.
        return {}

    def delta_cis(
        self,
        baseline: str | None = None,
        *,
        n_boot: int = 1000,
        level: float = 0.95,
    ) -> dict[tuple[str, str], BootstrapCI]:
        """Paired percentile-bootstrap CIs on the per-window deltas.

        One :class:`~repro.util.stats.BootstrapCI` per
        :meth:`paired_deltas` series: the mean per-window
        ``AVEbsld(policy) - AVEbsld(baseline)`` with a *level* interval
        from *n_boot* vectorised resamples.  Each series draws from its
        own named stream of the config seed
        (``bootstrap:<policy>/<backfill>:<baseline>`` via
        :class:`~repro.util.rng.RngFactory`), so intervals are
        reproducible for a fixed seed and independent of how many other
        series exist or in which order they are computed.  A
        single-window matrix yields point estimates with undefined
        (NaN-bounded) intervals instead of failing; ``n_boot=0``
        disables resampling the same way.
        """
        base = get_policy(baseline).name if baseline else self.config.policies[0]
        memo_key = (base, n_boot, level)
        if memo_key not in self._delta_ci_memo:
            factory = RngFactory(self.config.seed)
            self._delta_ci_memo[memo_key] = {
                (p, b): bootstrap_mean_ci(
                    deltas,
                    n_boot=n_boot,
                    level=level,
                    seed=factory.get(f"bootstrap:{p}/{b}:{base}"),
                )
                for (p, b), deltas in self.paired_deltas(base).items()
            }
        return self._delta_ci_memo[memo_key]

    def best(self, backfill: str | None = None) -> str:
        """Policy with the lowest median AVEbsld (optionally one mode)."""
        modes = (
            (_normalize_backfill_token(backfill),)
            if backfill is not None
            else self.config.backfill
        )
        medians = {
            p: float(
                np.median(np.concatenate([self.samples(p, b) for b in modes]))
            )
            for p in self.config.policies
        }
        return min(medians, key=medians.get)


def _cell_key(
    window_fingerprint: str, config: MatrixConfig, nmax: int, policy: str, backfill: str
) -> str:
    # The payload lives in specs.fingerprint (the single home of cache-key
    # derivations); keys are byte-compatible with pre-spec-layer caches —
    # the platform identity is None for flat (and product-1) topologies,
    # so it only enters the key when it can change the result.
    from repro.sim.platform import platform_identity

    return eval_cell_fingerprint(
        window_fingerprint=window_fingerprint,
        policy=policy,
        backfill=backfill,
        nmax=nmax,
        use_estimates=config.use_estimates,
        tau=config.tau,
        cell_format=_CELL_FORMAT,
        platform=platform_identity(config.topology, config.distribution, config.seed),
    )


_WINDOW_SUFFIX = re.compile(r"\[w\d+\]$")


def _resolve_nmax(config: MatrixConfig, workload_nmax: int) -> int:
    nmax = config.nmax or workload_nmax
    if nmax < 1:
        raise ValueError(
            "machine size unknown: the trace's SWF header has no MaxProcs"
            " (or MaxNodes) line to default to — pass --nmax (MatrixConfig"
            ".nmax / EvaluateSpec.nmax) to set the machine size explicitly"
        )
    if config.topology is not None:
        # Fail fast (before any cell dispatches) if nmax does not divide
        # over the leaves; the constructed platform is discarded.
        from repro.sim.platform import PartitionedPlatform

        PartitionedPlatform(nmax, config.topology)
    return nmax


def run_matrix(
    source: Workload | Iterable[Window],
    config: MatrixConfig,
    *,
    workers: int | str | None = None,
    cache: str | ArtifactCache | None = None,
    progress: ProgressCallback | None = None,
    trace_name: str | None = None,
) -> MatrixResult:
    """Evaluate *source* over the full policy × backfill × window matrix.

    *source* is either a materialised :class:`~repro.sim.job.Workload`
    (validated whole against the machine size, then cut by
    :func:`~repro.eval.windows.stream_windows` as the cells consume it)
    or an iterable of :class:`~repro.eval.windows.Window` — typically
    :func:`~repro.eval.windows.stream_windows` over an SWF file, which is
    then never resident in full.  *trace_name* labels the result
    (default: the workload's name, or the window names with their
    ``[w<k>]`` suffix stripped).

    Both sources are cut by the one slicer and run through one loop, so
    the two are bit-identical to each other and across any ``workers``
    count (an execution knob, never part of a cell's cache key): cell
    ``k`` (window-major enumeration) draws child ``k`` of the config
    seed via incremental
    ``SeedSequence.spawn`` — spawning one child at a time yields exactly
    the children a single batched spawn would — cache keys fingerprint
    window content, and cells are pure functions.  With *cache*, cells
    already present are loaded instead of simulated and fresh cells are
    stored; only cache-missing cells reach the pool, so a fully cached
    re-run simulates nothing.  Memory is bounded by the dispatch batch
    (a few hundred windows' arrays) plus whatever *source* holds.

    *progress* sees ``("cells", done, total)`` counted across every
    dispatch batch: *done* never decreases and the last report is
    ``(n, n)`` for the *n* cells simulated.
    """
    registry = current_registry()
    nmax: int | None = None
    if isinstance(source, Workload):
        nmax = _resolve_nmax(config, source.nmax)
        source.validate_for_machine(nmax)
        if trace_name is None:
            trace_name = source.name
        source = stream_windows(
            source,
            jobs=config.window_jobs,
            seconds=config.window_seconds,
            warmup=config.warmup,
            max_windows=config.max_windows,
            nmax=nmax,
        )
    store = coerce_cache(cache)
    runner = TrialRunner(workers)
    # Children of the config seed, spawned on demand in cell order.
    seed_root = np.random.SeedSequence(config.seed)
    cells: list[CellResult | None] = []
    # (slot, task, cache key) triples awaiting dispatch.
    pending: list[tuple[int, _CellTask, str | None]] = []
    # Pending cells hold their windows' arrays until the flush, so the
    # batch bounds memory at a few hundred windows while still giving
    # every worker dozens of cells per dispatch.  One runner spans the
    # whole matrix, so the pool's workers stay alive across flushes.
    # Cannot affect results.
    dispatch_batch = max(256, 32 * runner.n_workers)
    n_windows = 0
    n_simulated = 0

    def flush() -> None:
        nonlocal n_simulated
        if not pending:
            return
        offset = n_simulated

        def tick(phase: str, done: int, total: int) -> None:
            progress(phase, offset + done, offset + total)

        registry.inc("eval.cells.simulated", len(pending))
        with span("eval.dispatch", cells=len(pending)):
            fresh = runner.map(
                _simulate_cell,
                [task for _, task, _ in pending],
                progress=None if progress is None else tick,
                phase="cells",
            )
        for (slot, _, key), cell in zip(pending, fresh):
            cells[slot] = cell
            if store is not None and key is not None:
                store.store_json(key, cell.to_entry())
        n_simulated += len(pending)
        pending.clear()

    try:
        for window in source:
            if nmax is None:
                nmax = _resolve_nmax(config, window.workload.nmax)
            if trace_name is None:
                trace_name = _WINDOW_SUFFIX.sub("", window.workload.name)
            window.workload.validate_for_machine(nmax)
            registry.inc("eval.windows")
            n_windows += 1
            # One hash of the window serves every cell key it is part of.
            window_fp = window.fingerprint() if store is not None else None
            for policy in config.policies:
                for backfill in config.backfill:
                    (child,) = seed_root.spawn(1)
                    seed = int(child.generate_state(1, np.uint64)[0])
                    key = None
                    if store is not None:
                        key = _cell_key(window_fp, config, nmax, policy, backfill)
                        entry = store.load_json(key)
                        hit = CellResult.from_entry(entry) if entry is not None else None
                        if hit is not None:
                            # The window index in this run wins over the
                            # cached one: max_windows truncation can
                            # renumber windows between runs.
                            registry.inc("eval.cells.cached")
                            cells.append(replace(hit, window=window.index, seed=seed))
                            continue
                    cells.append(None)
                    pending.append(
                        (
                            len(cells) - 1,
                            _cell_task_for(window, policy, backfill, config, nmax, seed),
                            key,
                        )
                    )
            if len(pending) >= dispatch_batch:
                flush()
        flush()
    finally:
        runner.close()
    if n_windows == 0:
        raise ValueError(
            "no evaluation windows survived slicing; enlarge the window or"
            " lower warmup"
        )
    return MatrixResult(
        config=config,
        trace_name=trace_name,
        nmax=nmax,
        n_windows=n_windows,
        cells=tuple(cells),  # type: ignore[arg-type]
        n_simulated=n_simulated,
        n_cached=len(cells) - n_simulated,
    )


def _cell_task_for(
    window: Window,
    policy: str,
    backfill: str,
    config: MatrixConfig,
    nmax: int,
    seed: int,
) -> _CellTask:
    return _CellTask(
        window=window.index,
        policy=policy,
        backfill=backfill,
        submit=window.workload.submit,
        runtime=window.workload.runtime,
        size=window.workload.size,
        estimate=window.workload.estimate,
        nmax=nmax,
        use_estimates=config.use_estimates,
        tau=config.tau,
        warmup=window.warmup,
        seed=seed,
        topology=config.topology,
        distribution=config.distribution,
        platform_seed=config.seed,
    )
