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
  unchanged spec loads every cell from the
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
from functools import cached_property, partial

import numpy as np

# slice_windows stays importable from here: the repository benchmark
# wraps ``repro.eval.matrix.slice_windows``.
from repro.eval.windows import Window, slice_windows, stream_windows  # noqa: F401
from repro.obs.metrics import current_registry
from repro.obs.tracing import span
from repro.policies.registry import get_policy
from repro.runtime import ArtifactCache, TrialRunner, coerce_cache
from repro.runtime.executor import ProgressCallback
from repro.sim.engine import normalize_backfill, simulate
from repro.sim.job import Workload, unknown_machine_size_error
from repro.sim.platform import PartitionedPlatform, platform_identity
from repro.specs import EvaluateSpec
from repro.specs.fingerprint import eval_cell_fingerprint
from repro.util.rng import RngFactory
from repro.util.stats import BootstrapCI, Summary, bootstrap_mean_ci, summarize

__all__ = [
    "CellResult",
    "MatrixResult",
    "run_matrix",
]

#: Bump when CellResult's cached fields change; stale entries turn into
#: cache misses instead of mis-decoding.
_CELL_FORMAT = 1


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


def _simulate_cell(
    spec: EvaluateSpec, nmax: int, task: tuple[Window, str, str, int]
) -> CellResult:
    """Simulate one matrix cell (module-level: pool-picklable).

    *task* is ``(window, policy, backfill, seed)``; every other setting
    comes from *spec*.  The ``eval.cell`` timer is per *cell* (one whole
    window simulation), recorded into whatever registry is ambient — the
    worker call's when fanned out, the run's when serial, the null
    registry otherwise.
    """
    window, policy, backfill, seed = task
    with current_registry().timer("eval.cell"):
        result = simulate(
            window.workload,
            get_policy(policy),
            nmax,
            use_estimates=spec.estimates,
            backfill=backfill,
            tau=spec.tau,
            topology=spec.topology,
            distribution=spec.distribution,
            # the spec seed: identical for every cell, so a window's
            # ``random`` leaf assignment is cache-stable
            platform_seed=spec.seed,
        )
        scored = result.bsld()[window.warmup :]
        return CellResult(
            window=window.index,
            policy=policy,
            backfill=backfill,
            n_jobs=len(window.workload),
            n_scored=len(scored),
            ave_bsld=float(scored.mean()),
            utilization=result.utilization,
            makespan=result.makespan,
            backfilled=result.backfill_count,
            seed=seed,
        )


@dataclass(frozen=True)
class MatrixResult:
    """All cells of one evaluation matrix, window-major."""

    spec: EvaluateSpec
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
            for p in self.spec.policies
            for b in self.spec.backfill
        }

    def paired_deltas(self, baseline: str | None = None) -> dict[tuple[str, str], np.ndarray]:
        """Per-window ``AVEbsld(policy) - AVEbsld(baseline)`` deltas.

        Pairing is within a window and a backfill mode — both series saw
        the identical job stream, so the difference isolates the policy
        (the paper's boxplots make the same pairing across sequences).
        *baseline* defaults to the spec's first policy.
        """
        base = get_policy(baseline).name if baseline else self.spec.policies[0]
        if base not in self.spec.policies:
            raise ValueError(
                f"baseline {base!r} is not part of this matrix {self.spec.policies}"
            )
        return {
            (p, b): self.samples(p, b) - self.samples(base, b)
            for p in self.spec.policies
            if p != base
            for b in self.spec.backfill
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
        own named stream of the spec seed
        (``bootstrap:<policy>/<backfill>:<baseline>`` via
        :class:`~repro.util.rng.RngFactory`), so intervals are
        reproducible for a fixed seed and independent of how many other
        series exist or in which order they are computed.  A
        single-window matrix yields point estimates with undefined
        (NaN-bounded) intervals instead of failing; ``n_boot=0``
        disables resampling the same way.
        """
        base = get_policy(baseline).name if baseline else self.spec.policies[0]
        memo_key = (base, n_boot, level)
        if memo_key not in self._delta_ci_memo:
            factory = RngFactory(self.spec.seed)
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
            (normalize_backfill(backfill) or "none",)
            if backfill is not None
            else self.spec.backfill
        )
        medians = {
            p: float(
                np.median(np.concatenate([self.samples(p, b) for b in modes]))
            )
            for p in self.spec.policies
        }
        return min(medians, key=medians.get)


_WINDOW_SUFFIX = re.compile(r"\[w\d+\]$")


def _resolve_nmax(spec: EvaluateSpec, workload_nmax: int) -> int:
    nmax = spec.nmax or workload_nmax
    if nmax < 1:
        raise unknown_machine_size_error()
    if spec.topology is not None:
        # Fail fast (before any cell dispatches) if nmax does not divide
        # over the leaves; the constructed platform is discarded.
        PartitionedPlatform(nmax, spec.topology)
    return nmax


def run_matrix(
    source: Workload | Iterable[Window],
    spec: EvaluateSpec,
    *,
    workers: int | str | None = None,
    cache: str | ArtifactCache | None = None,
    progress: ProgressCallback | None = None,
    trace_name: str | None = None,
) -> MatrixResult:
    """Evaluate *source* over the full policy × backfill × window matrix.

    *spec* declares the matrix: its policies, backfill modes, window
    axis, warm-up, machine size, information regime, tau, seed and
    platform.  Its source fields (``trace``, ``synthetic``, ``jobs``,
    ``drop_failed``) are not read here — choosing and opening the source
    is :func:`repro.api.run`'s business.

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
    ``k`` (window-major enumeration) draws child ``k`` of the spec
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
        nmax = _resolve_nmax(spec, source.nmax)
        source.validate_for_machine(nmax)
        if trace_name is None:
            trace_name = source.name
        source = stream_windows(
            source,
            jobs=spec.window_jobs,
            seconds=spec.window_seconds,
            warmup=spec.warmup,
            max_windows=spec.max_windows,
            nmax=nmax,
        )
    store = coerce_cache(cache)
    # None for flat (and product-1) topologies, so the platform only
    # enters a cell key when it can change the result.
    platform = platform_identity(spec.topology, spec.distribution, spec.seed)
    runner = TrialRunner(workers)
    # Children of the spec seed, spawned on demand in cell order.
    seed_root = np.random.SeedSequence(spec.seed)
    cells: list[CellResult | None] = []
    # (slot, (window, policy, backfill, seed), cache key) awaiting dispatch.
    pending: list[tuple[int, tuple[Window, str, str, int], str | None]] = []
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
                partial(_simulate_cell, spec, nmax),
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
                nmax = _resolve_nmax(spec, window.workload.nmax)
            if trace_name is None:
                trace_name = _WINDOW_SUFFIX.sub("", window.workload.name)
            window.workload.validate_for_machine(nmax)
            registry.inc("eval.windows")
            n_windows += 1
            # One hash of the window serves every cell key it is part of.
            window_fp = window.fingerprint() if store is not None else None
            for policy in spec.policies:
                for backfill in spec.backfill:
                    (child,) = seed_root.spawn(1)
                    seed = int(child.generate_state(1, np.uint64)[0])
                    key = None
                    if store is not None:
                        # The payload lives in specs.fingerprint, the
                        # single home of cache-key derivations.
                        key = eval_cell_fingerprint(
                            window_fingerprint=window_fp,
                            policy=policy,
                            backfill=backfill,
                            nmax=nmax,
                            use_estimates=spec.estimates,
                            tau=spec.tau,
                            cell_format=_CELL_FORMAT,
                            platform=platform,
                        )
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
                        (len(cells) - 1, (window, policy, backfill, seed), key)
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
        spec=spec,
        trace_name=trace_name,
        nmax=nmax,
        n_windows=n_windows,
        cells=tuple(cells),  # type: ignore[arg-type]
        n_simulated=n_simulated,
        n_cached=len(cells) - n_simulated,
    )
