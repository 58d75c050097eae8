"""End-to-end policy-obtaining pipeline (§3: simulate → learn → policy).

``obtain_policies`` chains the three phases the paper describes:

1. generate ``(S, Q)`` tuples from the workload model
   (:mod:`repro.core.taskgen`),
2. run permutation trials and pool the score distribution
   (:mod:`repro.core.trials` / :mod:`repro.core.distribution`),
3. enumerate and fit the nonlinear function space, rank by Eq. 5, and
   wrap the best candidates as scheduler-ready policies
   (:mod:`repro.core.regression` / :class:`repro.policies.NonlinearPolicy`).

This is the library's "train your own policies for your own platform"
entry point, the customisation the paper's conclusion proposes.

The simulation phase dispatches through :mod:`repro.runtime`: pass
``workers`` to fan the per-tuple trials over worker processes (results are
bit-identical to the serial run for any worker count), and ``cache`` to
memoise the pooled distribution on disk keyed by a fingerprint of the
result-relevant config fields; a killed run resumes from the per-tuple
entries it already stored.  Inside each worker the trials
themselves run as kernel batches
(:func:`repro.sim.listsched.simulate_fixed_priority_batch`), so the
per-trial Python loop no longer exists at any layer of the fan-out.
"""

from __future__ import annotations

import functools
import warnings
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.distribution import ScoreDistribution
from repro.core.functions import FittedFunction, FunctionSpec
from repro.core.regression import RegressionConfig, fit_all
from repro.core.taskgen import TaskSetTuple, generate_tuples
from repro.core.trials import (
    TrialScoreResult,
    balanced_trial_count,
    format_rounding_warning,
)
from repro.obs.metrics import current_registry
from repro.policies.learned import NonlinearPolicy
from repro.runtime.cache import ArtifactCache, coerce_cache
from repro.runtime.executor import TrialRunner, tuple_trials
from repro.sim.metrics import DEFAULT_TAU
from repro.specs.fingerprint import (
    SIMULATION_SEMANTICS_VERSION,
    distribution_fingerprint,
)
from repro.util.rng import spawn_seed_sequences
from repro.util.validation import check_positive_int
from repro.workloads.lublin import LublinParams

__all__ = [
    "PipelineConfig",
    "PipelineResult",
    "obtain_policies",
    "build_distribution",
    "distribution_cache_key",
]


@dataclass(frozen=True)
class PipelineConfig:
    """All knobs of the training pipeline (paper defaults)."""

    n_tuples: int = 32
    trials_per_tuple: int = 2048
    nmax: int = 256
    s_size: int = 16
    q_size: int = 32
    seed: int = 0
    tau: float = DEFAULT_TAU
    top_k: int = 4
    balanced_trials: bool = True
    lublin_params: LublinParams | None = None
    regression: RegressionConfig = field(default_factory=RegressionConfig)

    def __post_init__(self) -> None:
        check_positive_int("n_tuples", self.n_tuples)
        check_positive_int("trials_per_tuple", self.trials_per_tuple)
        check_positive_int("top_k", self.top_k)


@dataclass(frozen=True)
class PipelineResult:
    """Everything the pipeline produced, from raw trials to policies."""

    config: PipelineConfig
    tuples: list[TaskSetTuple]
    trial_results: list[TrialScoreResult]
    distribution: ScoreDistribution
    fitted: list[FittedFunction]  # every candidate, ranked by Eq. 5
    policies: list[NonlinearPolicy]  # top_k distinct functions, best first

    @property
    def best(self) -> FittedFunction:
        """The rank-1 fitted function."""
        return self.fitted[0]

    def report(self, k: int | None = None) -> str:
        """Artifact-style listing of the top-k fitted functions."""
        k = k if k is not None else self.config.top_k
        lines = [
            f"rank {i + 1}: {f.describe()}" for i, f in enumerate(self.fitted[:k])
        ]
        return "\n".join(lines)


def distribution_cache_key(config: PipelineConfig) -> str:
    """Fingerprint of every config field that influences the distribution.

    Execution knobs (worker count, cache location) are *not*
    part of the key: serial and parallel runs of the same config produce
    bit-identical results and therefore share one cache entry.  The
    payload lives in :mod:`repro.specs.fingerprint` (the single home of
    cache-key derivations), so :meth:`repro.specs.TrainSpec.
    distribution_key` is this key by construction; the semantics
    version — :data:`~repro.specs.fingerprint.
    SIMULATION_SEMANTICS_VERSION`, re-exported here — invalidates every
    entry when the simulation semantics change.
    """
    return distribution_fingerprint(
        n_tuples=config.n_tuples,
        trials_per_tuple=config.trials_per_tuple,
        nmax=config.nmax,
        s_size=config.s_size,
        q_size=config.q_size,
        seed=config.seed,
        tau=config.tau,
        balanced_trials=config.balanced_trials,
        lublin_params=config.lublin_params,
    )


def _tuple_key(key: str, index: int) -> str:
    """The cache key of tuple *index*'s resume entry under *key*."""
    return f"{key}-t{index}"


def _load_tuple_entries(
    cache: ArtifactCache, key: str, n_tuples: int
) -> dict[int, TrialScoreResult]:
    """The per-tuple entries an interrupted run of *key* left behind.

    Only entries that exist are looked up, so a cold cache counts no
    per-tuple misses.
    """
    done = {}
    for k in range(n_tuples):
        tuple_key = _tuple_key(key, k)
        if cache.path_for(tuple_key).exists():
            entry = cache.load(tuple_key)
            if entry is not None:
                done[k] = entry[0][0]
    return done


def _store_tuple_entry(
    cache: ArtifactCache, key: str, todo: list[int], i: int, result: TrialScoreResult
) -> None:
    """Store the result of tuple ``todo[i]`` as its own entry the moment
    it lands (the ``on_result`` hook of the trial fan-out)."""
    cache.store(
        _tuple_key(key, todo[i]), [result], ScoreDistribution.from_trial_results([result])
    )


def build_distribution(
    config: PipelineConfig,
    progress: Callable[[str, int, int], None] | None = None,
    *,
    workers: int | str | None = None,
    cache: str | Path | ArtifactCache | None = None,
) -> tuple[list[TaskSetTuple], list[TrialScoreResult], ScoreDistribution]:
    """Phases 1–2: tuples, trials, pooled score distribution.

    Parameters
    ----------
    workers:
        Worker processes for the trial simulations (see
        :class:`repro.runtime.TrialRunner`; ``None`` resolves
        ``$REPRO_WORKERS``).  Results are identical for every setting;
        ``workers=1`` runs in-process.  Tuple ``k`` always simulates
        under child ``k`` of ``config.seed + 1``.
    cache:
        An :class:`repro.runtime.ArtifactCache` (or a directory path for
        one).  On a hit of the whole-distribution entry the trials are
        loaded instead of simulated — the tuples are still regenerated
        (they are cheap and deterministic) so the return shape is
        unchanged.  On a miss, each tuple's result is stored as its own
        entry (key ``<distribution key>-t<k>``) as soon as it lands, and
        the entries a killed run left behind are loaded instead of
        simulated; they are removed once the whole entry is stored.

    *progress* sees ``("trials", done, n_tuples)``, with *done* starting
    at the number of tuples loaded from the cache.
    """
    n = config.n_tuples
    tuples = generate_tuples(
        n,
        nmax=config.nmax,
        s_size=config.s_size,
        q_size=config.q_size,
        seed=config.seed,
        params=config.lublin_params,
    )
    registry = current_registry()
    cache_store = coerce_cache(cache)
    done: dict[int, TrialScoreResult] = {}
    if cache_store is not None:
        key = distribution_cache_key(config)
        entry = cache_store.load(key)
        if entry is not None:
            results, dist = entry
            registry.inc("train.tuples.cached", n)
            if progress is not None:
                progress("trials", n, n)
            return tuples, results, dist
        done = _load_tuple_entries(cache_store, key, n)

    loaded = len(done)
    registry.inc("train.tuples.cached", loaded)
    registry.inc("train.tuples.simulated", n - loaded)
    todo = [k for k in range(n) if k not in done]
    n_trials = config.trials_per_tuple
    if (
        config.balanced_trials
        and todo
        and balanced_trial_count(n_trials, config.q_size) != n_trials
    ):
        # Once per run: each tuple's own copy is suppressed in tuple_trials.
        warnings.warn(format_rounding_warning(n_trials, config.q_size), stacklevel=2)

    def tick(phase: str, simulated: int, total: int) -> None:
        progress(phase, loaded + simulated, n)

    if loaded and progress is not None:
        progress("trials", loaded, n)
    seeds = spawn_seed_sequences(config.seed + 1, n)
    with TrialRunner(workers) as runner:
        fresh = runner.map(
            functools.partial(
                tuple_trials,
                config.nmax,
                n_trials,
                config.balanced_trials,
                config.tau,
            ),
            [(tuples[k], seeds[k]) for k in todo],
            progress=None if progress is None else tick,
            phase="trials",
            on_result=None
            if cache_store is None
            else functools.partial(_store_tuple_entry, cache_store, key, todo),
        )
    done.update(zip(todo, fresh))
    results = [done[k] for k in range(n)]
    dist = ScoreDistribution.from_trial_results(results)
    if cache_store is not None:
        cache_store.store(key, results, dist)
        for k in range(n):
            cache_store.discard(_tuple_key(key, k))
    return tuples, results, dist


def _function_key(spec: FunctionSpec) -> tuple[str, str, str, str, str]:
    """Specs with equal keys span the same family of functions.

    Sizes are n >= 1, where ``c1·α(r) · c2·n`` and ``c1·α(r) / (c2·inv(n))``
    differ only in the free coefficient c2 (and likewise ``/ id(n)`` and
    ``* inv(n)``), so these n-side pairs share a key.  The s-side pairs
    do not: submit times can be 0, where ``inv``'s guard makes them differ.
    """
    op1, beta = spec.op1, spec.beta
    if beta == "inv" and op1 in ("*", "/"):
        op1, beta = ("/" if op1 == "*" else "*"), "id"
    return (spec.alpha, op1, beta, spec.op2, spec.gamma)


def _distinct(fitted: list[FittedFunction], k: int) -> list[FittedFunction]:
    """The first *k* functions of *fitted* with pairwise distinct keys."""
    picked: dict[tuple[str, str, str, str, str], FittedFunction] = {}
    for f in fitted:
        if len(picked) == k:
            break
        picked.setdefault(_function_key(f.spec), f)
    return list(picked.values())


def obtain_policies(
    config: PipelineConfig | None = None,
    progress: Callable[[str, int, int], None] | None = None,
    *,
    workers: int | str | None = None,
    cache: str | Path | ArtifactCache | None = None,
) -> PipelineResult:
    """Run the full §3 procedure and return ranked policies.

    The returned policies are named ``P1``–``Pk`` (rank order) to avoid
    confusion with the paper's published ``F1``–``F4``, which remain
    available as :func:`repro.policies.paper_policies`.  They are the
    best ``top_k`` *distinct* functions: a candidate equivalent to a
    better-ranked one (same function family, see :func:`_function_key`)
    takes no slot, while ``fitted`` keeps every candidate.  ``workers``
    and ``cache`` configure the simulation phase exactly as in
    :func:`build_distribution`.
    """
    config = config or PipelineConfig()
    tuples, trial_results, dist = build_distribution(
        config, progress, workers=workers, cache=cache
    )

    def regression_progress(done: int, total: int) -> None:
        if progress is not None:
            progress("regression", done, total)

    fitted = fit_all(dist, config=config.regression, progress=regression_progress)
    usable = [f for f in fitted if f.rank_error < float("inf")]
    policies = [
        NonlinearPolicy(f, name=f"P{i + 1}")
        for i, f in enumerate(_distinct(usable, config.top_k))
    ]
    return PipelineResult(
        config=config,
        tuples=tuples,
        trial_results=trial_results,
        distribution=dist,
        fitted=fitted,
        policies=policies,
    )
