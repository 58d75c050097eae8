"""Dynamic scheduling experiments (§4.2/§4.3).

A *dynamic scheduling experiment* simulates ten (scale-dependent)
non-overlapping sequences of a workload under each policy and collects
the average bounded slowdown per sequence — the samples behind every
boxplot and Table 4 entry of the paper.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.policies.base import Policy
from repro.policies.registry import get_policy
from repro.sim.engine import simulate
from repro.sim.job import Workload
from repro.sim.metrics import DEFAULT_TAU
from repro.util.stats import Summary, ascii_boxplot, summarize
from repro.workloads.lublin import lublin_workload
from repro.workloads.sequences import extract_sequences
from repro.workloads.tsafrir import apply_tsafrir

__all__ = [
    "DynamicExperimentResult",
    "run_dynamic_experiment",
    "model_stream_for_span",
]


@dataclass(frozen=True)
class DynamicExperimentResult:
    """Per-policy AVEbsld samples over the sequences of one experiment."""

    name: str
    policy_names: tuple[str, ...]
    samples: dict[str, np.ndarray]  # policy -> AVEbsld per sequence
    nmax: int
    use_estimates: bool
    backfill: bool
    n_sequences: int
    days: float

    def medians(self) -> dict[str, float]:
        """Median AVEbsld per policy — the numbers Table 4 reports."""
        return {p: float(np.median(self.samples[p])) for p in self.policy_names}

    def summaries(self) -> dict[str, Summary]:
        """Median/mean/std per policy (artifact output block)."""
        return {p: summarize(self.samples[p]) for p in self.policy_names}

    def ascii_plot(self, *, log10: bool = True) -> str:
        """Terminal rendering of the experiment's boxplot figure."""
        return ascii_boxplot(
            {p: self.samples[p] for p in self.policy_names}, log10=log10
        )


def _resolve(policies: Sequence[str | Policy]) -> list[Policy]:
    out: list[Policy] = []
    for p in policies:
        out.append(get_policy(p) if isinstance(p, str) else p)
    return out


def run_dynamic_experiment(
    workload: Workload,
    policies: Sequence[str | Policy],
    nmax: int,
    *,
    name: str | None = None,
    use_estimates: bool = False,
    backfill: bool = False,
    n_sequences: int = 10,
    days: float = 15.0,
    tau: float = DEFAULT_TAU,
) -> DynamicExperimentResult:
    """Run one dynamic scheduling experiment.

    *workload* is the full trace; sequences are extracted here so every
    policy sees the identical sequence set (paired samples, as in the
    paper's boxplots).
    """
    resolved = _resolve(policies)
    sequences = extract_sequences(workload, n_sequences, days)
    samples: dict[str, np.ndarray] = {}
    for policy in resolved:
        vals = np.empty(len(sequences), dtype=float)
        for k, seq in enumerate(sequences):
            result = simulate(
                seq,
                policy,
                nmax,
                use_estimates=use_estimates,
                backfill=backfill,
                tau=tau,
            )
            vals[k] = result.ave_bsld
        samples[policy.name] = vals
    return DynamicExperimentResult(
        name=name or workload.name,
        policy_names=tuple(p.name for p in resolved),
        samples=samples,
        nmax=nmax,
        use_estimates=use_estimates,
        backfill=backfill,
        n_sequences=n_sequences,
        days=days,
    )


def model_stream_for_span(
    span_seconds: float,
    nmax: int,
    *,
    seed: int = 0,
    with_estimates: bool = True,
) -> Workload:
    """Generate a default-parameter Lublin stream long enough to host
    *span_seconds*.

    The model's arrival rate is stochastic, so the stream is grown
    geometrically until its span exceeds ``1.10 * span_seconds``.
    With *with_estimates* the Tsafrir model is applied (derived seed), so
    one stream serves the actual-runtime, estimate and backfill
    experiments.
    """
    if span_seconds <= 0:
        raise ValueError("span_seconds must be > 0")
    # Initial guess: mean gap of 2**Gamma(aarr, barr) is ~70 s including
    # cycle modulation; overshoot and grow if needed.
    n = max(int(span_seconds / 60.0), 64)
    margin = 1.10
    attempt = 0
    while True:
        wl = lublin_workload(n, nmax, seed=seed)
        if wl.span >= margin * span_seconds or attempt >= 12:
            break
        growth = (margin * span_seconds) / max(wl.span, 1.0)
        n = int(n * min(max(growth * 1.2, 1.3), 8.0))
        attempt += 1
    if wl.span < span_seconds:
        raise RuntimeError(
            f"could not generate a stream spanning {span_seconds:.0f}s"
            f" (reached {wl.span:.0f}s with {n} jobs)"
        )
    if with_estimates:
        wl = apply_tsafrir(wl, seed=seed + 917)
    return wl
