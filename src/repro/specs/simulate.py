"""Declarative spec of a single-workload simulation (``simulate``).

One :class:`SimulateSpec` names a workload source — an SWF file, a
synthetic trace stand-in, or the Lublin+Tsafrir model — and one
(policy, backfill-mode, information-regime) setting.  Backfill uses the
engine's canonical mode vocabulary
(:func:`repro.sim.engine.normalize_backfill`): ``"none"`` / ``"easy"``
/ ``"conservative"`` / ``"hybrid"``, with the legacy booleans accepted
and canonicalised, so every verb of the library spells modes the same
way.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, ClassVar

from repro.specs.base import (
    DISTRIBUTION_HELP,
    TAU_HELP,
    TOPOLOGY_HELP,
    Spec,
    check_trace_name,
    check_trace_ref,
    register_spec,
    resolve_tau,
    trace_ref_identity,
)

__all__ = ["SimulateSpec"]


@register_spec
@dataclass(frozen=True)
class SimulateSpec(Spec):
    """One workload scheduled under one policy and backfill mode."""

    kind: ClassVar[str] = "simulate"

    policy: str = "F1"
    nmax: int | None = field(
        default=None,
        metadata={"help": "machine size (default: the SWF/trace's own, or"
                  " 256 for the generated model)", "min": 1},
    )
    jobs: int | None = field(
        default=None,
        metadata={"help": "job count of a generated source (model: 2000)",
                  "min": 1},
    )
    seed: int = field(default=0, metadata={"min": 0})
    swf: str | None = field(
        default=None,
        metadata={"help": "SWF file to replay: a path or a pwa:<name>"
                  " registry reference (exclusive with --trace)"},
    )
    trace: str | None = field(
        default=None, metadata={"help": "synthetic trace stand-in to replay"}
    )
    estimates: bool = field(
        default=False, metadata={"help": "schedule on user runtime estimates"}
    )
    backfill: str = field(
        default="none",
        metadata={"help": "backfill mode: none, easy, conservative or hybrid"},
    )
    tau: float | None = field(default=None, metadata=TAU_HELP)
    topology: tuple[int, ...] | None = field(default=None, metadata=TOPOLOGY_HELP)
    distribution: str | None = field(default="round_robin", metadata=DISTRIBUTION_HELP)

    def _validate(self) -> None:
        from repro.policies.registry import get_policy
        from repro.sim.engine import normalize_backfill
        from repro.sim.platform import normalize_distribution, normalize_topology

        object.__setattr__(self, "tau", resolve_tau(self.tau))
        object.__setattr__(self, "policy", get_policy(self.policy).name)
        object.__setattr__(
            self, "backfill", normalize_backfill(self.backfill) or "none"
        )
        if self.swf is not None and self.trace is not None:
            raise ValueError("pass at most one of swf / trace")
        if self.trace is not None:
            check_trace_name(self.trace)
        check_trace_ref(self.swf)
        if self.swf is None and self.trace is None and self.nmax is None:
            # The generated model needs an explicit machine size; default
            # to the paper's 256 so a bare spec is runnable.
            object.__setattr__(self, "nmax", 256)
        object.__setattr__(self, "topology", normalize_topology(self.topology))
        object.__setattr__(
            self, "distribution", normalize_distribution(self.distribution)
        )

    def _fingerprint_payload(self) -> dict[str, Any]:
        payload: dict[str, Any] = {
            "policy": self.policy,
            "backfill": self.backfill,
            "estimates": self.estimates,
            "tau": self.tau,
            "nmax": self.nmax,
        }
        # Only the fields that shape the selected source enter the
        # identity; note SWF *content* is additionally fingerprinted at
        # run time for the cache key (specs.fingerprint.
        # simulate_cell_fingerprint), so a changed file cannot serve
        # stale results even though the spec identity keeps the path.
        # ``pwa:`` references enter as their registry content hash, so
        # the identity is independent of cache location and mirror URL.
        if self.swf is not None:
            payload["swf"] = trace_ref_identity(self.swf)
        else:
            payload["trace"] = self.trace
            payload["jobs"] = self.jobs
            payload["seed"] = self.seed
        # Platform axes enter the identity only when they change results:
        # flat (and product-1) topologies are byte-identical to the
        # pre-platform engine, so omitting them keeps every existing
        # fingerprint and cache entry valid.
        from repro.sim.platform import platform_identity

        platform = platform_identity(self.topology, self.distribution, self.seed)
        if platform is not None:
            payload["topology"] = list(self.topology)
            payload["distribution"] = self.distribution
            if self.distribution == "random":
                payload["platform_seed"] = self.seed
        return payload
