"""Declarative spec of a single-workload simulation (``simulate``).

One :class:`SimulateSpec` names a workload source — an SWF file, a
synthetic trace stand-in, or the Lublin+Tsafrir model — and one
(policy, backfill-mode, information-regime) setting.  Backfill uses the
engine's canonical mode vocabulary
(:func:`repro.sim.engine.normalize_backfill`): ``"none"`` / ``"easy"``
/ ``"conservative"``, with the legacy booleans accepted and
canonicalised, so every verb of the library now spells modes the same
way.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, ClassVar

from repro.specs.base import Spec, SpecError, register_spec
from repro.specs.train import check_optional_positive_int, check_seed

__all__ = ["SimulateSpec"]

#: Flag metadata of the platform fields shared with :class:`EvaluateSpec`.
TOPOLOGY_HELP = {
    "help": "partition the machine into equal leaves, e.g. 2x4 = 8 leaves"
    " each running its own scheduler; nmax must divide evenly"
    " (default: the paper's flat machine)"
}
DISTRIBUTION_HELP = {
    "help": "job-to-leaf strategy of a --topology run: round_robin,"
    " by_size or random (seeded by --seed)"
}


def canonical_policy(name: str) -> str:
    """Registry-canonical spelling of a policy name (lazy import)."""
    from repro.policies.registry import get_policy

    try:
        return get_policy(name).name
    except KeyError as exc:
        raise SpecError(str(exc)) from None


def canonical_backfill(value: str | bool | None) -> str:
    """Canonical backfill token
    (``"none"``/``"easy"``/``"conservative"``/``"hybrid"``)."""
    from repro.sim.engine import normalize_backfill

    try:
        return normalize_backfill(value) or "none"
    except ValueError as exc:
        raise SpecError(str(exc)) from None


def canonical_topology(value) -> tuple[int, ...] | None:
    """Canonical topology tuple (``None`` for the flat machine)."""
    from repro.sim.platform import normalize_topology

    try:
        return normalize_topology(value)
    except ValueError as exc:
        raise SpecError(str(exc)) from None


def canonical_distribution(value: str | None) -> str:
    """Canonical job-distribution strategy name."""
    from repro.sim.platform import normalize_distribution

    try:
        return normalize_distribution(value)
    except ValueError as exc:
        raise SpecError(str(exc)) from None


def check_trace_name(trace: str | None) -> None:
    """Validate a synthetic-trace name against the registry (lazy import)."""
    if trace is None:
        return
    from repro.workloads.traces import trace_names

    if trace not in trace_names():
        raise SpecError(
            f"unknown synthetic trace {trace!r}; available: "
            + ", ".join(trace_names())
        )


def check_trace_ref(ref: str | None) -> None:
    """Validate a ``pwa:<name>`` trace reference against the acquisition
    registry (lazy import); plain paths and ``None`` pass through."""
    from repro.traces import UnknownTraceError, get_source, is_trace_ref, trace_ref_name

    if ref is None or not is_trace_ref(ref):
        return
    try:
        get_source(trace_ref_name(ref))
    except (UnknownTraceError, ValueError) as exc:
        raise SpecError(str(exc)) from None


def trace_ref_identity(ref: str) -> object:
    """Fingerprint spelling of a trace argument.

    A ``pwa:<name>`` reference enters identities as the registry's
    pinned *content hash* — never the URL or the resolved cache path —
    so fingerprints are independent of where the bytes are cached or
    mirrored from; plain file paths enter as themselves (their content
    is additionally hashed at the cache-key layer).
    """
    from repro.traces import get_source, is_trace_ref, trace_ref_name

    if is_trace_ref(ref):
        return get_source(trace_ref_name(ref)).content_id()
    return ref


@register_spec
@dataclass(frozen=True)
class SimulateSpec(Spec):
    """One workload scheduled under one policy and backfill mode."""

    kind: ClassVar[str] = "simulate"

    policy: str = "F1"
    nmax: int | None = field(
        default=None,
        metadata={"help": "machine size (default: the SWF/trace's own, or"
                  " 256 for the generated model)"},
    )
    jobs: int | None = field(
        default=None,
        metadata={"help": "job count of a generated source (model: 2000)"},
    )
    seed: int = 0
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
    tau: float | None = field(
        default=None,
        metadata={"help": "bounded-slowdown threshold in seconds (default: 10)"},
    )
    topology: tuple[int, ...] | None = field(default=None, metadata=TOPOLOGY_HELP)
    distribution: str = field(default="round_robin", metadata=DISTRIBUTION_HELP)

    def __post_init__(self) -> None:
        if self.tau is None:
            from repro.sim.metrics import DEFAULT_TAU

            object.__setattr__(self, "tau", float(DEFAULT_TAU))
        if not self.tau > 0:
            raise SpecError(f"tau must be > 0, got {self.tau!r}")
        object.__setattr__(self, "policy", canonical_policy(self.policy))
        object.__setattr__(self, "backfill", canonical_backfill(self.backfill))
        if self.swf is not None and self.trace is not None:
            raise SpecError("pass at most one of swf / trace")
        check_trace_name(self.trace)
        check_trace_ref(self.swf)
        check_optional_positive_int("nmax", self.nmax)
        check_optional_positive_int("jobs", self.jobs)
        check_seed(self.seed)
        if self.swf is None and self.trace is None and self.nmax is None:
            # The generated model needs an explicit machine size; default
            # to the paper's 256 so a bare spec is runnable.
            object.__setattr__(self, "nmax", 256)
        object.__setattr__(self, "topology", canonical_topology(self.topology))
        object.__setattr__(
            self, "distribution", canonical_distribution(self.distribution)
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
