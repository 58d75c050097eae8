"""Declarative spec of a trace-evaluation matrix (``evaluate``).

One :class:`EvaluateSpec` is the only declaration of an evaluation: the
matrix itself (policies × backfill modes × windows, machine size,
information regime, tau, seed, platform), the source selection (SWF
file vs synthetic stand-in) and the report parameters (baseline,
bootstrap resamples, CI level).  It validates and canonicalises every
field once, at construction, and
:func:`repro.eval.matrix.run_matrix` reads the matrix fields straight
from it, so a spec that constructs is exactly a matrix that runs.

Execution knobs — workers and cache location — are not spec fields at
all: they are arguments of :func:`repro.api.run`, so they can never
enter the spec fingerprint.
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

__all__ = ["EvaluateSpec"]


@register_spec
@dataclass(frozen=True)
class EvaluateSpec(Spec):
    """One policy × backfill × windows evaluation over a trace."""

    kind: ClassVar[str] = "evaluate"

    trace: str | None = field(
        default=None,
        metadata={"help": "SWF trace to replay: a file path (.swf or .swf.gz)"
                  " or a pwa:<name> registry reference (default: --synthetic)"},
    )
    synthetic: str | None = field(
        default="ctc_sp2",
        metadata={"help": "synthetic stand-in replayed when no --trace is given"},
    )
    jobs: int = field(
        default=5000, metadata={"help": "synthetic stand-in job count", "min": 1}
    )
    drop_failed: bool = field(
        default=False,
        metadata={"help": "exclude failed/cancelled SWF rows (status 0/5)"},
    )
    policies: tuple[str, ...] = ("fcfs", "f1")
    backfill: tuple[str, ...] = field(
        default=("none", "easy"),
        metadata={"help": "backfill modes from none, easy, conservative, hybrid"},
    )
    window_jobs: int | None = field(
        default=None,
        metadata={"help": "evaluate contiguous windows of N jobs (default:"
                  " 5000 unless --window-seconds is given)", "min": 1},
    )
    window_seconds: float | None = field(
        default=None,
        metadata={"help": "evaluate contiguous windows of T seconds instead"},
    )
    warmup: int = field(
        default=0,
        metadata={"help": "simulate but exclude the first N jobs of every"
                  " window", "min": 0},
    )
    max_windows: int | None = field(
        default=None, metadata={"help": "evaluate at most K windows", "min": 1}
    )
    nmax: int | None = field(
        default=None,
        metadata={"help": "machine size (default: the trace's MaxProcs"
                  " header)", "min": 1},
    )
    estimates: bool = field(
        default=False, metadata={"help": "schedule on user runtime estimates"}
    )
    tau: float | None = field(default=None, metadata=TAU_HELP)
    seed: int = field(default=0, metadata={"min": 0})
    baseline: str | None = field(
        default=None,
        metadata={"help": "anchor of the paired per-window deltas"
                  " (default: the first policy)"},
    )
    bootstrap: int = field(
        default=1000,
        metadata={"help": "bootstrap resamples behind the paired-delta CIs"
                  " (0 disables them)", "min": 0},
    )
    ci: float = field(
        default=0.95, metadata={"help": "nominal coverage of the bootstrap CIs"}
    )
    topology: tuple[int, ...] | None = field(default=None, metadata=TOPOLOGY_HELP)
    distribution: str | None = field(default="round_robin", metadata=DISTRIBUTION_HELP)

    def _validate(self) -> None:
        from repro.policies.registry import get_policy
        from repro.sim.engine import normalize_backfill
        from repro.sim.platform import normalize_distribution, normalize_topology

        object.__setattr__(self, "tau", resolve_tau(self.tau))
        if not self.policies:
            raise ValueError("at least one policy is required")
        policies = tuple(get_policy(name).name for name in self.policies)
        if len(set(policies)) != len(policies):
            raise ValueError(f"duplicate policies in {tuple(self.policies)}")
        modes = tuple(normalize_backfill(b) or "none" for b in self.backfill)
        if not modes:
            raise ValueError("at least one backfill mode is required")
        if len(set(modes)) != len(modes):
            raise ValueError(f"duplicate backfill modes in {tuple(self.backfill)}")
        if self.window_jobs is None and self.window_seconds is None:
            object.__setattr__(self, "window_jobs", 5000)
        elif self.window_jobs is not None and self.window_seconds is not None:
            raise ValueError("pass exactly one of window_jobs / window_seconds")
        seconds = self.window_seconds
        if seconds is not None and not seconds > 0:
            raise ValueError(f"window_seconds must be > 0, got {seconds!r}")
        object.__setattr__(self, "policies", policies)
        object.__setattr__(self, "backfill", modes)
        object.__setattr__(self, "topology", normalize_topology(self.topology))
        object.__setattr__(
            self, "distribution", normalize_distribution(self.distribution)
        )
        if self.trace is None:
            check_trace_name(self.synthetic)
        else:
            check_trace_ref(self.trace)
        if self.baseline is not None:
            baseline = get_policy(self.baseline).name
            if baseline not in policies:
                raise ValueError(
                    f"baseline {baseline!r} is not among the matrix"
                    f" policies {policies}"
                )
            object.__setattr__(self, "baseline", baseline)
        if not 0.0 < self.ci < 1.0:
            raise ValueError(f"ci must be a coverage level in (0, 1), got {self.ci!r}")

    def _fingerprint_payload(self) -> dict[str, Any]:
        payload: dict[str, Any] = {
            "policies": list(self.policies),
            "backfill": list(self.backfill),
            "window_jobs": self.window_jobs,
            "window_seconds": self.window_seconds,
            "warmup": self.warmup,
            "max_windows": self.max_windows,
            "nmax": self.nmax,
            "estimates": self.estimates,
            "tau": self.tau,
            "seed": self.seed,
            "baseline": self.baseline,
            "bootstrap": self.bootstrap,
            "ci": self.ci,
        }
        # Source identity: with a real trace the synthetic fallback
        # fields are irrelevant and must not fork the fingerprint.
        # ``pwa:`` references enter as their registry content hash, so
        # the identity is independent of cache location and mirror URL.
        if self.trace is not None:
            payload["trace"] = trace_ref_identity(self.trace)
            payload["drop_failed"] = self.drop_failed
        else:
            payload["synthetic"] = self.synthetic
            payload["jobs"] = self.jobs
        # Platform axes enter only when partitioned (flat and product-1
        # topologies are byte-identical to the pre-platform engine), so
        # existing fingerprints and caches stay valid.
        from repro.sim.platform import platform_identity

        platform = platform_identity(self.topology, self.distribution, self.seed)
        if platform is not None:
            payload["topology"] = list(self.topology)
            payload["distribution"] = self.distribution
        return payload
