"""Declarative spec of a trace-evaluation matrix (``evaluate``).

One :class:`EvaluateSpec` is the serializable counterpart of
:class:`repro.eval.matrix.MatrixConfig` plus the source selection
(SWF file vs synthetic stand-in) and the report parameters (baseline,
bootstrap resamples, CI level).  Validation and canonicalisation
delegate to :class:`~repro.eval.matrix.MatrixConfig`, so a spec that
constructs is exactly a matrix that runs.

Execution knobs — workers and cache location — are not spec fields at
all: they are arguments of :func:`repro.api.run`, so they can never
enter the spec fingerprint.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, ClassVar

from repro.specs.base import Spec, SpecError, register_spec
from repro.specs.simulate import (
    DISTRIBUTION_HELP,
    TOPOLOGY_HELP,
    canonical_policy,
    check_trace_name,
    check_trace_ref,
    trace_ref_identity,
)
from repro.specs.train import check_optional_positive_int

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.eval.matrix import MatrixConfig

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
    synthetic: str = field(
        default="ctc_sp2",
        metadata={"help": "synthetic stand-in replayed when no --trace is given"},
    )
    jobs: int = field(default=5000, metadata={"help": "synthetic stand-in job count"})
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
                  " 5000 unless --window-seconds is given)"},
    )
    window_seconds: float | None = field(
        default=None,
        metadata={"help": "evaluate contiguous windows of T seconds instead"},
    )
    warmup: int = field(
        default=0,
        metadata={"help": "simulate but exclude the first N jobs of every window"},
    )
    max_windows: int | None = field(
        default=None, metadata={"help": "evaluate at most K windows"}
    )
    nmax: int | None = field(
        default=None,
        metadata={"help": "machine size (default: the trace's MaxProcs header)"},
    )
    estimates: bool = field(
        default=False, metadata={"help": "schedule on user runtime estimates"}
    )
    tau: float | None = field(
        default=None,
        metadata={"help": "bounded-slowdown threshold in seconds (default: 10)"},
    )
    seed: int = 0
    baseline: str | None = field(
        default=None,
        metadata={"help": "anchor of the paired per-window deltas"
                  " (default: the first policy)"},
    )
    bootstrap: int = field(
        default=1000,
        metadata={"help": "bootstrap resamples behind the paired-delta CIs"
                  " (0 disables them)"},
    )
    ci: float = field(
        default=0.95, metadata={"help": "nominal coverage of the bootstrap CIs"}
    )
    topology: tuple[int, ...] | None = field(default=None, metadata=TOPOLOGY_HELP)
    distribution: str = field(default="round_robin", metadata=DISTRIBUTION_HELP)

    def __post_init__(self) -> None:
        if self.tau is None:
            from repro.sim.metrics import DEFAULT_TAU

            object.__setattr__(self, "tau", float(DEFAULT_TAU))
        if self.window_jobs is None and self.window_seconds is None:
            object.__setattr__(self, "window_jobs", 5000)
        check_optional_positive_int("nmax", self.nmax)
        check_optional_positive_int("jobs", self.jobs)
        config = self.to_matrix_config()
        object.__setattr__(self, "policies", config.policies)
        object.__setattr__(self, "backfill", config.backfill)
        object.__setattr__(self, "topology", config.topology)
        object.__setattr__(self, "distribution", config.distribution)
        if self.trace is None:
            check_trace_name(self.synthetic)
        else:
            check_trace_ref(self.trace)
        if self.baseline is not None:
            canonical = canonical_policy(self.baseline)
            if canonical not in self.policies:
                raise SpecError(
                    f"baseline {canonical!r} is not among the matrix"
                    f" policies {self.policies}"
                )
            object.__setattr__(self, "baseline", canonical)
        if isinstance(self.bootstrap, bool) or not isinstance(self.bootstrap, int) or self.bootstrap < 0:
            raise SpecError(f"bootstrap must be an integer >= 0, got {self.bootstrap!r}")
        if not 0.0 < self.ci < 1.0:
            raise SpecError(f"ci must be a coverage level in (0, 1), got {self.ci!r}")

    def to_matrix_config(self) -> "MatrixConfig":
        """The validated matrix configuration this spec declares."""
        from repro.eval.matrix import MatrixConfig

        try:
            return MatrixConfig(
                policies=tuple(self.policies),
                backfill=tuple(self.backfill),
                nmax=self.nmax or 0,
                use_estimates=self.estimates,
                tau=self.tau,
                window_jobs=self.window_jobs,
                window_seconds=self.window_seconds,
                warmup=self.warmup,
                max_windows=self.max_windows,
                seed=self.seed,
                topology=self.topology,
                distribution=self.distribution,
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise SpecError(f"invalid evaluate spec: {exc.args[0]}") from None

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
