"""Declarative spec of the §3 policy-obtaining pipeline (``train``).

One :class:`TrainSpec` is the serializable counterpart of
:class:`repro.core.pipeline.PipelineConfig` plus the scale-preset
resolution the CLI used to hand-roll: fields left ``None`` fall back to
the named :class:`~repro.experiments.scale.Scale` preset (or, with
``scale`` itself ``None``, to ``$REPRO_SCALE``) when the spec is
resolved.  Fingerprints are computed over the *resolved* numbers, so
``scale = "smoke"`` and the equivalent explicit fields describe — and
hash as — the same experiment.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, ClassVar

from repro.specs.base import Spec, SpecError, register_spec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.pipeline import PipelineConfig
    from repro.experiments.scale import Scale

__all__ = ["TrainSpec"]


def check_scale_name(scale: str | None) -> None:
    """Validate a scale-preset name against the registry (lazy import)."""
    if scale is None:
        return
    from repro.experiments.scale import SCALES

    if scale not in SCALES:
        raise SpecError(
            f"unknown scale {scale!r}; available: {', '.join(sorted(SCALES))}"
        )


def check_optional_positive_int(name: str, value: object) -> None:
    """Raise :class:`SpecError` unless *value* is ``None`` or an int >= 1."""
    if value is None:
        return
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise SpecError(f"{name} must be a positive integer, got {value!r}")


def check_seed(value: object) -> None:
    """Raise :class:`SpecError` unless *value* is an int >= 0 (not a bool)."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise SpecError(f"seed must be a non-negative integer, got {value!r}")


@register_spec
@dataclass(frozen=True)
class TrainSpec(Spec):
    """One training run: tuples → trials → distribution → policies."""

    kind: ClassVar[str] = "train"

    scale: str | None = field(
        default=None,
        metadata={"help": "scale preset backing unset fields"
                  " (default: $REPRO_SCALE, else small)"},
    )
    n_tuples: int | None = field(
        default=None,
        metadata={"flag": "--tuples", "help": "(S, Q) tuples to simulate"
                  " (default: the scale preset's)"},
    )
    trials_per_tuple: int | None = field(
        default=None,
        metadata={"flag": "--trials", "help": "permutation trials per tuple"
                  " (default: the scale preset's)"},
    )
    nmax: int = field(default=256, metadata={"help": "machine size in cores"})
    s_size: int = field(
        default=16, metadata={"help": "|S|: warm-up jobs per tuple"}
    )
    q_size: int = field(
        default=32, metadata={"help": "|Q|: probe jobs scored per tuple"}
    )
    seed: int = 0
    tau: float | None = field(
        default=None,
        metadata={"help": "bounded-slowdown threshold in seconds (default: 10)"},
    )
    top_k: int = field(
        default=4, metadata={"flag": "--top", "help": "policies to report"}
    )
    balanced_trials: bool = field(
        default=True,
        metadata={"help": "draw trial permutations in balanced blocks (each"
                  " probe job heads one permutation per block)"},
    )
    regression_max_points: int | None = field(
        default=None,
        metadata={"help": "subsample bound of each regression fit"
                  " (default: the scale preset's)"},
    )

    def __post_init__(self) -> None:
        if self.tau is None:
            from repro.sim.metrics import DEFAULT_TAU

            object.__setattr__(self, "tau", float(DEFAULT_TAU))
        check_scale_name(self.scale)
        check_seed(self.seed)
        for name in (
            "n_tuples",
            "trials_per_tuple",
            "regression_max_points",
        ):
            check_optional_positive_int(name, getattr(self, name))
        for name in ("nmax", "s_size", "q_size", "top_k"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int) or value < 1:
                raise SpecError(f"{name} must be a positive integer, got {value!r}")
        if not self.tau > 0:
            raise SpecError(f"tau must be > 0, got {self.tau!r}")

    def resolve_scale(self) -> "Scale":
        """The preset backing unset fields (``$REPRO_SCALE`` if unnamed)."""
        from repro.experiments.scale import current_scale

        return current_scale(self.scale or None)

    def to_pipeline_config(self) -> "PipelineConfig":
        """Resolve presets into a concrete, validated pipeline config."""
        from repro.core.pipeline import PipelineConfig
        from repro.core.regression import RegressionConfig

        scale = self.resolve_scale()
        return PipelineConfig(
            n_tuples=self.n_tuples or scale.n_tuples,
            trials_per_tuple=self.trials_per_tuple or scale.trials_per_tuple,
            nmax=self.nmax,
            s_size=self.s_size,
            q_size=self.q_size,
            seed=self.seed,
            tau=self.tau,
            top_k=self.top_k,
            regression=RegressionConfig(
                max_points=self.regression_max_points
                or scale.regression_max_points
            ),
            balanced_trials=self.balanced_trials,
        )

    def distribution_key(self) -> str:
        """The training artifact-cache key this spec will hit or fill:
        :func:`repro.core.pipeline.distribution_cache_key` of the
        resolved config."""
        from repro.core.pipeline import distribution_cache_key

        return distribution_cache_key(self.to_pipeline_config())

    def _fingerprint_payload(self) -> dict[str, Any]:
        config = self.to_pipeline_config()
        return {
            "n_tuples": config.n_tuples,
            "trials_per_tuple": config.trials_per_tuple,
            "nmax": config.nmax,
            "s_size": config.s_size,
            "q_size": config.q_size,
            "seed": config.seed,
            "tau": config.tau,
            "balanced_trials": config.balanced_trials,
            "top_k": config.top_k,
            "regression_max_points": config.regression.max_points,
        }
