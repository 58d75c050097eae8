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

from repro.specs.base import (
    TAU_HELP,
    Spec,
    check_scale_name,
    register_spec,
    resolve_tau,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.pipeline import PipelineConfig
    from repro.experiments.scale import Scale

__all__ = ["TrainSpec"]


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
                  " (default: the scale preset's)", "min": 1},
    )
    trials_per_tuple: int | None = field(
        default=None,
        metadata={"flag": "--trials", "help": "permutation trials per tuple"
                  " (default: the scale preset's)", "min": 1},
    )
    nmax: int = field(
        default=256, metadata={"help": "machine size in cores", "min": 1}
    )
    s_size: int = field(
        default=16, metadata={"help": "|S|: warm-up jobs per tuple", "min": 1}
    )
    q_size: int = field(
        default=32, metadata={"help": "|Q|: probe jobs scored per tuple", "min": 1}
    )
    seed: int = field(default=0, metadata={"min": 0})
    tau: float | None = field(default=None, metadata=TAU_HELP)
    top_k: int = field(
        default=4,
        metadata={"flag": "--top", "help": "policies to report", "min": 1},
    )
    balanced_trials: bool = field(
        default=True,
        metadata={"help": "draw trial permutations in balanced blocks (each"
                  " probe job heads one permutation per block)"},
    )
    regression_max_points: int | None = field(
        default=None,
        metadata={"help": "subsample bound of each regression fit"
                  " (default: the scale preset's)", "min": 1},
    )

    def _validate(self) -> None:
        object.__setattr__(self, "tau", resolve_tau(self.tau))
        check_scale_name(self.scale)

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
