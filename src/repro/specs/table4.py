"""Declarative spec of Table 4 regeneration (``table4``).

One :class:`Table4Spec` selects a subset of the paper's 18 dynamic
scheduling experiments (``rows = None`` means all, paper order), a scale
preset, a seed, and optionally a custom policy-column set.  The
fingerprint resolves the scale preset into its experiment-shaping
numbers (sequences, days, trace job budget), so two specs that regenerate
the same table hash the same whatever preset name got them there.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, ClassVar

from repro.specs.base import Spec, SpecError, register_spec
from repro.specs.simulate import canonical_policy
from repro.specs.train import check_scale_name, check_seed

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.scale import Scale

__all__ = ["Table4Spec"]


@register_spec
@dataclass(frozen=True)
class Table4Spec(Spec):
    """A selection of Table 4 rows at one scale and seed."""

    kind: ClassVar[str] = "table4"

    rows: tuple[str, ...] | None = field(
        default=None,
        metadata={"help": "Table 4 row ids (see `repro-sched info`;"
                  " default: all 18 in paper order)"},
    )
    scale: str | None = field(
        default=None,
        metadata={"help": "scale preset (default: $REPRO_SCALE, else small)"},
    )
    seed: int = 0
    policies: tuple[str, ...] | None = field(
        default=None,
        metadata={"help": "policy columns (default: the paper's)"},
    )

    def __post_init__(self) -> None:
        check_scale_name(self.scale)
        check_seed(self.seed)
        if self.rows is not None:
            from repro.experiments.table4 import resolve_rows

            if not self.rows:
                raise SpecError("rows must be a non-empty list or omitted")
            try:
                resolve_rows(self.rows)
            except KeyError as exc:
                raise SpecError(str(exc.args[0])) from None
            if len(set(self.rows)) != len(self.rows):
                raise SpecError(f"duplicate rows in {self.rows}")
        if self.policies is not None:
            if not self.policies:
                raise SpecError("policies must be a non-empty list or omitted")
            canonical = tuple(canonical_policy(p) for p in self.policies)
            if len(set(canonical)) != len(canonical):
                raise SpecError(f"duplicate policies in {self.policies}")
            object.__setattr__(self, "policies", canonical)

    def resolved_rows(self) -> list[str]:
        """The selected row ids, paper order when *rows* is ``None``."""
        from repro.experiments.table4 import row_ids

        return list(self.rows) if self.rows is not None else row_ids()

    def resolved_policies(self) -> tuple[str, ...]:
        """The policy columns to measure (paper columns by default)."""
        if self.policies is not None:
            return self.policies
        from repro.experiments.paper_data import POLICY_COLUMNS

        return POLICY_COLUMNS

    def resolve_scale(self) -> "Scale":
        """The scale preset (``$REPRO_SCALE`` if unnamed)."""
        from repro.experiments.scale import current_scale

        return current_scale(self.scale or None)

    def _fingerprint_payload(self) -> dict[str, Any]:
        scale = self.resolve_scale()
        return {
            "rows": self.resolved_rows(),
            "seed": self.seed,
            "policies": list(self.resolved_policies()),
            "n_sequences": scale.n_sequences,
            "days": scale.days,
            "trace_jobs": scale.trace_jobs,
        }
