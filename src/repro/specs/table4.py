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

from repro.specs.base import Spec, check_scale_name, register_spec

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
    seed: int = field(default=0, metadata={"min": 0})
    policies: tuple[str, ...] | None = field(
        default=None,
        metadata={"help": "policy columns (default: the paper's)"},
    )

    def _validate(self) -> None:
        check_scale_name(self.scale)
        if self.rows is not None:
            from repro.experiments.table4 import resolve_rows

            if not self.rows:
                raise ValueError("rows must be a non-empty list or omitted")
            resolve_rows(self.rows)
            if len(set(self.rows)) != len(self.rows):
                raise ValueError(f"duplicate rows in {self.rows}")
        if self.policies is not None:
            from repro.policies.registry import get_policy

            if not self.policies:
                raise ValueError("policies must be a non-empty list or omitted")
            canonical = tuple(get_policy(p).name for p in self.policies)
            if len(set(canonical)) != len(canonical):
                raise ValueError(f"duplicate policies in {self.policies}")
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
