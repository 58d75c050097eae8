"""Composite spec: a parameter grid fanned over a base spec (``sweep``).

One :class:`SweepSpec` holds a *base* spec of any non-sweep kind and a
*grid* mapping base-spec field names to value lists.  :meth:`~SweepSpec.
expand` takes the Cartesian product of the axes (declared order, last
axis fastest) and yields one child spec per combination via
``dataclasses.replace`` — every child passes the base kind's own
validation, eagerly, at sweep construction time.

Because child specs run through :func:`repro.api.run` with a shared
:class:`~repro.runtime.ArtifactCache`, and every cacheable unit below
them is content-addressed (training distributions, evaluation cells,
single simulations — see :mod:`repro.specs.fingerprint`), re-running a
sweep with one added axis value simulates only the genuinely new cells:
everything the previous grid covered is served from cache.

TOML form::

    spec = "sweep"

    [base]
    spec = "evaluate"
    trace = "tests/data/ctc_tiny.swf"
    window_jobs = 50

    [grid]
    policies = [["fcfs"], ["f1"]]
    backfill = [["none"], ["easy"]]
"""

from __future__ import annotations

import dataclasses
import itertools
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from typing import Any, ClassVar

from repro.specs.base import Spec, coerce_field_value, register_spec

__all__ = ["SweepSpec"]


@register_spec
@dataclass(frozen=True)
class SweepSpec(Spec):
    """A grid of experiments expanded from one base spec."""

    kind: ClassVar[str] = "sweep"

    #: The spec every grid point is derived from (any kind but sweep).
    base: Spec | None = None
    #: Ordered axes: ``(field name, (value, value, ...))`` pairs.  A
    #: mapping (e.g. a TOML ``[grid]`` table) is accepted and normalised.
    grid: tuple[tuple[str, tuple[Any, ...]], ...] = ()

    def _validate(self) -> None:
        if not isinstance(self.base, Spec):
            raise ValueError(
                "sweep requires a 'base' spec (a nested spec document)"
            )
        if isinstance(self.base, SweepSpec):
            raise ValueError("sweeps cannot nest: base must not be a sweep")
        object.__setattr__(self, "grid", self._normalize_grid(self.grid))
        if not self.grid:
            raise ValueError("sweep requires a non-empty 'grid' of axes")
        self.expand()  # eager validation of every grid combination

    def _normalize_grid(
        self, grid: Mapping[str, Sequence] | Sequence
    ) -> tuple[tuple[str, tuple[Any, ...]], ...]:
        base_cls = type(self.base)
        base_fields = {f.name for f in dataclasses.fields(base_cls)}
        if isinstance(grid, Mapping):
            pairs = list(grid.items())
        else:
            try:
                pairs = [(name, values) for name, values in grid]
            except (TypeError, ValueError):
                raise ValueError(
                    "grid must map base-spec field names to value lists"
                ) from None
        axes = []
        seen = set()
        for name, values in pairs:
            if name not in base_fields:
                raise ValueError(
                    f"grid axis {name!r} is not a field of the"
                    f" {base_cls.kind!r} base spec; valid fields:"
                    f" {', '.join(sorted(base_fields))}"
                )
            if name in seen:
                raise ValueError(f"duplicate grid axis {name!r}")
            seen.add(name)
            if isinstance(values, (str, bytes)) or not isinstance(
                values, Sequence
            ):
                raise ValueError(
                    f"grid axis {name!r} must list its values, got {values!r}"
                )
            if len(values) == 0:
                raise ValueError(f"grid axis {name!r} has no values")
            axes.append(
                (
                    name,
                    tuple(
                        coerce_field_value(base_cls, name, v) for v in values
                    ),
                )
            )
        return tuple(axes)

    # ------------------------------------------------------------------
    # expansion
    # ------------------------------------------------------------------
    def iter_grid(self) -> list[tuple[dict[str, Any], Spec]]:
        """All ``(overrides, child spec)`` pairs, product order.

        Axes vary in declared order with the last axis fastest — the
        order a nested for-loop over the grid would produce.
        """
        names = [name for name, _ in self.grid]
        out = []
        for combo in itertools.product(*(values for _, values in self.grid)):
            overrides = dict(zip(names, combo))
            try:
                child = dataclasses.replace(self.base, **overrides)
            except ValueError as exc:
                point = ", ".join(f"{k}={v!r}" for k, v in overrides.items())
                raise ValueError(f"invalid grid point ({point}): {exc}") from None
            out.append((overrides, child))
        return out

    def expand(self) -> list[Spec]:
        """The child specs of every grid point, product order."""
        return [child for _, child in self.iter_grid()]

    # ------------------------------------------------------------------
    # serialization / identity
    # ------------------------------------------------------------------
    @classmethod
    def _decode_fields(cls, fields: dict[str, Any]) -> dict[str, Any]:
        # The grid stays verbatim: _validate normalises it once the base
        # spec (and its field set) is known.
        base = fields.get("base")
        if isinstance(base, Mapping):
            fields = {**fields, "base": Spec.from_dict(base)}
        return fields

    def to_dict(self) -> dict[str, Any]:
        data = super().to_dict()
        # Encode the grid as a mapping — the natural TOML/JSON spelling.
        data["grid"] = {
            name: [
                list(v) if isinstance(v, tuple) else v for v in values
            ]
            for name, values in self.grid
        }
        return data

    def _fingerprint_payload(self) -> dict[str, Any]:
        # A sweep *is* its children: identical grids over identical bases
        # hash equal however the axes were spelled.
        return {"children": [child.fingerprint() for child in self.expand()]}
