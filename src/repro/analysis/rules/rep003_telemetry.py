"""REP003 — telemetry isolation: result paths never read metrics back.

Invariant #4 (docs/architecture.md): telemetry records what happened
but can never change what happens.  Writing into the ambient registry
(``inc`` / ``timer`` / gauges) from the simulation, training and
evaluation layers is exactly what the observation layer is for —
*reading* registry values back from those layers is how a result would
come to depend on whether ``--telemetry`` was enabled, breaking the
CI-enforced byte-identity of instrumented and bare runs.  This rule
flags calls to the reading surface of a registry/metrics object inside
the result-producing packages (``sim/``, ``core/``, ``eval/``).
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.analysis.base import ModuleContext, Rule

__all__ = ["TelemetryIsolation"]

#: Methods that read values out of a MetricsRegistry / MetricsDelta.
_READERS = frozenset(
    {"value", "gauge", "timer_seconds", "timer_count", "to_dict", "delta"}
)

#: Variable spellings that denote a metrics registry at the call site.
_REGISTRY_NAMES = ("registry", "metrics")


def _is_registry_base(base: ast.AST, ctx: ModuleContext) -> bool:
    """Whether *base* syntactically denotes a metrics registry."""
    if isinstance(base, ast.Call):
        qual = ctx.qualname(base.func)
        return qual is not None and qual.rpartition(".")[2] == "current_registry"
    qual = ctx.qualname(base)
    if qual is None:
        return False
    last = qual.rpartition(".")[2]
    return last in _REGISTRY_NAMES or last.endswith(("_registry", "_metrics"))


class TelemetryIsolation(Rule):
    """Flag metric-value reads inside result-producing packages."""

    id = "REP003"
    name = "telemetry-isolation"
    contract = (
        "sim/, core/ and eval/ only *write* telemetry; registry values"
        " are never read back into a result path"
    )
    rationale = (
        "a result that reads a counter depends on what else was"
        " instrumented and on whether telemetry is enabled at all —"
        " the --telemetry byte-identity contract would break"
    )
    backstop = "tests/test_obs.py, CI eval-smoke telemetry byte-compare"
    paths = ("sim/", "core/", "eval/")
    interests = (ast.Call,)

    def check(
        self, node: ast.AST, ctx: ModuleContext
    ) -> Iterator[tuple[ast.AST | None, str]]:
        assert isinstance(node, ast.Call)
        func = node.func
        if not isinstance(func, ast.Attribute) or func.attr not in _READERS:
            return
        if _is_registry_base(func.value, ctx):
            yield (
                node,
                f"metrics read `.{func.attr}()` in a result path;"
                " telemetry is observation-only (write via inc/timer,"
                " read only from obs/ and the CLI reporting layer)",
            )
