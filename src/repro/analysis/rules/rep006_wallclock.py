"""REP006 — no wall-clock reads in result paths.

Simulated time is the only time a result may depend on: every schedule,
score and report must be a pure function of the spec and the trace.  A
``time.time()`` or ``datetime.now()`` in a result path smuggles the
machine's clock into the computation, making two identical runs differ.
The observation layer (``obs/``) legitimately reads clocks — durations
and timestamps are what it exists to record — so it is exempt.
Monotonic duration probes (``time.perf_counter``) are not
flagged: they cannot encode a date and feed only telemetry.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.analysis.base import ModuleContext, Rule

__all__ = ["NoWallClock"]

#: Exact qualified spellings of wall-clock reads.
_BANNED_QUALS = frozenset(
    {
        "time.time", "time.time_ns", "time.localtime", "time.gmtime",
        "time.ctime", "time.strftime", "time.asctime",
    }
)
#: ``<datetime-ish>.now()`` / ``.utcnow()`` / ``.today()`` receivers.
_DATETIME_ATTRS = frozenset({"now", "utcnow", "today"})
_DATETIME_BASES = frozenset({"datetime", "date"})


class NoWallClock(Rule):
    """Flag wall-clock reads outside the observation layer."""

    id = "REP006"
    name = "no-wall-clock-in-result-path"
    contract = (
        "results are pure functions of spec + trace; only obs/ may read"
        " the machine clock"
    )
    rationale = (
        "a wall-clock read in a result path makes two identical runs"
        " differ by when they ran, breaking byte-identical reproduction"
        " and content-addressed caching"
    )
    backstop = "CI eval-smoke byte-compares, tests/test_eval_matrix.py"
    allow_paths = ("obs/",)
    interests = (ast.Call,)

    def check(
        self, node: ast.AST, ctx: ModuleContext
    ) -> Iterator[tuple[ast.AST | None, str]]:
        assert isinstance(node, ast.Call)
        qual = ctx.qualname(node.func)
        if qual is None:
            return
        if qual in _BANNED_QUALS:
            yield (
                node,
                f"wall-clock read `{qual}()` in a result path; inject a"
                " clock or move the read into obs/",
            )
            return
        head, _, fn = qual.rpartition(".")
        if fn in _DATETIME_ATTRS and head.rpartition(".")[2] in _DATETIME_BASES:
            yield (
                node,
                f"wall-clock read `{qual}()` in a result path; inject a"
                " clock or move the read into obs/",
            )
