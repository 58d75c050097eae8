"""REP008 — cross-process picklability at executor submission sites.

Everything handed to the worker processes crosses a process boundary:
the runner pickles the mapped function and its item onto a queue.
Lambdas and functions defined inside another function cannot be
pickled at all — and the failure surfaces only on the first
parallel run, far from the edit that introduced it (``workers=1``
short-circuits in-process, so the serial tests pass).  This rule flags
lambdas and locally defined functions passed at the known submission
sites (``.submit(...)`` and ``.map(...)``).
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.analysis.base import ModuleContext, Rule

__all__ = ["CrossProcessPicklability"]

#: Method submission sites (executor pools, TrialRunner.map).
_SUBMIT_METHODS = frozenset({"submit", "map"})


def _local_function_names(
    node: ast.AST, ctx: ModuleContext
) -> frozenset[str]:
    """Names of functions defined inside the function enclosing *node*."""
    enclosing = ctx.enclosing_function(node)
    if enclosing is None:
        return frozenset()
    names = set()
    for sub in ast.walk(enclosing):
        if (
            isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef))
            and sub is not enclosing
        ):
            names.add(sub.name)
    return frozenset(names)


class CrossProcessPicklability(Rule):
    """Flag unpicklable callables at executor submission sites."""

    id = "REP008"
    name = "cross-process-picklability"
    contract = (
        "callables handed to the worker pool are module-level (or"
        " functools.partial of one): they must pickle across process"
        " boundaries"
    )
    rationale = (
        "lambdas and nested functions cannot be pickled; the failure"
        " only appears on the first parallel run, far from"
        " the edit that introduced it"
    )
    backstop = "tests/test_executor_parity.py, tests/test_executor_faults.py"
    interests = (ast.Call,)

    def _is_submission(self, node: ast.Call) -> str | None:
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in _SUBMIT_METHODS:
            return f".{func.attr}"
        return None

    def check(
        self, node: ast.AST, ctx: ModuleContext
    ) -> Iterator[tuple[ast.AST | None, str]]:
        assert isinstance(node, ast.Call)
        site = self._is_submission(node)
        if site is None:
            return
        local_fns = _local_function_names(node, ctx)
        for arg in list(node.args) + [kw.value for kw in node.keywords]:
            if isinstance(arg, ast.Lambda):
                yield (
                    arg,
                    f"lambda passed to {site}() cannot cross a process"
                    " boundary; define a module-level function instead",
                )
            elif isinstance(arg, ast.Name) and arg.id in local_fns:
                yield (
                    arg,
                    f"locally defined function {arg.id!r} passed to"
                    f" {site}() cannot be pickled; move it to module"
                    " level",
                )
