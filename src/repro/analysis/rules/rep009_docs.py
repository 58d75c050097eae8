"""REP009 — docstring invariants: every module documents its contract.

The migrated form of the ad-hoc docstring lint that used to live in
``tests/test_docstrings.py`` and a bespoke CI step — one lint entry
point instead of two.  Three checks, unchanged in substance:

* every module opens with a docstring;
* modules in the *contract packages* (``runtime/``, ``eval/``) state
  their determinism or caching contract in that docstring, and the two
  package ``__init__``\\ s state both — so the invariants survive
  refactors as documentation, not just as test assertions;
* public top-level callables of the *documented packages* (``eval/``)
  carry docstrings.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.analysis.base import ModuleContext, Rule

__all__ = ["DocstringInvariants"]

#: Spellings that count as stating the determinism invariant.
DETERMINISM_MARKERS = ("bit-identical", "determinis", "pure function", "pure:")
#: Spellings that count as stating the caching invariant.
CACHE_MARKERS = ("cache", "content-addressed", "fingerprint")


class DocstringInvariants(Rule):
    """Flag undocumented modules and unstated layer contracts."""

    id = "REP009"
    name = "docstring-invariants"
    contract = (
        "every module has a docstring; runtime/ and eval/ docstrings"
        " state the determinism/caching contracts; eval/'s public API"
        " is documented"
    )
    rationale = (
        "the cross-cutting contracts must survive refactors as prose a"
        " reader hits before the code, not only as test assertions"
    )
    backstop = "tests/test_analysis_engine.py (self-lint of src/)"
    #: Packages whose modules must state determinism or caching.
    contract_packages: tuple[str, ...] = ("runtime", "eval")
    #: Packages whose public top-level callables need docstrings.
    documented_packages: tuple[str, ...] = ("eval",)

    def check_module(
        self, ctx: ModuleContext
    ) -> Iterator[tuple[ast.AST | None, str]]:
        doc = ast.get_docstring(ctx.tree)
        if not doc:
            yield (None, "module has no docstring")
            return
        package = ctx.relpath.partition("/")[0]
        if package in self.contract_packages:
            lowered = doc.lower()
            markers = DETERMINISM_MARKERS + CACHE_MARKERS
            if ctx.relpath.endswith("/__init__.py"):
                if not any(m in lowered for m in DETERMINISM_MARKERS):
                    yield (
                        None,
                        f"{package}/ package docstring must state the"
                        " determinism contract (e.g. 'bit-identical')",
                    )
                if not any(m in lowered for m in CACHE_MARKERS):
                    yield (
                        None,
                        f"{package}/ package docstring must state the"
                        " caching contract (e.g. 'content-addressed')",
                    )
            elif not any(m in lowered for m in markers):
                yield (
                    None,
                    f"{package}/ module docstring must state its"
                    " determinism or caching contract",
                )
        if package in self.documented_packages:
            for node in ctx.tree.body:
                if isinstance(
                    node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
                ):
                    if node.name.startswith("_"):
                        continue
                    if not ast.get_docstring(node):
                        kind = (
                            "class"
                            if isinstance(node, ast.ClassDef)
                            else "function"
                        )
                        yield (
                            node,
                            f"public {kind} {node.name!r} has no docstring",
                        )
