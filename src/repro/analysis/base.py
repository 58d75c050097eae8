"""Rule base class and finding model for the repro lint engine.

A :class:`Rule` is one mechanically checkable contract: it carries the
machine metadata (id, severity, the invariant it enforces, the runtime
test that backstops it), the path gate that scopes it to the modules
where the contract holds, and the AST node types it wants to see.  The
engine (:mod:`repro.analysis.engine`) walks each module's tree exactly
once and dispatches nodes to every applicable rule, so adding a rule
never adds a traversal.

Rules are *syntactic*: they recognise the patterns that can break a
contract (an unseeded RNG call, a bare ``open(..., "w")``, a wall-clock
read) without import resolution or data-flow analysis.  That keeps them
fast, dependency-free and predictable — and it is why every rule is
paired with a runtime test (``Rule.backstop``) that catches whatever
spelling the syntax-level check cannot.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from fnmatch import fnmatch
from pathlib import Path

__all__ = ["Finding", "ModuleContext", "Rule", "path_matches"]


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location.

    ``suppressed`` findings carried a valid inline
    ``# repro: allow[RULE-ID] reason`` on their line: they are excluded
    from the exit code and the github reporter but kept in the JSON
    report (with the reason), so suppression growth stays visible to
    ``scripts/check_lint_baseline.py``.
    """

    rule: str
    path: str
    line: int
    col: int
    message: str
    severity: str
    suppressed: bool = False
    suppress_reason: str | None = None

    def to_dict(self) -> dict:
        """JSON-report form (schema documented in docs/invariants.md)."""
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "severity": self.severity,
            "suppressed": self.suppressed,
            "suppress_reason": self.suppress_reason,
        }


def path_matches(relpath: str, patterns: Iterable[str]) -> bool:
    """Whether *relpath* falls under any of *patterns*.

    A pattern ending in ``/`` matches the whole subtree; any other
    pattern matches the exact relative path or as an ``fnmatch`` glob.
    """
    for pattern in patterns:
        if pattern.endswith("/"):
            if relpath.startswith(pattern):
                return True
        elif relpath == pattern or fnmatch(relpath, pattern):
            return True
    return False


@dataclass
class ModuleContext:
    """Everything a rule may inspect about one parsed module."""

    path: Path  #: absolute filesystem path
    display_path: str  #: path as printed in findings
    relpath: str  #: package-relative posix path ("runtime/cache.py")
    source: str
    tree: ast.Module
    parents: dict[ast.AST, ast.AST] = field(default_factory=dict)

    def parent(self, node: ast.AST) -> ast.AST | None:
        """The syntactic parent of *node* (``None`` for the module)."""
        return self.parents.get(node)

    def ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        """Parents of *node*, innermost first, up to the module."""
        cur = self.parents.get(node)
        while cur is not None:
            yield cur
            cur = self.parents.get(cur)

    def enclosing_function(
        self, node: ast.AST
    ) -> ast.FunctionDef | ast.AsyncFunctionDef | None:
        """The innermost function containing *node*, if any."""
        for anc in self.ancestors(node):
            if isinstance(anc, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return anc
        return None

    @staticmethod
    def qualname(node: ast.AST) -> str | None:
        """Dotted name of a ``Name``/``Attribute`` chain, else ``None``.

        ``np.random.seed`` -> ``"np.random.seed"``; anything containing
        a call or subscript in the chain yields ``None``.
        """
        parts: list[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if isinstance(node, ast.Name):
            parts.append(node.id)
            return ".".join(reversed(parts))
        return None


class Rule:
    """One statically enforced contract.

    Subclasses set the class attributes below and implement
    :meth:`check` (per-node, for the node types in ``interests``)
    and/or :meth:`check_module` (once per module, for whole-module
    contracts such as docstring requirements).  Both yield
    ``(node_or_None, message)`` pairs; the engine attaches location,
    severity and suppression state.
    """

    id: str = "REP000"
    name: str = "abstract-rule"
    #: Every finding is an error; the field stays in JSON schema 1.
    severity: str = "error"
    #: One-line statement of the invariant this rule enforces.
    contract: str = ""
    #: Why the pattern is dangerous (shown by ``lint --list-rules``).
    rationale: str = ""
    #: The runtime test that backstops the contract at execution time.
    backstop: str = ""
    #: Path prefixes/globs the rule applies to (``None`` = everywhere).
    paths: tuple[str, ...] | None = None
    #: Path prefixes/globs exempt from the rule.
    allow_paths: tuple[str, ...] = ()
    #: AST node types routed to :meth:`check`.
    interests: tuple[type, ...] = ()
    def applies_to(self, relpath: str) -> bool:
        """Whether the rule runs against the module at *relpath*."""
        if self.allow_paths and path_matches(relpath, self.allow_paths):
            return False
        if self.paths is None:
            return True
        return path_matches(relpath, self.paths)

    def check(
        self, node: ast.AST, ctx: ModuleContext
    ) -> Iterator[tuple[ast.AST | None, str]]:
        """Findings for one node (called for types in ``interests``)."""
        return iter(())

    def check_module(
        self, ctx: ModuleContext
    ) -> Iterator[tuple[ast.AST | None, str]]:
        """Findings computed once per module."""
        return iter(())

    def describe(self) -> dict:
        """Metadata block for reporters and ``--list-rules``."""
        return {
            "id": self.id,
            "name": self.name,
            "severity": self.severity,
            "contract": self.contract,
            "rationale": self.rationale,
            "backstop": self.backstop,
            "paths": list(self.paths) if self.paths is not None else None,
            "allow_paths": list(self.allow_paths),
        }
