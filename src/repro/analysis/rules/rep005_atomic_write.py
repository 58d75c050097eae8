"""REP005 — atomic writes: persistence layers commit via tmp + rename.

A cache entry or manifest that is written in place can be
observed half-written by a concurrent reader (the cache is documented
as safe to share across processes) or left torn by a crash, and a torn
entry that still parses is silent corruption.  The blessed pattern —
used by ``runtime/cache.py``, ``core/datastore.py``,
``traces/fetch.py`` and ``obs/manifest.py`` — streams into a
same-directory temp file and ``os.replace``\\ s it into place.  This
rule flags write-mode ``open()`` / ``Path.write_text`` /
``Path.write_bytes`` calls in the persistence modules whose enclosing
function never performs a rename/replace commit.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.analysis.base import ModuleContext, Rule

__all__ = ["AtomicWrite"]

_WRITE_METHODS = frozenset({"write_text", "write_bytes"})
_COMMIT_QUALS = frozenset({"os.replace", "os.rename"})


def _write_mode(node: ast.Call) -> str | None:
    """The write/append mode string of an ``open``-style call, if any."""
    mode: ast.AST | None = None
    if len(node.args) >= 2:
        mode = node.args[1]
    else:
        for keyword in node.keywords:
            if keyword.arg == "mode":
                mode = keyword.value
    if (
        isinstance(mode, ast.Constant)
        and isinstance(mode.value, str)
        and any(c in mode.value for c in "wax")
    ):
        return mode.value
    return None


def _is_commit_call(node: ast.Call, ctx: ModuleContext) -> bool:
    """Whether *node* is an ``os.replace``/``rename`` style commit."""
    qual = ctx.qualname(node.func)
    if qual in _COMMIT_QUALS:
        return True
    if isinstance(node.func, ast.Attribute) and node.func.attr in (
        "replace",
        "rename",
    ):
        # Path.replace(target)/Path.rename(target) take one positional
        # argument; str.replace(old, new) takes two, which excludes it.
        return len(node.args) == 1 and not node.keywords
    return False


class AtomicWrite(Rule):
    """Flag in-place writes in persistence modules."""

    id = "REP005"
    name = "atomic-write"
    contract = (
        "persistence layers (cache, queue, trace store, manifests)"
        " write through a same-directory temp file committed with"
        " os.replace"
    )
    rationale = (
        "an in-place write can be seen half-written by a concurrent"
        " process or left torn by a crash; shared caches and the"
        " crash-resumable queue rely on entries being whole-or-absent"
    )
    backstop = (
        "tests/test_cache_concurrency.py, tests/test_executor_faults.py"
    )
    paths = ("runtime/", "traces/", "obs/", "core/datastore.py")
    interests = (ast.Call,)

    def _scope(self, node: ast.AST, ctx: ModuleContext) -> ast.AST:
        """The body whose commit pattern excuses a write: the enclosing
        function, or the whole module for top-level writes."""
        return ctx.enclosing_function(node) or ctx.tree

    def check(
        self, node: ast.AST, ctx: ModuleContext
    ) -> Iterator[tuple[ast.AST | None, str]]:
        assert isinstance(node, ast.Call)
        spelling: str | None = None
        if isinstance(node.func, ast.Name) and node.func.id == "open":
            mode = _write_mode(node)
            if mode is not None:
                spelling = f'open(..., "{mode}")'
        elif isinstance(node.func, ast.Attribute):
            if node.func.attr in _WRITE_METHODS:
                spelling = f".{node.func.attr}(...)"
            elif node.func.attr == "open":
                mode = _write_mode(node)
                if mode is not None:
                    spelling = f'.open("{mode}")'
        if spelling is None:
            return
        scope = self._scope(node, ctx)
        for sub in ast.walk(scope):
            if isinstance(sub, ast.Call) and _is_commit_call(sub, ctx):
                return
        yield (
            node,
            f"in-place {spelling} in a persistence module with no"
            " rename/replace commit in the enclosing function; stream"
            " into a temp file and os.replace it into place",
        )
