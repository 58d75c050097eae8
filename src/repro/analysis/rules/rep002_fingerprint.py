"""REP002 — fingerprint purity: execution knobs never enter a cache key.

The fingerprint/caching contract (docs/architecture.md): cache keys
hash every *result-relevant* config field and nothing else.  Worker
count, chunk size, backend, streaming mode and cache location cannot
change a result, so if one reaches a fingerprint payload the same
experiment forks into distinct cache entries — warm caches stop
hitting, and worse, a key that *should* have changed can appear to.
This rule watches every call to the canonical derivation functions in
``specs/fingerprint.py`` (and the hashing primitive underneath) and
flags execution-knob names appearing as keyword arguments or as string
keys of literal payload dicts.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.analysis.base import ModuleContext, Rule

__all__ = ["FingerprintPurity"]

#: The canonical derivation functions (specs/fingerprint.py) plus the
#: hashing primitive they delegate to (runtime/cache.py).
_FINGERPRINT_FUNCS = frozenset(
    {
        "config_fingerprint",
        "distribution_fingerprint",
        "eval_cell_fingerprint",
        "eval_window_fingerprint",
        "simulate_cell_fingerprint",
        "spec_fingerprint",
    }
)

#: Execution knobs: every spelling the runtime/CLI uses for a setting
#: that is guaranteed not to change results.
_EXECUTION_KNOBS = frozenset(
    {
        "workers", "n_workers", "chunk_size", "backend", "stream",
        "cache", "cache_dir", "telemetry", "progress",
    }
)


def _dict_keys(node: ast.AST) -> Iterator[tuple[ast.AST, str]]:
    """String keys of a dict literal (nested one level into ** merges)."""
    if isinstance(node, ast.Dict):
        for key in node.keys:
            if isinstance(key, ast.Constant) and isinstance(key.value, str):
                yield key, key.value
        for key, value in zip(node.keys, node.values):
            if key is None:  # {**other} merge of another literal
                yield from _dict_keys(value)


class FingerprintPurity(Rule):
    """Flag execution knobs flowing into fingerprint payloads."""

    id = "REP002"
    name = "fingerprint-purity"
    contract = (
        "cache keys are derived only from result-relevant spec fields;"
        " execution knobs (workers/backend/stream/cache location) never"
        " enter a payload"
    )
    rationale = (
        "a knob in a key forks one experiment into many cache entries"
        " and makes identity depend on how a run was executed rather"
        " than what it computes"
    )
    backstop = "tests/test_specs.py (fingerprint stability), CI spec-smoke"
    interests = (ast.Call,)

    def check(
        self, node: ast.AST, ctx: ModuleContext
    ) -> Iterator[tuple[ast.AST | None, str]]:
        assert isinstance(node, ast.Call)
        qual = ctx.qualname(node.func)
        if qual is None:
            return
        fn = qual.rpartition(".")[2]
        if fn not in _FINGERPRINT_FUNCS:
            return
        for keyword in node.keywords:
            if keyword.arg in _EXECUTION_KNOBS:
                yield (
                    keyword.value,
                    f"execution knob {keyword.arg!r} passed into {fn}();"
                    " fingerprints must hash result-relevant fields only",
                )
        payload_args = list(node.args) + [
            kw.value for kw in node.keywords if kw.arg is not None
        ]
        for arg in payload_args:
            for key_node, key in _dict_keys(arg):
                if key in _EXECUTION_KNOBS:
                    yield (
                        key_node,
                        f"execution knob {key!r} in the payload of {fn}();"
                        " fingerprints must hash result-relevant fields"
                        " only",
                    )
