"""Every ``repro.``-qualified Sphinx cross-reference in ``src/repro`` resolves.

A docstring (or ``#:`` comment) that names ``:func:`repro.a.b``` keeps
naming it after ``b`` is renamed or deleted; nothing else notices.  This
test imports each such target: the longest importable module prefix,
then attribute by attribute, where a dataclass field without a default
(no class attribute) counts as present.  An ``__all__`` entry goes stale
the same way, so every module's ``__all__`` names must resolve too.
"""

from __future__ import annotations

import dataclasses
import importlib
import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

_ROLE = re.compile(r":(?:func|class|meth|mod|data|attr|exc):`[~!]?(repro(?:\.\w+)+)`")


def _references() -> dict[str, list[str]]:
    """Each qualified target, with the files that name it."""
    refs: dict[str, list[str]] = {}
    for path in sorted(SRC.rglob("*.py")):
        for match in _ROLE.finditer(path.read_text(encoding="utf-8")):
            refs.setdefault(match.group(1), []).append(str(path.relative_to(SRC.parent)))
    return refs


def _resolves(name: str) -> bool:
    parts = name.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            if hasattr(obj, attr):
                obj = getattr(obj, attr)
            elif dataclasses.is_dataclass(obj) and attr in obj.__dataclass_fields__:
                obj = None  # a field is a leaf
            else:
                return False
        return True
    return False


REFERENCES = _references()


def test_references_are_found():
    # the scan itself works: a regex that matched nothing would pass vacuously
    assert len(REFERENCES) > 100
    assert "repro.sim.job.BLOCK_COLUMNS" in REFERENCES


def test_every_reference_resolves():
    broken = {name: files for name, files in REFERENCES.items() if not _resolves(name)}
    assert not broken, f"unresolvable docstring references: {broken}"


@pytest.mark.parametrize(
    "name, ok",
    [
        ("repro.sim.job.Workload.from_block", True),
        ("repro.eval.windows.Window.warmup", True),  # dataclass field, no default
        ("repro.workloads.swf", True),
        ("repro.workloads.swf.iter_swf_blocks", True),
        ("repro.workloads.swf.iter_swf_jobs", False),  # deleted reader
        ("repro.sim.job.Workload.from_jobs", False),  # deleted constructor
        ("repro.no_such_module.thing", False),
    ],
)
def test_resolver(name, ok):
    assert _resolves(name) is ok


def _modules_with_all() -> list[str]:
    """Dotted names of the ``src/repro`` modules that declare ``__all__``."""
    names = []
    for path in sorted(SRC.rglob("*.py")):
        if "__all__" in path.read_text(encoding="utf-8"):
            parts = path.relative_to(SRC.parent).with_suffix("").parts
            names.append(".".join(parts[:-1] if parts[-1] == "__init__" else parts))
    return names


@pytest.mark.parametrize("module", _modules_with_all())
def test_all_names_resolve(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing, f"{module}.__all__ names missing attributes: {missing}"
