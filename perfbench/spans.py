"""In-memory spans around calls into the library, for the traced run.

:class:`Tracer` records one span (name, start, end, parent) per call of
a wrapped function and keeps them in a list; nothing is written until
the run ends.  Wrappers replace a module attribute that callers look up
at call time (``module.name``), or a method on a class or instance, and
:meth:`Tracer.restore` puts every original back.  The untraced run
installs no wrapper at all.
"""

from __future__ import annotations

import functools
import time
from collections.abc import Callable
from dataclasses import dataclass


@dataclass
class Span:
    """One timed call: ``parent`` is the index of the enclosing span."""

    name: str
    start: float
    end: float
    parent: int | None


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its direct children cover.

    Children are clipped to their parent's interval and overlapping
    children are counted once, so the result never goes below zero.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s.start
        for lo, hi in sorted(children.get(i, [])):
            lo, hi = max(lo, reach), min(hi, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(max(s.end - s.start - covered, 0.0))
    return out


class Tracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, bool]] = []
        #: name -> [seconds, calls] of wrappers installed with span=False
        self.timers: dict[str, list[float]] = {}

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` inside a span called *name*.

        The span's parent is the innermost span still open.
        """
        parent = self._stack[-1] if self._stack else None
        span = Span(name, self.clock(), 0.0, parent)
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        try:
            return fn(*args, **kwargs)
        finally:
            span.end = self.clock()
            self._stack.pop()

    def wrap(
        self,
        owner: object,
        attr: str,
        name: str | Callable[..., str],
        on_result: Callable[..., None] | None = None,
        span: bool = True,
    ) -> None:
        """Replace ``owner.attr`` by a spanned call of the original.

        *name* is the span name, or a function of the call's arguments
        returning it.  *on_result* sees ``(result, *args, **kwargs)``
        after each call, for counts taken at the same boundary.  With
        ``span=False`` (for calls made once per simulation event) the
        call only adds its duration and a count to ``timers[name]``.
        """
        had_own = attr in vars(owner)
        original = vars(owner)[attr] if had_own else None
        target = getattr(owner, attr)
        if isinstance(original, classmethod):
            target = original.__func__
        namer = name if callable(name) else (lambda *a, **k: name)

        @functools.wraps(target)
        def wrapper(*args, **kwargs):
            if span:
                result = self.call(namer(*args, **kwargs), target, *args, **kwargs)
            else:
                t = self.clock()
                result = target(*args, **kwargs)
                timer = self.timers.setdefault(namer(*args, **kwargs), [0.0, 0])
                timer[0] += self.clock() - t
                timer[1] += 1
            if on_result is not None:
                on_result(result, *args, **kwargs)
            return result

        if isinstance(original, classmethod):
            wrapper = classmethod(wrapper)
        self._patches.append((owner, attr, original, had_own))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        """Undo every :meth:`wrap`, last first."""
        while self._patches:
            owner, attr, original, had_own = self._patches.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def busy(self, name: str) -> float:
        """Total duration of the spans called *name*."""
        return sum(s.end - s.start for s in self.spans if s.name == name)

    def durations(self, name: str) -> list[float]:
        """Durations of the spans called *name*, in call order."""
        return [s.end - s.start for s in self.spans if s.name == name]

    def self_by_name(self) -> dict[str, float]:
        """Self time summed per span name."""
        out: dict[str, float] = {}
        for s, t in zip(self.spans, self_times(self.spans)):
            out[s.name] = out.get(s.name, 0.0) + t
        return out
