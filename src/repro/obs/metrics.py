"""Process-local metrics: counters, gauges and monotonic timers.

:class:`MetricsRegistry` is the library's one metrics sink.  Counters
and gauges are plain dict entries; timers accumulate
``(seconds, count, max)`` from a monotonic clock (``time.perf_counter``
by default — inject ``now=`` for deterministic tests).  A registry
serialises losslessly to plain JSON (:meth:`MetricsRegistry.to_dict`)
and merges additively (:meth:`MetricsRegistry.merge`), which is how
worker processes report: each worker call collects into a fresh
registry, ships its ``to_dict()`` back on the result channel next to
the call's result, and the parent merges it as the result lands (see
:meth:`repro.runtime.TrialRunner.map`).

The **disabled path is a no-op**: the ambient registry defaults to
:data:`NULL_REGISTRY`, whose methods do nothing and whose timer is a
shared, allocation-free context manager.  Instrumentation therefore
lives at event/shard/cell granularity (never inside a per-job inner
loop) and can stay unconditionally in the code: recording to the null
registry costs one method call.

Nothing in this module can change a result: registries never feed back
into cache keys, fingerprints or RNG draws (see
``docs/observability.md`` — the never-forks-a-fingerprint contract).
"""

from __future__ import annotations

import threading
import time
from collections.abc import Callable, Mapping
from contextlib import contextmanager

__all__ = [
    "MetricsDelta",
    "MetricsRegistry",
    "NULL_REGISTRY",
    "NullRegistry",
    "current_registry",
    "use_registry",
]


class _Timer:
    """One named timer's accumulated state."""

    __slots__ = ("seconds", "count", "max")

    def __init__(self) -> None:
        self.seconds = 0.0
        self.count = 0
        self.max = 0.0

    def add(self, seconds: float, count: int = 1) -> None:
        self.seconds += seconds
        self.count += count
        if seconds > self.max:
            self.max = seconds

    def to_dict(self) -> dict:
        return {"seconds": self.seconds, "count": self.count, "max": self.max}


class _TimerContext:
    """Reusable-per-call context manager for :meth:`MetricsRegistry.timer`."""

    __slots__ = ("_registry", "_name", "_start")

    def __init__(self, registry: "MetricsRegistry", name: str) -> None:
        self._registry = registry
        self._name = name

    def __enter__(self) -> "_TimerContext":
        self._start = self._registry._now()
        return self

    def __exit__(self, *exc: object) -> None:
        self._registry.add_time(
            self._name, self._registry._now() - self._start
        )


class MetricsRegistry:
    """Counters, gauges and timers for one process (thread-safe).

    All mutation goes through :meth:`inc` / :meth:`set_gauge` /
    :meth:`add_time` (or the :meth:`timer` context manager), so a
    registry can be fed from executor threads as safely as from the
    main loop.
    """

    def __init__(self, now: Callable[[], float] = time.perf_counter) -> None:
        self._now = now
        self._lock = threading.Lock()
        self._counters: dict[str, float] = {}
        self._gauges: dict[str, float] = {}
        self._timers: dict[str, _Timer] = {}

    # -- recording ------------------------------------------------------
    def inc(self, name: str, n: float = 1) -> None:
        """Add *n* to counter *name* (created at 0)."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + n

    def set_gauge(self, name: str, value: float) -> None:
        """Set gauge *name* to *value* (last write wins)."""
        with self._lock:
            self._gauges[name] = float(value)

    def add_time(self, name: str, seconds: float, count: int = 1) -> None:
        """Fold an externally measured duration into timer *name*."""
        with self._lock:
            timer = self._timers.get(name)
            if timer is None:
                timer = self._timers[name] = _Timer()
            timer.add(seconds, count)

    def timer(self, name: str) -> _TimerContext:
        """``with registry.timer("phase"):`` — time a block into *name*."""
        return _TimerContext(self, name)

    # -- reading --------------------------------------------------------
    @property
    def enabled(self) -> bool:
        """Whether recording actually persists (``False`` only for null)."""
        return True

    def value(self, name: str, default: float = 0) -> float:
        """Current value of counter *name* (*default* if never touched)."""
        return self._counters.get(name, default)

    def gauge(self, name: str, default: float = float("nan")) -> float:
        """Current value of gauge *name*."""
        return self._gauges.get(name, default)

    def timer_seconds(self, name: str) -> float:
        """Accumulated seconds of timer *name* (0.0 if never started)."""
        timer = self._timers.get(name)
        return timer.seconds if timer is not None else 0.0

    def timer_count(self, name: str) -> int:
        """How many measurements timer *name* accumulated."""
        timer = self._timers.get(name)
        return timer.count if timer is not None else 0

    # -- serialisation and merging -------------------------------------
    def to_dict(self) -> dict:
        """Plain-JSON snapshot: ``{"counters", "gauges", "timers"}``."""
        with self._lock:
            return {
                "counters": dict(self._counters),
                "gauges": dict(self._gauges),
                "timers": {k: t.to_dict() for k, t in self._timers.items()},
            }

    def merge(self, other: "MetricsRegistry | Mapping") -> None:
        """Fold *other* (a registry or a :meth:`to_dict` document) in.

        Counters and timer totals add; gauges are last-write; timer
        ``max`` takes the maximum.  Merging is associative and
        order-independent for counters/timers, which is what makes the
        merged metrics of N worker processes equal the serial run's
        (the workers partition the same work-list).
        """
        doc = other.to_dict() if isinstance(other, MetricsRegistry) else other
        with self._lock:
            for name, n in doc.get("counters", {}).items():
                self._counters[name] = self._counters.get(name, 0) + n
            for name, value in doc.get("gauges", {}).items():
                self._gauges[name] = value
            for name, entry in doc.get("timers", {}).items():
                timer = self._timers.get(name)
                if timer is None:
                    timer = self._timers[name] = _Timer()
                timer.seconds += entry["seconds"]
                timer.count += entry["count"]
                timer.max = max(timer.max, entry["max"])

    # -- snapshots ------------------------------------------------------
    def delta(self) -> "MetricsDelta":
        """Snapshot the counters for later difference-taking.

        The one helper behind every "how much did this sub-run hit the
        cache" question::

            snap = cache.metrics.delta()
            ...  # run something
            hits = snap.value("cache.hits")  # 3

        replacing the historical ``before = (cache.hits, cache.misses)``
        tuple-juggling at each call site.
        """
        with self._lock:
            return MetricsDelta(self, dict(self._counters))


class MetricsDelta:
    """Counter snapshot; :meth:`value` yields a counter's later increment."""

    __slots__ = ("_registry", "_before")

    def __init__(self, registry: MetricsRegistry, before: dict[str, float]) -> None:
        self._registry = registry
        self._before = before

    def value(self, name: str) -> float:
        """Increment of one counter since the snapshot (0 if unchanged)."""
        return self._registry.value(name) - self._before.get(name, 0)


class _NullTimerContext:
    """Shared, allocation-free no-op timer context."""

    __slots__ = ()

    def __enter__(self) -> "_NullTimerContext":
        return self

    def __exit__(self, *exc: object) -> None:
        pass


_NULL_TIMER = _NullTimerContext()


class NullRegistry(MetricsRegistry):
    """The disabled path: every recording method is a no-op.

    Reading methods return empty/zero values, so code may query the
    ambient registry unconditionally.  This is the default ambient
    registry — telemetry collection only happens inside a
    :func:`use_registry` block.
    """

    def __init__(self) -> None:
        super().__init__()

    @property
    def enabled(self) -> bool:
        return False

    def inc(self, name: str, n: float = 1) -> None:
        pass

    def set_gauge(self, name: str, value: float) -> None:
        pass

    def add_time(self, name: str, seconds: float, count: int = 1) -> None:
        pass

    def timer(self, name: str) -> _NullTimerContext:
        return _NULL_TIMER

    def merge(self, other: "MetricsRegistry | Mapping") -> None:
        pass


#: The ambient default: recording into it does nothing.
NULL_REGISTRY = NullRegistry()

_current: MetricsRegistry = NULL_REGISTRY
_current_lock = threading.Lock()


def current_registry() -> MetricsRegistry:
    """The ambient registry (:data:`NULL_REGISTRY` unless one is in use)."""
    return _current


@contextmanager
def use_registry(registry: MetricsRegistry):
    """Install *registry* as the ambient sink for the enclosed block.

    Nesting restores the previous registry on exit; exceptions
    propagate.  The ambient registry is process-global (worker processes
    start at :data:`NULL_REGISTRY` and install their own), matching the
    library's process-pool execution model.
    """
    global _current
    with _current_lock:
        previous = _current
        _current = registry
    try:
        yield registry
    finally:
        with _current_lock:
            _current = previous
