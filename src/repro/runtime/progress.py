"""Progress aggregation across out-of-order completions.

The library-wide progress contract is ``progress(phase, done, total)``
with *done* increasing monotonically to *total* (see
:func:`repro.core.pipeline.build_distribution`).  Parallel calls finish
in arbitrary order; :class:`ProgressAggregator` folds their completions
back into that contract so existing callbacks (CLI ticker, tests) work
unchanged no matter how the work was dispatched.

Progress-reporting order is the *only* observable that dispatch order
may change: results themselves stay bit-identical for any worker count
(see :mod:`repro.runtime.executor`), and nothing in this
module feeds back into cache keys or result values.
"""

from __future__ import annotations

import threading
from collections.abc import Callable

__all__ = ["ProgressAggregator"]

ProgressCallback = Callable[[str, int, int], None]


class ProgressAggregator:
    """Monotone ``(phase, done, total)`` channel fed by completions.

    Thread-safe: completion callbacks may arrive from executor threads.
    A ``None`` callback turns every report into a no-op, so call sites
    never need to branch.
    """

    def __init__(
        self, callback: ProgressCallback | None, phase: str, total: int
    ) -> None:
        if total < 0:
            raise ValueError(f"total must be >= 0, got {total}")
        self._callback = callback
        self.phase = phase
        self.total = total
        self.done = 0
        self._lock = threading.Lock()

    def advance(self, n: int = 1) -> None:
        """Record *n* finished items and emit one progress report.

        The callback fires under the lock so reports are serialised and
        *done* never appears to move backwards; callbacks must therefore
        not re-enter the aggregator.
        """
        if n < 0:
            raise ValueError(f"n must be >= 0, got {n}")
        with self._lock:
            self.done = min(self.done + n, self.total)
            if self._callback is not None:
                self._callback(self.phase, self.done, self.total)
