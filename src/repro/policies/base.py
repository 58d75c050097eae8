"""Policy interface.

A scheduling policy assigns each waiting job a *score*; the queue is
sorted in **increasing** score order (paper, §3.3: "tasks arriving into a
centralized queue … can be sorted in increasing order of the output of
these functions").  Ties are broken by submit time, then job index, so
every policy yields a deterministic schedule.

Scores receive the *processing time the scheduler knows* (``proc``): the
actual runtime ``r`` in perfect-information experiments, the user estimate
``e`` otherwise.  The engine decides which one to pass — policies never
look at both.

Batch-scoring contract
----------------------
The simulation kernel (:mod:`repro.sim.kernel`) scores jobs in batches,
so every policy's :meth:`Policy.scores` must be

* **vectorised** — one array op over all queued jobs, never a Python
  loop per job; and
* **elementwise and batch-stable** — job ``i``'s score depends only on
  job ``i``'s attributes (and ``now`` for dynamic policies), and the
  *bits* of the score must not change with the composition of the batch
  (numpy produces identical bits for full-array and sliced evaluation
  of the elementwise ops used here).

Static policies (``dynamic == False``) must additionally be
**now-independent**: the kernel scores the entire workload in one call
before the event loop starts instead of per arrival batch.  The whole
registry is held to this contract by ``tests/test_policy_batch_contract.py``.
"""

from __future__ import annotations

import abc
from typing import NamedTuple

import numpy as np

__all__ = ["KERNEL_UNICEF", "KERNEL_WFP3", "KernelTerms", "Policy"]

#: Formula codes of the compiled kernel's dynamic scoring mode.
KERNEL_WFP3 = 1
KERNEL_UNICEF = 2


class KernelTerms(NamedTuple):
    """Now-independent per-job terms of a compiled dynamic score.

    ``a`` must be finite and positive; ``b`` finite (formulas that do
    not use it may pass ``a`` again).  Both are elementwise per job, so
    slicing them by job index gives the terms of the job subset.
    """

    code: int
    a: np.ndarray
    b: np.ndarray


class Policy(abc.ABC):
    """Base class for queue-ordering policies.

    Attributes
    ----------
    name:
        Display name used in tables and results.
    dynamic:
        ``True`` when the score depends on the current time (e.g. through
        the waiting time ``w = now - submit``).  Static policies are
        scored once at arrival; dynamic ones are re-scored every
        rescheduling event.
    """

    name: str = "policy"
    dynamic: bool = False

    @abc.abstractmethod
    def scores(
        self,
        now: float,
        submit: np.ndarray,
        proc: np.ndarray,
        size: np.ndarray,
    ) -> np.ndarray:
        """Vectorized scores; lower runs first.

        Parameters
        ----------
        now:
            Current simulation time (ignored by static policies).
        submit, proc, size:
            Attribute arrays of the queued jobs: arrival time ``s``,
            known processing time (``r`` or ``e``), and core count ``n``.
        """

    def score_job(self, now: float, submit: float, proc: float, size: int) -> float:
        """Scalar convenience wrapper around :meth:`scores`."""
        out = self.scores(
            now,
            np.asarray([submit], dtype=float),
            np.asarray([proc], dtype=float),
            np.asarray([size], dtype=float),
        )
        return float(out[0])

    def kernel_terms(self, proc: np.ndarray, size: np.ndarray) -> KernelTerms | None:
        """Now-independent terms for compiled dynamic scoring, or ``None``.

        ``None`` (the default) keeps a dynamic policy on the kernel's
        Python loop, which calls :meth:`scores` once per scheduling pass.
        """
        return None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r}, dynamic={self.dynamic})"
