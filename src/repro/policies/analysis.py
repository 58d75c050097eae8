"""Policy-space analysis: how differently do policies order a queue?

The paper's Figure 3 visualises each policy's priority structure; this
module quantifies the *pairwise* structure — the rank agreement between
two policies over a job population.  Uses:

* explain results ("F3 behaves like FCFS on short windows because its
  orderings agree at tau > 0.9"),
* regression-test that learned policies are not accidental clones of a
  baseline,
* pick a diverse policy portfolio for an installation.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from repro.policies.base import Policy
from repro.sim.job import Workload

__all__ = ["policy_scores", "agreement_matrix", "kendall_tau"]


def _tied_pairs(changes: np.ndarray) -> int:
    """Pairs inside the runs of a sorted sequence, given where it changes.

    *changes* holds ``seq[1:] != seq[:-1]``; a run of length t has
    t·(t-1)/2 pairs.
    """
    edges = np.flatnonzero(changes) + 1
    runs = np.diff(np.concatenate(([0], edges, [changes.size + 1])))
    return int((runs * (runs - 1) // 2).sum())


def _inversions(ranks: np.ndarray) -> int:
    """Pairs ``i < j`` with ``ranks[i] > ranks[j]``, by a bottom-up merge sort.

    *ranks* are integers in ``[0, n)``.  At each level a merged pair of
    blocks is sorted at once by the key ``pair·m + rank``, and every
    right-block entry counts the larger entries of its left block with
    two binary searches, so a level costs O(n log n) numpy work.
    """
    n = ranks.size
    m = int(ranks.max()) + 1
    pos = np.arange(n)
    values = ranks.astype(np.int64)
    total = 0
    width = 1
    while width < n:
        block = pos // width
        pair = block // 2
        key = pair * m + values
        right = block % 2 == 1
        left_keys = key[~right]  # sorted: sorted blocks in pair order
        above = np.searchsorted(left_keys, (pair[right] + 1) * m)
        upto = np.searchsorted(left_keys, key[right], side="right")
        total += int((above - upto).sum())
        values = np.sort(key) - pair * m
        width *= 2
    return total


def kendall_tau(x: np.ndarray, y: np.ndarray) -> float:
    """Kendall's tau-b of two equal-length samples, ties accounted for.

    O(n log² n) time and O(n) memory.  NaN when either sample is
    constant (or has fewer than two entries) or holds a NaN, as
    ``scipy.stats.kendalltau`` returns.
    """
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    if x.size != y.size:
        raise ValueError(f"samples differ in length: {x.size} != {y.size}")
    if x.size < 2 or np.isnan(x).any() or np.isnan(y).any():
        return float("nan")
    order = np.lexsort((y, x))
    x, y = x[order], y[order]
    pairs = x.size * (x.size - 1) // 2
    x_changes = x[1:] != x[:-1]
    y_sorted = np.sort(y)
    x_ties = _tied_pairs(x_changes)
    y_ties = _tied_pairs(y_sorted[1:] != y_sorted[:-1])
    joint_ties = _tied_pairs(x_changes | (y[1:] != y[:-1]))
    # y in (x, y) order: an inversion is a discordant pair, since tied x
    # are sorted by y; untied pairs are concordant or discordant
    discordant = _inversions(np.searchsorted(y_sorted, y))
    denom = math.sqrt(float(pairs - x_ties) * float(pairs - y_ties))
    if denom == 0.0:
        return float("nan")
    concordant_minus = pairs - x_ties - y_ties + joint_ties - 2 * discordant
    return min(1.0, max(-1.0, concordant_minus / denom))


def policy_scores(
    policy: Policy,
    workload: Workload,
    *,
    now: float | None = None,
    use_estimates: bool = False,
) -> np.ndarray:
    """Score every job of *workload* as one static queue snapshot.

    *now* defaults to just after the last arrival, so waiting-time-based
    (dynamic) policies see the waits they would at a real rescheduling
    event.
    """
    if len(workload) == 0:
        raise ValueError("empty workload")
    if now is None:
        now = float(workload.submit[-1]) + 1.0
    proc = workload.estimate if use_estimates else workload.runtime
    return policy.scores(now, workload.submit, proc, workload.size.astype(float))


def agreement_matrix(
    policies: Sequence[Policy],
    workload: Workload,
    *,
    now: float | None = None,
    use_estimates: bool = False,
) -> tuple[list[str], np.ndarray]:
    """Pairwise Kendall-tau matrix over *policies*.

    Returns ``(names, matrix)`` with ``matrix[i, j] = tau(policies[i],
    policies[j])``; the diagonal is 1 by construction.
    """
    if not policies:
        raise ValueError("no policies given")
    scores = [
        policy_scores(p, workload, now=now, use_estimates=use_estimates)
        for p in policies
    ]
    k = len(policies)
    mat = np.eye(k)
    for i in range(k):
        for j in range(i + 1, k):
            tau = kendall_tau(scores[i], scores[j])
            mat[i, j] = mat[j, i] = tau
    return [p.name for p in policies], mat
