"""Frozen per-trial permutation loop — the oracle for the trial draw.

``repro.core.trials.run_trials`` first built its permutation matrix one
row at a time: per balanced trial a tail copy and an in-place
``Generator.shuffle``, per unbalanced trial a ``Generator.permutation``.
Every seeded training result was produced with that stream order.  The
live module now draws the whole matrix with one ``Generator.permuted``
call, which numpy implements as the same per-row shuffles in row order.
``tests/test_core_trials.py::TestPermutationOracle`` holds it to this
module: the same matrix, the same final generator state, and the same
scores bit for bit.

``oracle_run_trials`` is ``run_trials`` as it stood with the loop,
verbatim apart from the draw moving into ``oracle_permutations`` and
the plain ``OracleTrials`` container it returns its arrays in (the
library's result no longer keeps the per-trial ones).  Do not "clean
up" or optimise this file — its only value is that it does not change.
"""

from __future__ import annotations

import warnings
from typing import NamedTuple

import numpy as np

from repro.core.taskgen import TaskSetTuple
from repro.core.trials import (
    _TRIAL_CHUNK,
    _balanced_heads,
    format_rounding_warning,
)
from repro.sim.listsched import simulate_fixed_priority_batch
from repro.sim.metrics import DEFAULT_TAU
from repro.util.rng import SeedLike, as_generator
from repro.util.validation import check_positive, check_positive_int

__all__ = ["OracleTrials", "oracle_permutations", "oracle_run_trials"]


class OracleTrials(NamedTuple):
    """Scores of one tuple's probe set plus per-trial raw material."""

    runtime: np.ndarray
    size: np.ndarray
    submit: np.ndarray
    scores: np.ndarray
    first_task: np.ndarray  # index into Q of the permutation head, per trial
    trial_avebsld: np.ndarray  # AVEbsld of each trial


def oracle_permutations(
    rng: np.random.Generator, m_q: int, total: int, *, balanced: bool
) -> np.ndarray:
    """The historical per-row draw of the ``(total, m_q)`` permutation matrix."""
    if balanced:
        n_blocks = total // m_q
        all_tasks = np.arange(m_q)
        tails = [np.delete(all_tasks, head) for head in range(m_q)]
        P = np.empty((total, m_q), dtype=np.int64)
        k = 0
        for _ in range(n_blocks):
            for head in range(m_q):
                P[k, 0] = head
                P[k, 1:] = tails[head]
                rng.shuffle(P[k, 1:])  # contiguous row view: same stream
                k += 1
    else:
        P = np.empty((total, m_q), dtype=np.int64)
        for k in range(total):
            P[k] = rng.permutation(m_q)
    return P


def oracle_run_trials(
    tup: TaskSetTuple,
    nmax: int,
    n_trials: int,
    *,
    seed: SeedLike = None,
    balanced: bool = True,
    tau: float = DEFAULT_TAU,
) -> OracleTrials:
    """``run_trials`` with the per-row permutation loop."""
    check_positive_int("nmax", nmax)
    check_positive_int("n_trials", n_trials)
    rng = as_generator(seed)

    S, Q = tup.S, tup.Q
    m_s, m_q = len(S), len(Q)
    submit = np.concatenate([S.submit, Q.submit])
    runtime = np.concatenate([S.runtime, Q.runtime])
    size = np.concatenate([S.size, Q.size]).astype(np.int64)
    if int(size.max()) > nmax:
        raise ValueError("tuple contains a job larger than the machine")

    q_submit = Q.submit
    q_runtime = Q.runtime

    if balanced:
        n_blocks = _balanced_heads(n_trials, m_q)
        if n_blocks * m_q != n_trials:
            warnings.warn(format_rounding_warning(n_trials, m_q), stacklevel=2)
        total = n_blocks * m_q
    else:
        total = n_trials
    P = oracle_permutations(rng, m_q, total, balanced=balanced)

    m = m_s + m_q
    trial_avebsld = np.empty(total, dtype=float)
    q_ranks = (m_s + np.arange(m_q)).astype(float)[None, :]
    tau = check_positive("tau", tau)
    for lo in range(0, total, _TRIAL_CHUNK):
        hi = min(lo + _TRIAL_CHUNK, total)
        priorities = np.empty((hi - lo, m), dtype=np.float64)
        priorities[:, :m_s] = np.arange(m_s)
        np.put_along_axis(priorities[:, m_s:], P[lo:hi], q_ranks, axis=1)
        starts = simulate_fixed_priority_batch(
            submit, runtime, size, priorities, nmax
        )
        wait_q = starts[:, m_s:] - q_submit
        bsld = np.maximum((wait_q + q_runtime) / np.maximum(q_runtime, tau), 1.0)
        trial_avebsld[lo:hi] = bsld.mean(axis=1)

    first_task = P[:, 0].copy()
    sum_by_first = np.zeros(m_q, dtype=float)
    np.add.at(sum_by_first, first_task, trial_avebsld)

    denom = trial_avebsld.sum()
    scores = sum_by_first / denom

    return OracleTrials(
        runtime=q_runtime.copy(),
        size=Q.size.astype(float).copy(),
        submit=q_submit.copy(),
        scores=scores,
        first_task=first_task,
        trial_avebsld=trial_avebsld,
    )
