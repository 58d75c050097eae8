"""Permutation trials and task scores (§3.2, Eq. 3).

For a tuple ``(S, Q)`` the paper simulates many *trials*: pairs ``(S, p)``
where ``p`` is a random permutation of ``Q`` used as the waiting-queue
priority order.  Each trial yields the average bounded slowdown of the
probe set; the **score** of a task ``t`` is the share of total slowdown
mass carried by the trials where ``t`` heads the permutation:

.. math::

   score(t) = \\frac{\\sum_{p_j \\in P(t_0=t)} AVEbsld(p_j)}
                    {\\sum_{p_k \\in P} AVEbsld(p_k)}

Tasks with lower score improve the queue's slowdown when run first.

Permutations are generated in *balanced blocks* (every task heads exactly
one permutation per block), which stratifies Eq. 3's estimator: the
denominator is identical in expectation for all tasks, scores sum exactly
to 1, and the variance at a given trial budget drops — Figure 2's
convergence study is reproduced on this estimator.

The permutation matrix goes to :func:`repro.sim.listsched.simulate_trials`
in chunks, which returns each trial's ``AVEbsld`` (Eq. 1/2) directly: the
warm-up set S is scheduled once per chunk and only the probe set's part
runs per trial, and not even that when the chunk's first trial shows
that the probe order cannot change a start.  The result is bit-identical
to simulating every trial's priority vector and reducing the starts in
numpy, which ``tests/oracle_trials.py`` still does.  With the C kernel
the matrix itself is drawn in C from the generator's own bit stream,
the same draws ``Generator.permuted`` makes.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from repro.core.taskgen import TaskSetTuple
from repro.sim import _cbackend
# Still bound here: perfbench/layers.py wraps it as the sim.listsched layer.
from repro.sim.listsched import simulate_fixed_priority_batch  # noqa: F401
from repro.sim.listsched import simulate_trials
from repro.sim.metrics import DEFAULT_TAU
from repro.util.rng import SeedLike, as_generator
from repro.util.validation import check_positive_int

#: Trials per :func:`~repro.sim.listsched.simulate_trials` call.  Bounds
#: the per-chunk priority/start matrices of the numpy fallback (CHUNK x
#: |S|+|Q| float64); results are chunk-size independent because trials
#: are mutually independent.
_TRIAL_CHUNK = 16384

__all__ = ["TrialScoreResult", "balanced_trial_count", "run_trials"]


@dataclass(frozen=True)
class TrialScoreResult:
    """Scores of one tuple's probe set plus per-trial raw material.

    Attributes
    ----------
    runtime, size, submit:
        Attributes of the |Q| probe tasks (feature columns of the
        training observations).
    scores:
        Eq. 3 score per probe task (sums to 1 for balanced trials).
    first_task:
        Index into Q of the permutation head, per trial.
    trial_avebsld:
        ``AVEbsld`` of each trial.
    """

    runtime: np.ndarray
    size: np.ndarray
    submit: np.ndarray
    scores: np.ndarray
    first_task: np.ndarray
    trial_avebsld: np.ndarray

    @property
    def n_trials(self) -> int:
        """Number of simulated permutations."""
        return len(self.trial_avebsld)

    def observations(self) -> np.ndarray:
        """The (r, n, s, score) rows this tuple contributes to training."""
        return np.column_stack([self.runtime, self.size, self.submit, self.scores])


def _balanced_heads(n_trials: int, q_size: int) -> int:
    """Round the trial budget to whole balanced blocks (>= 1 block)."""
    blocks = max(n_trials // q_size, 1)
    return blocks


def balanced_trial_count(n_trials: int, q_size: int) -> int:
    """The trial count actually run after balanced-block rounding.

    Callers (e.g. the parallel runtime) use this to detect — and warn
    about — the rounding before dispatching work.
    """
    return _balanced_heads(n_trials, q_size) * q_size


#: Prefix of the rounding warning (kept stable so dispatchers that warn
#: up front can suppress the per-tuple duplicates by message match).
ROUNDING_WARNING_PREFIX = "balanced trials run in whole blocks"


def format_rounding_warning(n_trials: int, q_size: int) -> str:
    """The rounding warning text, shared by run_trials and dispatchers."""
    n_blocks = _balanced_heads(n_trials, q_size)
    return (
        f"{ROUNDING_WARNING_PREFIX} of |Q|={q_size}: "
        f"n_trials={n_trials} adjusted to {n_blocks * q_size} "
        f"({n_blocks} block(s))"
    )


def _draw_permutations(
    rng: np.random.Generator, m_q: int, total: int, *, balanced: bool
) -> np.ndarray:
    """The ``(total, m_q)`` permutation matrix: row k is trial k's queue order.

    Balanced rows cycle through the heads ``0, 1, ..., m_q - 1`` (*total*
    must then be a multiple of *m_q*) and shuffle the other tasks behind
    them; unbalanced rows are uniform permutations of Q.

    ``Generator.permuted(..., axis=1)`` shuffles the rows in order with
    the draws a per-row ``Generator.shuffle`` makes, so this one call
    yields the same matrix and leaves the generator in the same state as
    the per-trial loop that seeded results were first produced with
    (``tests/oracle_trials.py``).  That equivalence is a numpy
    implementation property; ``TestPermutationOracle`` in
    ``tests/test_core_trials.py`` pins it.  The C kernel makes the same
    draws from *rng*'s own bit generator (``repro_draw_perms``) without a
    call per row; the numpy path below is its reference and runs under
    ``REPRO_SIM_KERNEL=python``.
    """
    backend = _cbackend.selected()
    if backend is not None:
        return backend.draw_permutations(rng, total, m_q, balanced=balanced)
    if balanced:
        heads = np.arange(m_q)
        rest = np.arange(m_q - 1)
        tails = rest + (rest >= heads[:, None])  # tails[h] = Q without h
        P = np.empty((total, m_q), dtype=np.int64)
        P[:, 0] = np.tile(heads, total // m_q)
        P[:, 1:] = tails[P[:, 0]]
        rng.permuted(P[:, 1:], axis=1, out=P[:, 1:])
    else:
        P = np.tile(np.arange(m_q, dtype=np.int64), (total, 1))
        rng.permuted(P, axis=1, out=P)
    return P


def run_trials(
    tup: TaskSetTuple,
    nmax: int,
    n_trials: int,
    *,
    seed: SeedLike = None,
    balanced: bool = True,
    tau: float = DEFAULT_TAU,
) -> TrialScoreResult:
    """Run permutation trials for one (S, Q) tuple and score its tasks.

    Parameters
    ----------
    tup:
        The task-set tuple; S jobs always outrank Q jobs in the queue
        (they model the machine's initial state).
    nmax:
        Machine size (the paper uses 256 cores for training).
    n_trials:
        Trial budget.  With *balanced* (default) the budget is rounded
        down to a multiple of |Q| (at least one block) so every task
        heads the same number of permutations: the actual trial count is
        ``max(n_trials // len(Q), 1) * len(Q)``.  In particular,
        ``n_trials < len(Q)`` collapses to a single block of ``len(Q)``
        trials.  A :class:`UserWarning` is emitted whenever the rounded
        count differs from the requested budget.
    seed, tau:
        Reproducibility / Eq. 1 constant.

    Notes
    -----
    Within a trial the queue order is: all of S (by arrival), then Q by
    permutation position.  Jobs still only start once they have arrived
    and the queue head blocks (no backfilling) — see
    :mod:`repro.sim.listsched`.
    """
    check_positive_int("nmax", nmax)
    check_positive_int("n_trials", n_trials)
    rng = as_generator(seed)

    S, Q = tup.S, tup.Q
    m_s, m_q = len(S), len(Q)
    submit = np.concatenate([S.submit, Q.submit])
    runtime = np.concatenate([S.runtime, Q.runtime])
    size = np.concatenate([S.size, Q.size]).astype(np.int64)

    q_submit = Q.submit
    q_runtime = Q.runtime

    if balanced:
        n_blocks = _balanced_heads(n_trials, m_q)
        if n_blocks * m_q != n_trials:
            warnings.warn(format_rounding_warning(n_trials, m_q), stacklevel=2)
        total = n_blocks * m_q
    else:
        total = n_trials
    P = _draw_permutations(rng, m_q, total, balanced=balanced)

    trial_avebsld = np.empty(total, dtype=float)
    for lo in range(0, total, _TRIAL_CHUNK):
        trial_avebsld[lo : lo + _TRIAL_CHUNK] = simulate_trials(
            submit, runtime, size, P[lo : lo + _TRIAL_CHUNK], nmax, n_warm=m_s, tau=tau
        )

    first_task = P[:, 0].copy()
    sum_by_first = np.zeros(m_q, dtype=float)
    # np.add.at applies increments in index order — the same accumulation
    # order as the historical sequential loop, so the float sums match.
    np.add.at(sum_by_first, first_task, trial_avebsld)

    denom = trial_avebsld.sum()
    scores = sum_by_first / denom

    return TrialScoreResult(
        runtime=q_runtime.copy(),
        size=Q.size.astype(float).copy(),
        submit=q_submit.copy(),
        scores=scores,
        first_task=first_task,
        trial_avebsld=trial_avebsld,
    )
