"""Fixed-priority list scheduler — the trial simulator of §3.2.

During the training phase the paper simulates, for every permutation ``p``
of the probe set ``Q``, the execution of warm-up jobs ``S`` followed by
``Q`` where the waiting queue is ordered by the permutation.  No
backfilling is applied and the queue head blocks: a lower-priority job can
never overtake the highest-priority *arrived* job, even if it would fit.

This is the tight inner loop of training (hundreds of thousands of
trials), so it delegates to the unified event kernel
(:mod:`repro.sim.kernel`): the priority array is the kernel's static
score, and :func:`simulate_fixed_priority_batch` runs many priority
vectors over one shared job set, amortising per-trial setup (arrival
order, scratch allocation) across the batch.  Training calls
:func:`simulate_trials` instead: its trials share more than the job
set — S outranks Q in every permutation, so everything up to the
first pass with a probe job at the queue head is the same in each
trial.  The C kernel schedules that prefix once per batch, resumes
every permutation from it, and returns Eq. 1/2 per trial rather than
a starts matrix.

The semantics are deliberately identical to the online engine running a
static "priority" policy — ``tests/test_sim_engine_properties.py`` cross-checks
the two implementations on random instances, and
``tests/test_sim_kernel_parity.py`` pins the kernel against the retained
pre-kernel loop bit for bit.

NaN priorities raise :class:`ValueError` naming the offending job index:
NaN compares false against everything, so historically it silently
corrupted the waiting-heap order instead of failing.
"""

from __future__ import annotations

import numpy as np

from repro.obs.metrics import current_registry
from repro.sim import _cbackend
from repro.sim.kernel import fixed_priority_batch, fixed_priority_starts, validate_scores
from repro.sim.metrics import DEFAULT_TAU
from repro.util.validation import check_positive

__all__ = ["simulate_fixed_priority", "simulate_fixed_priority_batch", "simulate_trials"]


def _validate_jobs(submit, runtime, size, nmax: int) -> int:
    """Shared argument validation; returns the job count ``m``."""
    m = len(submit)
    if not (len(runtime) == len(size) == m):
        raise ValueError("attribute arrays must share one length")
    if m == 0:
        return 0
    sizes = np.asarray(size)
    worst = int(np.argmax(sizes))
    if int(sizes[worst]) > nmax:
        raise ValueError(
            f"job {worst} needs {int(sizes[worst])} cores"
            f" but the machine has only {nmax}"
        )
    return m


def simulate_fixed_priority(
    submit: np.ndarray,
    runtime: np.ndarray,
    size: np.ndarray,
    priority: np.ndarray,
    nmax: int,
) -> np.ndarray:
    """Simulate head-blocking priority scheduling; return per-job start times.

    Parameters
    ----------
    submit, runtime, size:
        Job attribute arrays (any consistent length ``m``).
    priority:
        Queue rank per job; **lower values run first**.  Ties broken by
        submit time then index (deterministic).  NaN raises
        :class:`ValueError` naming the offending job.
    nmax:
        Machine size in cores.

    Returns
    -------
    ``start`` array of length ``m`` (start[i] >= submit[i]).
    """
    if len(priority) != len(submit):
        raise ValueError("attribute arrays must share one length")
    m = _validate_jobs(submit, runtime, size, nmax)
    if m == 0:
        return np.empty(0, dtype=float)
    priority = np.ascontiguousarray(priority, dtype=np.float64)
    validate_scores(priority, "priority")
    start = fixed_priority_starts(submit, runtime, size, priority, nmax)

    # Telemetry (no-op by default): per *trial*, never per job — this is
    # the training inner loop, so two null method calls per call is the
    # entire disabled-path cost.
    registry = current_registry()
    registry.inc("listsched.trials")
    registry.inc("listsched.jobs", m)

    return start


def simulate_fixed_priority_batch(
    submit: np.ndarray,
    runtime: np.ndarray,
    size: np.ndarray,
    priorities: np.ndarray,
    nmax: int,
) -> np.ndarray:
    """Simulate ``n_trials`` priority vectors over one shared job set.

    *priorities* has shape ``(n_trials, m)``; the result is the
    ``(n_trials, m)`` start-time matrix, row ``t`` bit-identical to
    ``simulate_fixed_priority(..., priorities[t], nmax)``.  Arrival
    order and kernel scratch state are set up once for the whole batch
    instead of once per trial.  Training's permutation trials go through
    :func:`simulate_trials`, which also shares their common prefix.

    Telemetry counts each row as one ``listsched.trials`` increment, so
    counter values match the per-trial loop exactly.
    """
    priorities = np.asarray(priorities)
    if priorities.ndim != 2:
        raise ValueError("priorities must have shape (n_trials, n_jobs)")
    if priorities.shape[1] != len(submit):
        raise ValueError("attribute arrays must share one length")
    m = _validate_jobs(submit, runtime, size, nmax)
    n_trials = priorities.shape[0]
    if m == 0 or n_trials == 0:
        out = np.empty((n_trials, m), dtype=float)
    else:
        out = fixed_priority_batch(submit, runtime, size, priorities, nmax)

    registry = current_registry()
    registry.inc("listsched.trials", n_trials)
    registry.inc("listsched.jobs", n_trials * m)

    return out


def _not_a_permutation(trial: int, m_q: int) -> ValueError:
    return ValueError(
        f"trial {trial}: its perms row is not a permutation of 0..{m_q - 1}"
    )


def _trials_numpy(submit, runtime, size, perms, nmax, n_warm, tau) -> np.ndarray:
    """:func:`simulate_trials` without the C kernel: the priority batch,
    reduced in numpy (the reference the C reduction is pinned to)."""
    n_trials, m_q = perms.shape
    rows_ok = (np.sort(perms, axis=1) == np.arange(m_q)).all(axis=1)
    if not rows_ok.all():
        raise _not_a_permutation(int(np.argmin(rows_ok)), m_q)
    priorities = np.empty((n_trials, n_warm + m_q), dtype=np.float64)
    priorities[:, :n_warm] = np.arange(n_warm)
    q_ranks = (n_warm + np.arange(m_q)).astype(float)[None, :]
    np.put_along_axis(priorities[:, n_warm:], perms, q_ranks, axis=1)
    starts = fixed_priority_batch(submit, runtime, size, priorities, nmax)
    q_submit, q_runtime = submit[n_warm:], runtime[n_warm:]
    wait_q = starts[:, n_warm:] - q_submit
    bsld = np.maximum((wait_q + q_runtime) / np.maximum(q_runtime, tau), 1.0)
    return bsld.mean(axis=1)


def simulate_trials(
    submit: np.ndarray,
    runtime: np.ndarray,
    size: np.ndarray,
    perms: np.ndarray,
    nmax: int,
    *,
    n_warm: int,
    tau: float = DEFAULT_TAU,
) -> np.ndarray:
    """The probe set's ``AVEbsld`` (Eq. 1/2) in each permutation trial.

    Jobs ``0..n_warm-1`` are the warm-up set S and the other ``m_q``
    jobs the probe set Q.  Trial ``k`` ranks S in index order ahead of
    Q, and probe ``perms[k, j]`` at position ``j`` — the priority vector
    ``priorities[k, n_warm + perms[k, j]] = n_warm + j`` of
    :func:`simulate_fixed_priority_batch`.  Returns the ``(n_trials,)``
    array whose entry ``k`` is bit-identical to
    ``np.maximum((start - submit + r) / np.maximum(r, tau), 1.0).mean()``
    over the probe rows of that batch's starts.

    The C kernel schedules the prefix every trial shares once (up to the
    first pass with a probe job at the queue head) and resumes each
    trial from there; under ``REPRO_SIM_KERNEL=python`` the priority
    matrix goes through :func:`~repro.sim.kernel.fixed_priority_batch`
    and numpy reduces the starts.  A *perms* row that is not a
    permutation of ``0..m_q-1`` raises :class:`ValueError` naming the
    trial.  Telemetry counts ``n_trials`` trials of ``n_warm + m_q``
    jobs, as the priority batch would.
    """
    m = _validate_jobs(submit, runtime, size, nmax)
    if not 0 <= n_warm < m:
        raise ValueError(f"n_warm={n_warm} must leave at least one of {m} jobs as a probe")
    m_q = m - n_warm
    perms = np.ascontiguousarray(perms, dtype=np.int64)
    if perms.ndim != 2 or perms.shape[1] != m_q:
        raise ValueError(f"perms must have shape (n_trials, {m_q})")
    tau = check_positive("tau", tau)
    submit = np.ascontiguousarray(submit, dtype=np.float64)
    runtime = np.ascontiguousarray(runtime, dtype=np.float64)
    size = np.ascontiguousarray(size, dtype=np.int64)
    n_trials = perms.shape[0]
    backend = _cbackend.selected()
    if backend is None:
        out = _trials_numpy(submit, runtime, size, perms, nmax, n_warm, tau)
    else:
        out = np.empty(n_trials, dtype=np.float64)
        order = np.argsort(submit, kind="stable")
        bad = backend.trial_batch(
            submit, runtime, size, perms, order, n_warm, nmax, tau, out
        )
        if bad >= 0:
            raise _not_a_permutation(bad, m_q)

    registry = current_registry()
    registry.inc("listsched.trials", n_trials)
    registry.inc("listsched.jobs", n_trials * m)

    return out
