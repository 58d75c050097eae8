"""Fixed-priority list scheduler — the trial simulator of §3.2.

During the training phase the paper simulates, for every permutation ``p``
of the probe set ``Q``, the execution of warm-up jobs ``S`` followed by
``Q`` where the waiting queue is ordered by the permutation.  No
backfilling is applied and the queue head blocks: a lower-priority job can
never overtake the highest-priority *arrived* job, even if it would fit.

Two functions run it over the unified event kernel
(:mod:`repro.sim.kernel`), with a priority vector as the kernel's
static score.  :func:`simulate_fixed_priority_batch` is the general
simulator: it validates the jobs and computes their arrival order once,
then runs each priority row through
:func:`~repro.sim.kernel.simulate_events`.  Training calls
:func:`simulate_trials`: its trials share more than the job set — S
outranks Q in every permutation, so everything up to the first pass
with a probe job at the queue head is the same in each trial.  The C
kernel (``repro_trial_batch``) schedules that prefix once per batch,
resumes every permutation from it, and returns Eq. 1/2 per trial rather
than a starts matrix; a batch whose first trial never leaves a job
queued across events gives every trial that first value.  Both check
the jobs against :class:`~repro.sim.job.Workload`'s rules first, naming
the first bad job: a NaN runtime would never complete in C, and a NaN
priority never sorts.

The semantics are deliberately identical to the online engine running a
static "priority" policy — ``tests/test_sim_engine_properties.py`` cross-checks
the two implementations on random instances, and
``tests/test_sim_kernel_parity.py`` pins the kernel against the retained
pre-kernel loop bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.obs.metrics import current_registry
from repro.sim import _cbackend
from repro.sim.job import as_sizes
from repro.sim.kernel import simulate_events, validate_scores
from repro.sim.metrics import DEFAULT_TAU
from repro.util.validation import check_positive, check_positive_int

__all__ = ["simulate_fixed_priority_batch", "simulate_trials"]


def _validated_jobs(submit, runtime, size, nmax):
    """Check the job arrays against :class:`~repro.sim.job.Workload`'s
    rules (sizes whole numbers, as :func:`~repro.sim.job.as_sizes`
    checks), naming the first bad job; returns them as kernel-ready
    arrays, and *nmax* as an ``int``."""
    nmax = check_positive_int("nmax", nmax)
    submit = np.ascontiguousarray(submit, dtype=np.float64)
    runtime = np.ascontiguousarray(runtime, dtype=np.float64)
    size = as_sizes(size)
    if not (len(runtime) == len(size) == len(submit)):
        raise ValueError("attribute arrays must share one length")
    for name, arr, ok, need in (
        ("submit", submit, np.isfinite(submit) & (submit >= 0), "finite and >= 0"),
        ("runtime", runtime, np.isfinite(runtime) & (runtime > 0), "finite and > 0"),
        ("size", size, size >= 1, ">= 1"),
    ):
        if not ok.all():
            job = int(np.argmin(ok))
            raise ValueError(f"job {job}: {name} must be {need}, got {arr[job].item()!r}")
    if len(size) and int(size.max()) > nmax:
        worst = int(np.argmax(size))
        raise ValueError(
            f"job {worst} needs {int(size[worst])} cores"
            f" but the machine has only {nmax}"
        )
    return submit, runtime, size, nmax


def _priority_starts(submit, runtime, size, priorities, nmax) -> np.ndarray:
    """One head-blocking run per priority row over validated jobs (no
    telemetry); returns the ``(n_trials, m)`` start-time matrix."""
    out = np.empty(priorities.shape, dtype=np.float64)
    order = np.argsort(submit, kind="stable")
    for t, row in enumerate(priorities):
        out[t] = simulate_events(
            submit, runtime, runtime, size, nmax,
            static_scores=row, arrival_order=order, score_label="priority",
        ).start
    return out


def simulate_fixed_priority_batch(
    submit: np.ndarray,
    runtime: np.ndarray,
    size: np.ndarray,
    priorities: np.ndarray,
    nmax: int,
) -> np.ndarray:
    """Head-blocking priority scheduling of one job set, once per row of
    *priorities*; returns the ``(n_trials, m)`` start-time matrix.

    Row ``t`` ranks the jobs of trial ``t``: lower runs first, ties
    broken by submit time then index.  The jobs must follow
    :class:`~repro.sim.job.Workload`'s rules (finite ``submit >= 0``,
    finite ``runtime > 0``, ``1 <= size <= nmax``) and *nmax* must be a
    positive integer; a bad job or a NaN priority raises
    :class:`ValueError` naming it (and the trial).  The jobs are checked
    and their arrival order computed once, then each row is one
    :func:`~repro.sim.kernel.simulate_events` run.  Telemetry counts
    each row as one ``listsched.trials``.
    """
    priorities = np.ascontiguousarray(priorities, dtype=np.float64)
    if priorities.ndim != 2:
        raise ValueError("priorities must have shape (n_trials, n_jobs)")
    if priorities.shape[1] != len(submit):
        raise ValueError("attribute arrays must share one length")
    submit, runtime, size, nmax = _validated_jobs(submit, runtime, size, nmax)
    validate_scores(priorities, "priority")
    n_trials, m = priorities.shape
    out = _priority_starts(submit, runtime, size, priorities, nmax)

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
    starts = _priority_starts(submit, runtime, size, priorities, nmax)
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
    trial from there; when the first trial shows that no probe order can
    matter (no job stays queued across events after the prefix), every
    other trial takes its value without being simulated.  Under
    ``REPRO_SIM_KERNEL=python`` the priority matrix runs row by row as
    in :func:`simulate_fixed_priority_batch` and numpy reduces the
    starts.  The jobs are checked as there; a *perms* row that is not a
    permutation of ``0..m_q-1`` raises :class:`ValueError` naming the
    trial, shared or not.  Telemetry counts ``n_trials`` trials of
    ``n_warm + m_q`` jobs, as the priority batch would, and the trials
    answered without simulation as ``listsched.trials_shared``.
    """
    submit, runtime, size, nmax = _validated_jobs(submit, runtime, size, nmax)
    m = len(submit)
    if not 0 <= n_warm < m:
        raise ValueError(f"n_warm={n_warm} must leave at least one of {m} jobs as a probe")
    m_q = m - n_warm
    perms = np.ascontiguousarray(perms, dtype=np.int64)
    if perms.ndim != 2 or perms.shape[1] != m_q:
        raise ValueError(f"perms must have shape (n_trials, {m_q})")
    tau = check_positive("tau", tau)
    n_trials = perms.shape[0]
    backend = _cbackend.selected()
    shared = 0
    if backend is None:
        out = _trials_numpy(submit, runtime, size, perms, nmax, n_warm, tau)
    else:
        out = np.empty(n_trials, dtype=np.float64)
        order = np.argsort(submit, kind="stable")
        bad, shared = backend.trial_batch(
            submit, runtime, size, perms, order, n_warm, nmax, tau, out
        )
        if bad >= 0:
            raise _not_a_permutation(bad, m_q)

    registry = current_registry()
    registry.inc("listsched.trials", n_trials)
    registry.inc("listsched.jobs", n_trials * m)
    registry.inc("listsched.trials_shared", shared)

    return out
