"""Fixed-priority list scheduler — the trial simulator of §3.2.

During the training phase the paper simulates, for every permutation ``p``
of the probe set ``Q``, the execution of warm-up jobs ``S`` followed by
``Q`` where the waiting queue is ordered by the permutation.  No
backfilling is applied and the queue head blocks: a lower-priority job can
never overtake the highest-priority *arrived* job, even if it would fit.

This is the tight inner loop of training (hundreds of thousands of
trials), so it delegates to the unified event kernel
(:mod:`repro.sim.kernel`): the priority array is the kernel's static
score, and a whole batch of trials over one shared job set should go
through :func:`simulate_fixed_priority_batch`, which amortises
per-trial setup (arrival order, scratch allocation) across the batch.

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
from repro.sim.kernel import fixed_priority_batch, fixed_priority_starts, validate_scores

__all__ = ["simulate_fixed_priority", "simulate_fixed_priority_batch"]


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
    ``simulate_fixed_priority(..., priorities[t], nmax)``.  This is the
    training fast path: arrival order and kernel scratch state are set
    up once for the whole batch instead of once per trial.

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
