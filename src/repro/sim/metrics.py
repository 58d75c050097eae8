"""Scheduling metrics.

Implements the paper's objective function — the bounded slowdown of Eq. (1)
and its average over a task sequence, Eq. (2) — plus the auxiliary
quantities (waits, utilization, makespan) used in tests and ablations.

All functions are vectorized over numpy arrays and pure: they take
schedule outcomes as plain arrays so they can score results from either
the online engine or the fixed-priority trial simulator.
"""

from __future__ import annotations

import numpy as np

from repro.util.validation import check_positive

__all__ = [
    "DEFAULT_TAU",
    "bounded_slowdown",
    "average_bounded_slowdown",
    "waiting_times",
    "utilization",
    "makespan",
]

#: The paper uses ``tau = 10 s`` to stop tiny jobs from dominating slowdowns.
DEFAULT_TAU = 10.0


def waiting_times(submit: np.ndarray, start: np.ndarray) -> np.ndarray:
    """Per-job waiting time :math:`w_t = start_t - s_t` (validated >= 0)."""
    submit = np.asarray(submit, dtype=float)
    start = np.asarray(start, dtype=float)
    wait = start - submit
    if wait.size and float(wait.min()) < -1e-9:
        bad = int(np.argmin(wait))
        raise ValueError(
            f"negative wait at job index {bad}: start={start[bad]} < submit={submit[bad]}"
        )
    return np.maximum(wait, 0.0)


def bounded_slowdown(
    wait: np.ndarray, runtime: np.ndarray, tau: float = DEFAULT_TAU
) -> np.ndarray:
    """Eq. (1): ``max((w + r) / max(r, tau), 1)`` per job."""
    tau = check_positive("tau", tau)
    wait = np.asarray(wait, dtype=float)
    runtime = np.asarray(runtime, dtype=float)
    return np.maximum((wait + runtime) / np.maximum(runtime, tau), 1.0)


def average_bounded_slowdown(
    wait: np.ndarray, runtime: np.ndarray, tau: float = DEFAULT_TAU
) -> float:
    """Eq. (2): the mean of Eq. (1) over a task sequence."""
    wait = np.asarray(wait, dtype=float)
    if wait.size == 0:
        raise ValueError("average bounded slowdown of an empty sequence is undefined")
    return float(bounded_slowdown(wait, runtime, tau).mean())


def makespan(start: np.ndarray, runtime: np.ndarray) -> float:
    """Completion time of the last job (0 for empty schedules)."""
    start = np.asarray(start, dtype=float)
    if start.size == 0:
        return 0.0
    return float(np.max(start + np.asarray(runtime, dtype=float)))


def utilization(
    start: np.ndarray,
    runtime: np.ndarray,
    size: np.ndarray,
    nmax: int,
    *,
    horizon: float | None = None,
) -> float:
    """Delivered utilization: consumed core-seconds over machine capacity.

    *horizon* defaults to the schedule makespan measured from t=0.
    """
    start = np.asarray(start, dtype=float)
    runtime = np.asarray(runtime, dtype=float)
    size = np.asarray(size, dtype=float)
    if start.size == 0:
        return 0.0
    if horizon is None:
        horizon = makespan(start, runtime)
    if horizon <= 0:
        raise ValueError("horizon must be > 0")
    return float(np.sum(runtime * size) / (nmax * horizon))

