"""EASY aggressive backfilling (Mu'alem & Feitelson, 2001) — reference.

Plain-array reference implementation of the EASY pass.  The unified
event loop (``repro.sim.kernel``, both the vectorised Python path and
the C backend) inlines the same shadow arithmetic for speed; only tests
call these functions: ``tests/test_sim_backfill.py`` property-tests the
"head never delayed" invariant here, and ``tests/test_sim_hybrid.py``
uses them as the EASY side of its mode comparisons.

Scheduling decisions (including the shadow-time computation) use the
*requested* processing time (the user estimate ``e``) when the
experiment runs in estimate mode; actual runtimes are only used to
simulate execution, exactly as in the paper.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

__all__ = ["easy_backfill", "shadow_schedule"]


def shadow_schedule(
    now: float,
    free: int,
    head_size: int,
    running_end: Sequence[float],
    running_size: Sequence[int],
) -> tuple[float, int]:
    """Compute the EASY reservation for the (blocked) queue head.

    Returns ``(shadow, extra)`` where *shadow* is the earliest time the
    head is guaranteed to start (based on expected completions of running
    jobs) and *extra* is the number of cores that will still be free at
    that moment after the head starts.  Backfilled jobs that outlive the
    shadow time may use at most *extra* cores.

    Raises :class:`ValueError` when the head can *never* start — i.e.
    ``head_size`` exceeds the cores the machine can ever free.  Callers
    that validate their workload against the machine size up front
    (:meth:`repro.sim.job.Workload.validate_for_machine`, which the
    engine applies on entry) never trigger this.
    """
    if head_size <= free:
        raise ValueError("head fits now; no reservation needed")
    if len(running_end) != len(running_size):
        raise ValueError("running_end and running_size must share a length")
    events = sorted(
        (max(float(e), now), int(s)) for e, s in zip(running_end, running_size)
    )
    avail = free
    for end, size in events:
        avail += size
        if avail >= head_size:
            return end, avail - head_size
    raise ValueError(
        f"queue head requests {head_size} cores but at most {avail} can ever"
        " become free; validate the workload against the machine size"
        " (Workload.validate_for_machine) before scheduling"
    )


def easy_backfill(
    now: float,
    free: int,
    head_size: int,
    candidates: Sequence[int],
    cand_size: Sequence[int],
    cand_proc: Sequence[float],
    running_end: Sequence[float],
    running_size: Sequence[int],
) -> list[int]:
    """Select queue jobs (behind the head) that may start immediately.

    Parameters
    ----------
    now:
        Current simulation time.
    free:
        Idle cores right now (insufficient for the head by construction).
    head_size:
        Cores requested by the blocked queue head.
    candidates:
        Job indices *in queue priority order*, excluding the head.
    cand_size, cand_proc:
        Cores and (requested) processing time per candidate, aligned with
        *candidates*.
    running_end, running_size:
        Expected completion time and size of every running job.

    Returns
    -------
    The sub-list of *candidates* to start now, in priority order.  A
    candidate is started when it fits in the currently free cores and
    either finishes by the shadow time or fits within the *extra* cores,
    so the head's reservation is never disturbed.
    """
    shadow, extra = shadow_schedule(now, free, head_size, running_end, running_size)
    started: list[int] = []
    for idx, size, proc in zip(candidates, cand_size, cand_proc):
        size = int(size)
        if size > free:
            continue
        if now + float(proc) <= shadow + 1e-9:
            # Finishes before the head's reservation: uses cores that are
            # free now and returns them in time; `extra` is untouched.
            started.append(idx)
            free -= size
        elif size <= extra:
            # Outlives the reservation: may only consume cores the head
            # will not need at shadow time.
            started.append(idx)
            free -= size
            extra -= size
        if free == 0:
            break
    assert free >= 0 and extra >= 0
    assert math.isfinite(shadow) or not started
    return started
