"""Conservative backfilling (Mu'alem & Feitelson, 2001 — the strict variant).

EASY (inline in :mod:`repro.sim.kernel`) reserves only for the queue head;
*conservative* backfilling gives **every** queued job a reservation, and a
job may jump the queue only if it delays none of them.  The paper
evaluates EASY (its production target — SLURM et al.), but conservative
backfilling is the standard strictness ablation, so the library ships it
as an engine mode (``backfill="conservative"``) with its own bench.

Implementation (the reference): a replan-from-scratch pass.  At every
scheduling event an :class:`AvailabilityProfile` is built from the
running jobs' expected completions; queued jobs, in priority order, each
reserve the earliest slot that fits them for their whole (requested)
duration.  Jobs whose reservation begins *now* start immediately — that
includes both the queue head and any backfill candidate that slots into
a hole without moving an earlier reservation (earlier-priority jobs
reserved first, so later reservations can never displace them).

:func:`conservative_starts` is the one replan pass.  With a reservation
*depth* it is *hybrid* backfilling (``backfill="hybrid"``): the first
:data:`HYBRID_RESERVATION_DEPTH` queued jobs get conservative-style
reservations, and a job further back is tested only for a start now,
reserving then and otherwise waiting unreserved.  EASY and conservative
are its two limits — depth 1 approximates EASY, depth ≥ queue length
*is* conservative (an identity the oracle tests pin).  The pass stops
once the smallest remaining queued size exceeds the level at now (the
free cores): the jobs that start now are its only output, and no later
job can be one.

The C backend's replan pass (:mod:`repro.sim._cbackend`) is a
transcription of this one, step for step and epsilon for epsilon: the
same profile build, the same earliest-start scan (which resumes past
each blocker), the same breakpoint merge and the same early stop.
Under conservative backfilling with static scores C also keeps the
profile and the reservations it made from one event to the next, as
Mu'alem & Feitelson describe, and rebuilds them only where a kept plan
could differ from this replan: a job ending off its planned end, an
arrival ranked inside the plan, or two breakpoints within 2e-12
(:mod:`repro.sim._cbackend` has the proof).  Both backends produce the
same bits.

Scheduling decisions use the *requested* processing time (the user
estimate ``e``) when the experiment runs in estimate mode; actual
runtimes are only used to simulate execution, exactly as in the paper.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections.abc import Sequence
from itertools import accumulate

__all__ = [
    "AvailabilityProfile",
    "HYBRID_RESERVATION_DEPTH",
    "conservative_starts",
]

#: How many queue-front jobs hold a reservation under hybrid backfilling.
#: Between EASY's single head reservation (starvation-prone tail) and
#: conservative's everyone-reserved (little backfilling), a small fixed
#: depth protects the first few jobs while the tail stays aggressive.
HYBRID_RESERVATION_DEPTH = 4


class AvailabilityProfile:
    """Piecewise-constant future availability of a cluster.

    Maintains breakpoints ``(time, free_cores)`` with the convention that
    ``free(t) = level of the last breakpoint <= t``; the profile extends
    to infinity at full capacity after the final running job completes.
    The first breakpoint is the profile's start, so its level is the free
    cores now.
    """

    __slots__ = ("nmax", "_times", "_free")

    def __init__(
        self,
        now: float,
        nmax: int,
        running_end: Sequence[float],
        running_size: Sequence[int],
    ) -> None:
        if len(running_end) != len(running_size):
            raise ValueError("running_end and running_size must share a length")
        self.nmax = nmax
        events: dict[float, int] = {}
        used_now = 0
        after = math.nextafter(now, math.inf)
        for end, size in zip(running_end, running_size):
            end = float(end)
            # A job running past its estimate frees its cores just after
            # now, never at now: the level at now stays the actual free
            # cores, and no second breakpoint at now can offer them.
            if end <= now:
                end = after
            used_now += int(size)
            events[end] = events.get(end, 0) + int(size)
        if used_now > nmax:
            raise ValueError(f"running jobs use {used_now} > nmax={nmax} cores")
        self._times = [now]
        self._free = [nmax - used_now]
        level = nmax - used_now
        for t in sorted(events):
            level += events[t]
            self._times.append(t)
            self._free.append(level)

    def _blocker(self, i: int, size: int, end: float) -> int:
        """First breakpoint after *i*, inside ``[times[i], end)``, with
        fewer than *size* free cores; -1 when the window is clear."""
        times, free = self._times, self._free
        for j in range(i + 1, len(times)):
            if times[j] >= end - 1e-12:
                break
            if free[j] < size:
                return j
        return -1

    def _earliest(self, size: int, duration: float) -> int:
        """Index of the earliest breakpoint from which *size* cores stay
        free for *duration*.  A start before a blocker has a window at
        least as long, which reaches the blocker too, so the scan resumes
        past it."""
        times, free = self._times, self._free
        i = 0
        while i < len(times):
            if free[i] >= size:
                j = self._blocker(i, size, times[i] + duration)
                if j < 0:
                    return i
                i = j
            i += 1
        # after the last breakpoint the machine is fully free
        return len(times) - 1

    def _reserve_at(self, i: int, end: float, size: int) -> None:
        """Subtract *size* cores from breakpoint *i* up to *end*.

        Decrement from that exact breakpoint forward: an epsilon lower
        bound could also catch a distinct breakpoint within 1e-12
        *before* it — one the earliest-start scan never vetted — and
        spuriously oversubscribe.
        """
        self._ensure_breakpoint(end)
        times, free = self._times, self._free
        for k in range(i, len(times)):
            if times[k] >= end - 1e-12:
                break
            free[k] -= size
            if free[k] < 0:
                raise RuntimeError(
                    f"reservation oversubscribes the profile at t={times[k]}"
                )

    def _ensure_breakpoint(self, t: float) -> int:
        """Index of the breakpoint at *t*, else of one within 1e-12 of
        it, else of one added at *t*.

        Times stay sorted, so only the two neighbours of *t*'s insertion
        point can lie that close.  The merge decides starts: a
        reservation end merged into a later breakpoint holds its cores
        until that breakpoint, so no job reserves in the gap, and a job
        whose window ends inside the ``end - 1e-12`` cut can start now
        (``tests/test_sim_conservative.py::TestBreakpointMerge``).
        """
        times = self._times
        i = bisect_left(times, t)
        if t == math.inf or (i < len(times) and times[i] == t):
            return i
        if i > 0 and abs(times[i - 1] - t) <= 1e-12:
            return i - 1
        if i == len(times):
            times.append(t)
            self._free.append(self.nmax)
        elif abs(times[i] - t) > 1e-12:
            times.insert(i, t)
            self._free.insert(i, self._free[i - 1])
        return i


def conservative_starts(
    now: float,
    nmax: int,
    queue: Sequence[int],
    q_size: Sequence[int],
    q_proc: Sequence[float],
    running_end: Sequence[float],
    running_size: Sequence[int],
    *,
    depth: int | None = None,
) -> list[int]:
    """Jobs (identifiers from *queue*) that start now under conservative
    backfilling, or hybrid backfilling when *depth* is given.

    *queue* lists job identifiers in priority order; ``q_size``/``q_proc``
    align with it.  The first *depth* jobs (default: every job) reserve
    their earliest feasible slot given all earlier-priority reservations.
    Jobs beyond the depth either start now (committing their cores so
    later candidates cannot oversubscribe) or wait with **no**
    reservation.  The returned identifiers are those whose slot begins
    at *now*.
    """
    if depth is None:
        depth = len(queue)
    elif depth < 1:
        raise ValueError(f"reservation depth must be >= 1, got {depth}")
    profile = AvailabilityProfile(now, nmax, running_end, running_size)
    free = profile._free
    smallest_left = list(accumulate(reversed(q_size), min))[::-1]
    started: list[int] = []
    for pos, (ident, size, proc) in enumerate(zip(queue, q_size, q_proc)):
        # free[0] is the level at now: once no job left fits it, none of
        # them can start now
        if smallest_left[pos] > free[0]:
            break
        size = int(size)
        dur = max(float(proc), 1e-9)
        if pos < depth:
            i = profile._earliest(size, dur)
        elif free[0] < size or profile._blocker(0, size, now + dur) >= 0:
            continue
        else:
            i = 0
        t = profile._times[i]
        profile._reserve_at(i, t + dur, size)
        # exact: a starts-now reservation sits at the `now` breakpoint
        # itself.  Any slot strictly after now — however close — is
        # behind a release event that has not happened yet, so starting
        # such a job would oversubscribe the actual free cores.
        if t == now:
            started.append(ident)
    return started
