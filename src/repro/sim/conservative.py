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
reservations, jobs further back start now or wait unreserved.  EASY and
conservative are its two limits — depth 1 approximates EASY, depth ≥
queue length *is* conservative (an identity the oracle tests pin).  The
unified kernel's Python path (:mod:`repro.sim.kernel`) calls it per
event.  The C backend carries a transcription of the same profile
arithmetic, epsilon for epsilon, that stops each pass once no queued
job fits the free cores.  Under conservative backfilling with static
scores it also keeps the profile and the reservations it made from one
event to the next, as Mu'alem & Feitelson describe, and rebuilds them
only where a kept plan could differ from this replan: a job ending
off its planned end, an arrival ranked inside the plan, or two
breakpoints within 2e-12 (:mod:`repro.sim._cbackend` has the proof).
Both backends produce the same bits.

Scheduling decisions use the *requested* processing time (the user
estimate ``e``) when the experiment runs in estimate mode; actual
runtimes are only used to simulate execution, exactly as in the paper.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections.abc import Sequence

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

    def free_at(self, t: float) -> int:
        """Free cores at time *t* (t >= profile start)."""
        if t < self._times[0] - 1e-9:
            raise ValueError("cannot query the past")
        # linear scan is fine: profiles hold O(running + reserved) points
        free = self._free[0]
        for time, level in zip(self._times, self._free):
            if time > t + 1e-12:
                break
            free = level
        return free

    def earliest_start(self, size: int, duration: float) -> float:
        """Earliest t with >= *size* cores free during [t, t + duration)."""
        if size > self.nmax:
            raise ValueError(f"job of {size} cores never fits in {self.nmax}")
        n = len(self._times)
        for i in range(n):
            if self._free[i] < size:
                continue
            t0 = self._times[i]
            end = t0 + duration
            feasible = True
            for j in range(i + 1, n):
                if self._times[j] >= end - 1e-12:
                    break
                if self._free[j] < size:
                    feasible = False
                    break
            if feasible:
                return t0
        # after the last breakpoint the machine is fully free
        return self._times[-1]

    def reserve(self, start: float, duration: float, size: int) -> None:
        """Subtract *size* cores over [start, start + duration)."""
        end = start + duration
        self._ensure_breakpoint(start)
        self._ensure_breakpoint(end)
        # *start* is always one of the profile's own breakpoints
        # (earliest_start returns profile times, and _ensure_breakpoint
        # above guarantees one within tolerance).  Decrement from that
        # exact breakpoint forward: an epsilon lower bound could also
        # catch a distinct breakpoint within 1e-12 *before* start — one
        # earliest_start never vetted — and spuriously oversubscribe.
        times = self._times
        start_i = bisect_left(times, start)
        miss = start_i == len(times) or times[start_i] != start
        if miss:  # pragma: no cover - tolerance fallback
            start_i = next(i for i, t in enumerate(times) if abs(t - start) <= 1e-12)
        for i in range(start_i, len(self._times)):
            t = self._times[i]
            if t >= end - 1e-12:
                break
            self._free[i] -= size
            if self._free[i] < -1e-9:
                raise RuntimeError(
                    f"reservation oversubscribes the profile at t={t}"
                )

    def _ensure_breakpoint(self, t: float) -> None:
        """Add breakpoint *t* unless one lies within 1e-12 of it.

        Times stay sorted, so only the two neighbours of *t*'s insertion
        point can lie that close.
        """
        if t == math.inf:
            return
        times = self._times
        i = bisect_left(times, t)
        if i > 0 and abs(times[i - 1] - t) <= 1e-12:
            return
        if i == len(times):
            times.append(t)
            self._free.append(self.nmax)
        elif abs(times[i] - t) > 1e-12:
            times.insert(i, t)
            self._free.insert(i, self._free[i - 1])


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
    started: list[int] = []
    for pos, (ident, size, proc) in enumerate(zip(queue, q_size, q_proc)):
        size = int(size)
        proc = max(float(proc), 1e-9)
        t = profile.earliest_start(size, proc)
        # exact: a starts-now reservation sits at the `now` breakpoint
        # itself.  Any slot strictly after now — however close — is
        # behind a release event that has not happened yet, so starting
        # such a job would oversubscribe the actual free cores.
        starts_now = t == now
        if pos < depth or starts_now:
            profile.reserve(t, proc, size)
        if starts_now:
            started.append(ident)
    return started
