"""Hybrid (K-reservation) backfilling.

The paper evaluates every policy "in conjunction with a backfilling
algorithm" (§4.2.3, §4.3.3): at each rescheduling event the queue is
ordered by the policy, then jobs further back in the queue may start
*now* provided they do not delay the reserved jobs.  EASY (Mu'alem &
Feitelson, 2001) reserves only for the queue head; the unified event
loop (:mod:`repro.sim.kernel`, both the vectorised Python path and the
C backend) implements it inline; ``tests/easy_reference.py`` keeps a
property-tested plain-array reference of the same pass.

This module defines :func:`hybrid_starts`, the *hybrid* backfilling
variant (``backfill="hybrid"``): the first
:data:`HYBRID_RESERVATION_DEPTH` queued jobs get conservative-style
reservations, jobs further back are handled aggressively (start now or
wait unreserved).  EASY and conservative are its two limits — depth 1
approximates EASY, depth ≥ queue length *is* conservative (an identity
the oracle tests pin).

Scheduling decisions use the *requested* processing time (the user
estimate ``e``) when the experiment runs in estimate mode; actual
runtimes are only used to simulate execution, exactly as in the paper.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.sim.conservative import conservative_starts

__all__ = ["HYBRID_RESERVATION_DEPTH", "hybrid_starts"]

#: How many queue-front jobs hold a reservation under hybrid backfilling.
#: Between EASY's single head reservation (starvation-prone tail) and
#: conservative's everyone-reserved (little backfilling), a small fixed
#: depth protects the first few jobs while the tail stays aggressive.
HYBRID_RESERVATION_DEPTH = 4


def hybrid_starts(
    now: float,
    nmax: int,
    queue: Sequence[int],
    q_size: Sequence[int],
    q_proc: Sequence[float],
    running_end: Sequence[float],
    running_size: Sequence[int],
    *,
    depth: int = HYBRID_RESERVATION_DEPTH,
) -> list[int]:
    """Jobs (identifiers from *queue*) that start now under hybrid backfilling.

    The replan pass of
    :func:`~repro.sim.conservative.conservative_starts` with only the
    first *depth* jobs in priority order reserving their earliest
    feasible slot — so a deep candidate may leapfrog an unreserved
    middle job, but never one of the *depth* protected reservations.
    ``depth >= len(queue)`` is conservative backfilling; the oracle
    suite pins that identity and the cases where the variants diverge.
    """
    return conservative_starts(
        now, nmax, queue, q_size, q_proc, running_end, running_size, depth=depth
    )
