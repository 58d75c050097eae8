"""One schedule checker: does a schedule follow its backfill mode's rule?

:func:`check_schedule` re-derives every scheduling decision of a
:class:`~repro.sim.engine.ScheduleResult` from the result alone and
returns one message per broken rule, naming the rule, the job and the
instant (an empty list means the schedule is valid).  It reads the
per-job ``submit``, ``start``, ``finish``, ``size`` and ``leaf``, the
machine size, the backfill mode, the processing times the scheduler saw
(``config.use_estimates``) and the policy's ``(score, submit, index)``
queue order; dynamic policies are rescored at every instant.

Decisions happen only at the distinct submit and finish instants.  At
each one the checker rebuilds the queue (``submit <= t <= start``) and
the running set (``start < t < finish``).  A partitioned result is
checked leaf by leaf, each leaf with ``nmax / n_leaves`` cores.  Both
sets are rebuilt from scratch at every instant, so the cost grows with
jobs × instants: the checker is sized for test schedules, not traces.

Rules, in every mode:

* ``start`` — every job starts, never before its submission, and only
  at a submit or finish instant;
* ``capacity`` — busy cores never exceed the capacity (a job that ends
  at ``t`` frees its cores for a job that starts at ``t``).

Without backfilling and under EASY (Lifka, JSSPP 1995), the jobs that
start at ``t`` begin with a prefix of the queue order, and:

* ``head`` — the first job after that prefix does not fit the cores the
  prefix leaves free;
* ``prefix`` — without backfilling nothing else starts;
* ``easy`` — the head's shadow and extra cores come from the running
  jobs plus the prefix, their estimated ends clamped to ``t`` and
  sorted by ``(end, size)``.  A job started behind the head ends by
  ``shadow + 1e-9`` or takes extra cores, and together those jobs take
  no more extra cores than there are.

Under conservative (Mu'alem & Feitelson, IEEE TPDS 2001) and hybrid
backfilling:

* ``replan`` — :func:`~repro.sim.conservative.conservative_starts` on
  the rebuilt queue and running set (hybrid: reservation depth
  :data:`~repro.sim.conservative.HYBRID_RESERVATION_DEPTH`) chooses
  exactly the jobs that start at ``t``.

And ``backfilled`` — ``result.backfilled`` marks exactly the jobs that
start behind the head: behind the waiting head under EASY, behind the
queue's first job under the replan modes, none without backfilling.

What this covers: the rules are independent of the C kernel (its EASY
and replan passes, and its transcription of the overrun release: a job
past its estimate frees its cores just after ``t``) and of both event
loops' queue and running-set bookkeeping (completion release, the kept
queue and running-set orders).  The replan rule is not independent of
the Python reference pass itself: it calls the same
:func:`~repro.sim.conservative.conservative_starts`, whose availability
profile holds the Python overrun release, so a fault there shows only
as a disagreement with the C pass or the frozen oracle
(``tests/oracle_sim.py``).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from repro.sim.conservative import HYBRID_RESERVATION_DEPTH, conservative_starts

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.policies.base import Policy
    from repro.sim.engine import ScheduleResult

__all__ = ["check_schedule", "step_profile"]


def step_profile(begin, end, weight) -> tuple[np.ndarray, np.ndarray]:
    """Total *weight* of the intervals ``[begin, end)`` over time.

    Returns ``(time, value)``: ``value[i]`` holds on
    ``[time[i], time[i + 1])``, 0 before ``time[0]``.  An interval that
    ends at ``t`` and one that begins at ``t`` meet in one step, so the
    first frees its weight for the second.
    """
    times = np.concatenate([begin, end])
    if times.size == 0:
        return np.empty(0), np.empty(0)
    weight = np.asarray(weight)
    deltas = np.concatenate([weight, -weight])
    order = np.argsort(times, kind="stable")
    time, first = np.unique(times[order], return_index=True)
    return time, np.cumsum(np.add.reduceat(deltas[order], first))


def check_schedule(result: "ScheduleResult", policy: "Policy") -> list[str]:
    """Every rule *result* breaks under *policy*, one message each."""
    wl = result.workload
    config = result.config
    start = result.start
    never = np.flatnonzero(~np.isfinite(start))
    if never.size:
        return [f"start: job {j} never starts" for j in never]
    msgs = [
        f"start: job {j} at t={float(start[j])!r}: starts before its"
        f" submission at {float(wl.submit[j])!r}"
        for j in np.flatnonzero(start < wl.submit)
    ]
    if len(wl) == 0:
        return msgs
    proc = wl.estimate if config.use_estimates else wl.runtime
    scores = (
        None
        if policy.dynamic
        else policy.scores(float(wl.submit[0]), wl.submit, proc, wl.size)
    )
    n_leaves = math.prod(config.topology) if config.topology else 1
    leaf = np.zeros(len(wl), np.int64) if result.leaf is None else result.leaf
    for k in range(n_leaves):
        ids = np.flatnonzero(leaf == k)
        where = f" (leaf {k})" if n_leaves > 1 else ""
        msgs += _check_leaf(
            result, policy, ids, proc, scores, config.nmax // n_leaves, where
        )
    return msgs


def _check_leaf(result, policy, ids, proc, scores, cap, where) -> list[str]:
    """The rules on one leaf's jobs (*ids*), run on *cap* cores."""
    wl = result.workload
    mode = result.config.backfill_mode
    submit, size, proc = wl.submit[ids], wl.size[ids], proc[ids]
    start = result.start[ids]
    finish = result.finish[ids]
    flags = result.backfilled[ids]
    if scores is not None:
        scores = scores[ids]

    def msg(rule: str, j: int, t: float, what: str) -> str:
        return f"{rule}{where}: job {int(ids[j])} at t={float(t)!r}: {what}"

    def ranked(t: float, q: np.ndarray) -> np.ndarray:
        sc = scores[q] if scores is not None else policy.scores(
            t, submit[q], proc[q], size[q]
        )
        return q[np.lexsort((q, submit[q], sc))]

    instants = np.unique(np.concatenate([submit, finish]))
    msgs = [
        msg("start", j, start[j], "starts at no submit or finish instant")
        for j in np.flatnonzero(~np.isin(start, instants))
    ]
    time, busy = step_profile(start, finish, size)
    for t, b in zip(time[busy > cap], busy[busy > cap]):
        j = int(np.flatnonzero(start == t)[0])
        msgs.append(msg("capacity", j, t, f"starts with {b} > {cap} cores busy"))

    for t in instants:
        q = np.flatnonzero((submit <= t) & (t <= start))
        running = (start < t) & (t < finish)
        free = cap - int(size[running].sum())
        if q.size == 0 or free < 0:  # an overfull instant is reported above
            continue
        q = ranked(t, q)
        starts = start[q] == t
        started = q[starts]
        if mode in ("conservative", "hybrid"):
            chosen = conservative_starts(
                float(t), cap, q.tolist(), size[q].tolist(), proc[q].tolist(),
                (start + proc)[running].tolist(), size[running].tolist(),
                depth=HYBRID_RESERVATION_DEPTH if mode == "hybrid" else None,
            )
            for j in sorted(set(started.tolist()) ^ set(chosen)):
                what = "starts" if start[j] == t else "waits"
                msgs.append(msg("replan", j, t, f"{what}, against the replan"))
            behind = started[started != q[0]]
        else:
            pos = int(np.argmin(starts)) if not starts.all() else q.size
            free -= int(size[q[:pos]].sum())
            behind = q[pos:][starts[pos:]]
            if pos < q.size and size[q[pos]] <= free:
                msgs.append(msg(
                    "head", q[pos], t,
                    f"waits for {size[q[pos]]} cores with {free} free",
                ))
            if mode is None:
                msgs += [
                    msg("prefix", j, t, f"starts behind waiting job {ids[q[pos]]}")
                    for j in behind
                ]
                behind = behind[:0]
            elif behind.size:
                msgs += _easy_rule(
                    msg, t, q[pos], q[:pos], behind, running, free,
                    start, size, proc,
                )
        for j in started[flags[started] != np.isin(started, behind)]:
            msgs.append(msg("backfilled", j, t, f"marked {bool(flags[j])}"))
    return msgs


def _easy_rule(msg, t, head, prefix, behind, running, free, start, size, proc):
    """The EASY shadow check of the jobs started behind *head* at *t*."""
    run = np.concatenate([np.flatnonzero(running), prefix])
    ends = np.maximum(start[run] + proc[run], t)
    order = np.lexsort((size[run], ends))
    csum = np.cumsum(size[run][order]) + free
    k = int(np.searchsorted(csum, size[head], side="left"))
    if k >= run.size:
        return [msg("easy", head, t, "the head has no shadow")]
    shadow = ends[order[k]]
    extra = int(csum[k]) - int(size[head])
    past = behind[t + proc[behind] > shadow + 1e-9]
    over = np.flatnonzero(np.cumsum(size[past]) > extra)
    if over.size == 0:
        return []
    return [msg(
        "easy", past[over[0]], t,
        f"runs past the shadow at {float(shadow)!r} beyond the {extra} extra cores",
    )]
