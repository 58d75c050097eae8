"""Unified event-heap simulation kernel.

Both public simulators — :func:`repro.sim.engine.simulate` (the
online evaluation engine) and
:func:`repro.sim.listsched.simulate_fixed_priority_batch` (the
fixed-priority trial simulator, one :func:`simulate_events` run per
priority row) — are thin configurations of the single event loop in
this module.  Training's permutation trials
(:func:`repro.sim.listsched.simulate_trials`) run the same loop's C
transcription, or the fixed-priority rows under the Python backend.
One arrival/completion heap drives every mode; per-event state lives
in preallocated arrays (start times, the running set's expected-end/size
timeline, the sorted waiting queue) instead of the per-event dicts and
list comprehensions of the pre-kernel loops.

Event loop contract (the exact semantics of the original loops — the
parity suite pins them bit-for-bit against ``tests/oracle_sim.py``):

1. The clock jumps to ``min(next arrival, next completion)`` and never
   moves backwards; each jump is one *event* (``n_events``).
2. Completions at or before ``now`` release cores first, in
   ``(finish_time, job)`` order; then all arrivals at or before ``now``
   enter the waiting queue.
3. One scheduling pass runs per event: the queue is ordered by
   ``(score, submit, index)`` — lower score first — and the head starts
   while it fits (head-blocking).  With ``backfill="easy"`` a blocked
   head triggers the EASY pass over the remaining queue; with
   ``backfill="conservative"`` every queued job holds a reservation in
   an availability profile and every job whose reservation begins now
   starts (``"hybrid"``: only the queue front reserves).  This loop
   replans the whole queue at every event; the C loop keeps the
   conservative plan between events where that gives the same
   reservations (:mod:`repro.sim._cbackend`).

Scoring is vectorised at the batch level: *static* scores (policies
whose score is independent of ``now``) are computed for the whole
workload in **one** ``policy.scores`` call before the loop starts, and
*dynamic* policies are rescored per pass with one array call over the
entire queue — never per job.  Static-score simulations dispatch to a
compiled C transcription of the same loop (:mod:`repro.sim._cbackend`,
``REPRO_SIM_KERNEL`` selects the backend), and so do dynamic ones that
come with now-independent kernel *terms* (WFP3, UNICEF): C rescores
each pass from them with the bits numpy would produce.  Every backfill
mode, hybrid included, runs in C.  The Python loop still runs custom
dynamic policies without terms and everything under
``REPRO_SIM_KERNEL=python`` or on hosts without a C compiler; it stays
the full-replan reference the C passes are pinned to.

The kernel records no telemetry itself: the engine and trial wrappers
increment the same counters (``sim.*``, ``listsched.*``) with the same
semantics as before the refactor.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left
from typing import Callable, NamedTuple

import numpy as np

from repro.policies.base import KERNEL_UNICEF, KERNEL_WFP3
from repro.sim import _cbackend
from repro.sim.cluster import Cluster
from repro.sim.conservative import HYBRID_RESERVATION_DEPTH, conservative_starts

__all__ = [
    "KernelResult",
    "simulate_events",
    "validate_scores",
]

#: Canonical backfill mode -> integer code shared with the C backend,
#: which implements all four; ``conservative`` and ``hybrid`` share one
#: replan pass that differs only in its reservation depth.
_MODE_CODES = {None: 0, "easy": 1, "conservative": 2, "hybrid": 3}

#: Dynamic-score formulas the C backend implements
#: (:class:`repro.policies.base.KernelTerms` codes).
_TERM_CODES = (KERNEL_WFP3, KERNEL_UNICEF)


class KernelResult(NamedTuple):
    """Everything one kernel run produces."""

    start: np.ndarray
    backfilled: np.ndarray
    n_events: int
    n_backfill_passes: int
    #: replan passes that kept the previous pass's plan (C only)
    n_replans_kept: int = 0


def validate_scores(
    scores: np.ndarray, label: str = "score", jobs: np.ndarray | None = None
) -> None:
    """Reject NaN scores/priorities at the kernel boundary.

    NaN compares false against everything, so a NaN key would silently
    corrupt the waiting-queue order (historically: undefined queue
    positions rather than an error).  Raises :class:`ValueError` naming
    the first offending job index; *jobs* maps the positions of a
    queue-subset score vector back to job indices.
    """
    isnan = np.isnan(scores)
    if isnan.any():
        where = np.argwhere(isnan)[0]
        job = int(where[-1] if jobs is None else jobs[where[-1]])
        trial = f" (trial {int(where[0])})" if scores.ndim > 1 else ""
        raise ValueError(
            f"{label} for job {job}{trial} is NaN; NaN never sorts, so the"
            " waiting-queue order would be silently corrupted"
        )


def _validated_terms(terms, n: int) -> tuple[int, np.ndarray, np.ndarray]:
    """Check precomputed dynamic-score terms before they enter C."""
    code, a, b = terms
    if code not in _TERM_CODES:
        raise ValueError(f"unknown kernel score code {code!r}")
    a = _as_f64(a)
    b = _as_f64(b)
    if a.shape != (n,) or b.shape != (n,):
        raise ValueError(f"kernel terms must have shape ({n},)")
    for name, arr, ok, need in (
        ("a", a, np.isfinite(a) & (a > 0), "finite and > 0"),
        ("b", b, np.isfinite(b), "finite"),
    ):
        if not ok.all():
            job = int(np.argmin(ok))
            raise ValueError(
                f"kernel term {name} for job {job} is {float(arr[job])!r};"
                f" it must be {need}"
            )
    return code, a, b


def _as_f64(arr) -> np.ndarray:
    return np.ascontiguousarray(arr, dtype=np.float64)


def _as_i64(arr) -> np.ndarray:
    return np.ascontiguousarray(arr, dtype=np.int64)


def simulate_events(
    submit: np.ndarray,
    runtime: np.ndarray,
    proc: np.ndarray,
    size: np.ndarray,
    nmax: int,
    *,
    static_scores: np.ndarray | None = None,
    scorer: Callable[[float, np.ndarray, np.ndarray, np.ndarray], np.ndarray]
    | None = None,
    terms: tuple[int, np.ndarray, np.ndarray] | None = None,
    backfill: str | None = None,
    arrival_order: np.ndarray | None = None,
    score_label: str = "score",
) -> KernelResult:
    """Run one simulation through the unified event loop.

    Parameters
    ----------
    submit, runtime, proc, size:
        Job attribute arrays: arrival time, actual runtime (drives
        completions), the processing time the *scheduler* sees (drives
        expected ends / backfill decisions; equals ``runtime`` unless
        the caller simulates user estimates) and core count.
    nmax:
        Machine size in cores.  Callers validate ``size <= nmax``.
    static_scores:
        Per-job queue score for the whole workload (lower runs first;
        ties by submit then index).  Mutually exclusive with *scorer*.
    scorer:
        Batch scoring callable ``scorer(now, submit, proc, size)`` for
        dynamic policies, applied to the entire queue once per
        scheduling pass.
    terms:
        ``(code, a, b)`` — the scorer's formula code and now-independent
        per-job terms (:meth:`repro.policies.base.Policy.kernel_terms`).
        With them the C backend scores every pass itself; *scorer* stays
        the Python path's (``REPRO_SIM_KERNEL=python``, C-less hosts),
        with the same bits.
    backfill:
        ``None``, ``"easy"``, ``"conservative"`` or ``"hybrid"``
        (canonical spellings only — use
        :func:`repro.sim.engine.normalize_backfill`).  Hybrid replans
        like conservative but reserves only the queue front
        (:data:`repro.sim.conservative.HYBRID_RESERVATION_DEPTH` jobs).
    arrival_order:
        Indices sorted by ``(submit, index)``.  Defaults to ``0..n-1``
        (correct for submit-sorted workloads).
    """
    if (static_scores is None) == (scorer is None):
        raise ValueError("exactly one of static_scores/scorer must be given")
    if terms is not None and scorer is None:
        raise ValueError("terms need the scorer they stand for")
    mode = _MODE_CODES[backfill]
    submit = _as_f64(submit)
    runtime = _as_f64(runtime)
    proc = _as_f64(proc)
    size = _as_i64(size)
    n = submit.shape[0]
    if n == 0:
        return KernelResult(np.empty(0, dtype=float), np.zeros(0, dtype=bool), 0, 0)
    if arrival_order is None:
        arrival_order = np.arange(n, dtype=np.int64)
    else:
        arrival_order = _as_i64(arrival_order)
    if static_scores is not None:
        static_scores = _as_f64(static_scores)
        validate_scores(static_scores, score_label)
    if terms is not None:
        terms = _validated_terms(terms, n)
    if static_scores is not None or terms is not None:
        backend = _cbackend.selected()
        if backend is not None:
            return KernelResult(*backend.sim(
                submit, runtime, proc, size, static_scores, arrival_order, nmax,
                mode, _reservation_depth(mode, n), terms,
            ))
    return _simulate_py(
        submit, runtime, proc, size, nmax, mode, static_scores, scorer, arrival_order
    )


def _reservation_depth(mode: int, n_queued: int) -> int:
    """How many queue-front jobs hold a reservation in a replan pass:
    all of them under conservative, the hybrid depth under hybrid."""
    return HYBRID_RESERVATION_DEPTH if mode == 3 else n_queued


def _simulate_py(
    subs: np.ndarray,
    runs: np.ndarray,
    procs: np.ndarray,
    sizes: np.ndarray,
    nmax: int,
    mode: int,
    static_scores: np.ndarray | None,
    scorer,
    order: np.ndarray,
) -> KernelResult:
    """The pure-Python event loop (custom dynamic policies,
    ``REPRO_SIM_KERNEL=python`` and C-less hosts), and the full-replan
    reference for the C backend's replan passes: it rebuilds the
    availability profile at every pass, where C keeps the conservative
    plan between events, so it reports no kept passes.
    """
    n = subs.shape[0]
    subs_l = subs.tolist()
    runs_l = runs.tolist()
    procs_l = procs.tolist()
    sizes_l = sizes.tolist()
    order_l = order.tolist()

    start_arr = np.full(n, np.nan)
    backfilled = np.zeros(n, dtype=bool)

    # Running set: preallocated parallel arrays with O(1) swap-removal.
    # Iteration order is never observable (the EASY shadow sorts by
    # (end, size); the availability profile sums per distinct end).
    run_end = np.empty(n, dtype=np.float64)
    run_size = np.empty(n, dtype=np.int64)
    run_job = [0] * n
    run_pos: dict[int, int] = {}
    rn = 0

    # Free/busy cores go through the Cluster allocator (one per run, so
    # no allocation state outlives it), which asserts the conservation
    # invariant (free + busy == nmax) inside the kernel.
    cluster = Cluster(nmax)
    completions: list[tuple[float, int]] = []
    heappush = heapq.heappush
    heappop = heapq.heappop
    dynamic = scorer is not None
    if dynamic:
        items: list[int] = []
    else:
        scores_l = static_scores.tolist()
        wkeys: list[tuple[float, float, int]] = []
        witems: list[int] = []

    inf = math.inf
    ai = 0
    started_count = 0
    n_events = 0
    n_passes = 0
    now = subs_l[order_l[0]]

    def _start(idx: int, via_bf: bool) -> None:
        nonlocal rn, started_count
        sz = sizes_l[idx]
        cluster.allocate(idx, sz)
        start_arr[idx] = now
        if via_bf:
            backfilled[idx] = True
        heappush(completions, (now + runs_l[idx], idx))
        if mode:
            run_end[rn] = now + procs_l[idx]
            run_size[rn] = sz
            run_job[rn] = idx
            run_pos[idx] = rn
            rn += 1
        started_count += 1

    while started_count < n:
        na = subs_l[order_l[ai]] if ai < n else inf
        nc = completions[0][0] if completions else inf
        et = na if na < nc else nc
        if now < et:
            now = et
        n_events += 1

        while completions and completions[0][0] <= now:
            _, idx = heappop(completions)
            cluster.release(idx)
            if mode:
                p = run_pos.pop(idx)
                last = rn - 1
                if p != last:
                    run_end[p] = run_end[last]
                    run_size[p] = run_size[last]
                    j = run_job[last]
                    run_job[p] = j
                    run_pos[j] = p
                rn = last

        if dynamic:
            while ai < n and subs_l[order_l[ai]] <= now:
                items.append(order_l[ai])
                ai += 1
            if not items:
                continue
        else:
            while ai < n and subs_l[order_l[ai]] <= now:
                i2 = order_l[ai]
                key = (scores_l[i2], subs_l[i2], i2)
                pos = bisect_left(wkeys, key)
                wkeys.insert(pos, key)
                witems.insert(pos, i2)
                ai += 1
            if not witems:
                continue

        # ---- scheduling pass -----------------------------------------
        if mode < 2 and cluster.free == 0:
            # Nothing can start (every job needs >= 1 core) and the EASY
            # pass requires free cores, so skipping is result-identical;
            # this also skips a dynamic rescoring, which is pure win.
            # Replan modes (conservative, hybrid) still run their pass
            # so reservation bookkeeping and pass counts stay defined.
            continue

        if dynamic:
            q = np.fromiter(items, dtype=np.int64, count=len(items))
            sq = subs[q]
            sc = scorer(now, sq, procs[q], sizes[q])
            validate_scores(sc, "score", q)
            ord_list = q[np.lexsort((q, sq, sc))].tolist()
        else:
            ord_list = witems

        started: set[int] = set()
        if mode >= 2:
            n_passes += 1
            chosen = conservative_starts(
                now,
                nmax,
                ord_list,
                [sizes_l[i] for i in ord_list],
                [procs_l[i] for i in ord_list],
                run_end[:rn].tolist(),
                run_size[:rn].tolist(),
                depth=_reservation_depth(mode, len(ord_list)),
            )
            head = ord_list[0]
            for idx in chosen:
                _start(idx, idx != head)
                started.add(idx)
        else:
            pos = 0
            L = len(ord_list)
            while pos < L and sizes_l[ord_list[pos]] <= cluster.free:
                idx = ord_list[pos]
                _start(idx, False)
                started.add(idx)
                pos += 1
            if mode == 1 and pos < L and cluster.free > 0 and L - pos >= 2:
                n_passes += 1
                head_size = sizes_l[ord_list[pos]]
                if rn == 0:
                    raise RuntimeError(
                        "EASY shadow with nothing running: head exceeds nmax"
                    )
                # Vectorised shadow: sort running (clamped end, size)
                # pairs, then the first prefix-sum crossing head_size is
                # the reservation — same arithmetic as the reference
                # shadow_schedule in tests/easy_reference.py.
                ends = np.maximum(run_end[:rn], now)
                ordr = np.lexsort((run_size[:rn], ends))
                csum = np.cumsum(run_size[:rn][ordr])
                csum += cluster.free
                k = int(np.searchsorted(csum, head_size, side="left"))
                if k >= rn:
                    raise RuntimeError(
                        "EASY shadow found no feasible reservation"
                    )
                shadow = float(ends[ordr[k]])
                extra = int(csum[k]) - head_size
                for p in range(pos + 1, L):
                    idx = ord_list[p]
                    sz = sizes_l[idx]
                    if sz > cluster.free:
                        continue
                    if now + procs_l[idx] <= shadow + 1e-9:
                        _start(idx, True)
                        started.add(idx)
                    elif sz <= extra:
                        _start(idx, True)
                        started.add(idx)
                        extra -= sz
                    if cluster.free == 0:
                        break

        if started:
            if dynamic:
                items = [i for i in items if i not in started]
            else:
                keep = [
                    (k, i2) for k, i2 in zip(wkeys, witems) if i2 not in started
                ]
                wkeys = [k for k, _ in keep]
                witems = [i2 for _, i2 in keep]

    return KernelResult(start_arr, backfilled, n_events, n_passes)
