"""Unified event-heap simulation kernel.

Both public simulators — :func:`repro.sim.engine.simulate` (the
online evaluation engine) and
:func:`repro.sim.listsched.simulate_fixed_priority_batch` (the
fixed-priority trial simulator, one :func:`simulate_events` run per
priority row) — are thin configurations of the single event loop in
this module.  Training's permutation trials
(:func:`repro.sim.listsched.simulate_trials`) run the same loop's C
transcription, or the fixed-priority rows under the Python backend.
One arrival/completion heap drives every mode.  The Python loop holds
the state the C loop (``sim_run``) holds and makes its decisions in the
same steps: the free cores are one integer, the waiting queue is one
list of job indices (sorted on insert for static scores, rescored and
re-sorted per pass for dynamic ones), and the running set is one dict
from each running job to its ``(expected end, size)``.  Starting a job
without enough free cores, or completing one that is not running, is
a named :class:`RuntimeError`.

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
the full-replan reference the C passes are pinned to, and its replan
pass (:func:`repro.sim.conservative.conservative_starts`) is the one C
transcribes.

The kernel records no telemetry itself: the engine and trial wrappers
increment the same counters (``sim.*``, ``listsched.*``) with the same
semantics as before the refactor.
"""

from __future__ import annotations

import heapq
import math
from bisect import insort
from typing import Callable, NamedTuple

import numpy as np

from repro.policies.base import KERNEL_UNICEF, KERNEL_WFP3
from repro.sim import _cbackend
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
    """Everything one kernel run produces, or a partitioned run's merge
    of one per leaf (:func:`repro.sim.platform.simulate_partitioned`)."""

    start: np.ndarray
    backfilled: np.ndarray
    n_events: int
    n_backfill_passes: int
    #: replan passes that kept the previous pass's plan (C only)
    n_replans_kept: int = 0
    #: per-job leaf of a partitioned run (None when flat)
    leaf: np.ndarray | None = None


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
    dynamic = scorer is not None
    if not dynamic:
        # unique (score, submit, index) keys: the queue order
        keys = list(zip(static_scores.tolist(), subs_l, range(n)))

    start = np.full(n, np.nan)
    backfilled = np.zeros(n, dtype=bool)
    free = nmax
    # Iteration order is never observable: the EASY shadow sorts the
    # values by (end, size), the availability profile sums per end.
    running: dict[int, tuple[float, int]] = {}
    completions: list[tuple[float, int]] = []
    queue: list[int] = []
    ai = n_started = n_events = n_passes = 0
    now = subs_l[order_l[0]]

    def _start(idx: int, via_bf: bool) -> None:
        nonlocal free, n_started
        sz = sizes_l[idx]
        if sz > free:
            raise RuntimeError(
                f"oversubscription: job {idx} wants {sz} cores, only {free} free"
            )
        free -= sz
        start[idx] = now
        backfilled[idx] = via_bf
        heapq.heappush(completions, (now + runs_l[idx], idx))
        running[idx] = (now + procs_l[idx], sz)
        n_started += 1

    while n_started < n:
        na = subs_l[order_l[ai]] if ai < n else math.inf
        nc = completions[0][0] if completions else math.inf
        et = na if na < nc else nc
        if et == math.inf:
            raise RuntimeError(
                "jobs wait but no arrival or completion is left to start them"
            )
        if now < et:
            now = et
        n_events += 1

        while completions and completions[0][0] <= now:
            idx = heapq.heappop(completions)[1]
            if idx not in running:
                raise RuntimeError(f"completing job {idx} is not running")
            free += running.pop(idx)[1]

        while ai < n and subs_l[order_l[ai]] <= now:
            if dynamic:
                queue.append(order_l[ai])
            else:
                insort(queue, order_l[ai], key=keys.__getitem__)
            ai += 1
        # Every job needs >= 1 core, so a full machine starts nothing and
        # the EASY pass requires free cores: skipping is result-identical
        # and skips a dynamic rescoring.  Replan modes (conservative,
        # hybrid) still run their pass so pass counts stay defined.
        if not queue or (mode < 2 and free == 0):
            continue

        if dynamic:
            q = np.array(queue, dtype=np.int64)
            sq = subs[q]
            sc = scorer(now, sq, procs[q], sizes[q])
            validate_scores(sc, "score", q)
            queue = q[np.lexsort((q, sq, sc))].tolist()

        if mode >= 2:
            n_passes += 1
            started = conservative_starts(
                now,
                nmax,
                queue,
                [sizes_l[i] for i in queue],
                [procs_l[i] for i in queue],
                [end for end, _ in running.values()],
                [sz for _, sz in running.values()],
                depth=_reservation_depth(mode, len(queue)),
            )
            for idx in started:
                _start(idx, idx != queue[0])
        else:
            started = []
            for idx in queue:
                if sizes_l[idx] > free:
                    break
                _start(idx, False)
                started.append(idx)
            rest = queue[len(started):]
            if mode == 1 and len(rest) >= 2 and free > 0:
                # EASY: the blocked head's shadow is the first running
                # (end clamped to now, size) pair, in order, whose cores
                # with the free ones cover it — the arithmetic of
                # shadow_schedule in tests/easy_reference.py.
                n_passes += 1
                head_size = sizes_l[rest[0]]
                avail = free
                for shadow, sz in sorted(
                    (max(end, now), sz) for end, sz in running.values()
                ):
                    avail += sz
                    if avail >= head_size:
                        break
                else:
                    raise RuntimeError("EASY shadow found no feasible reservation")
                extra = avail - head_size
                for idx in rest[1:]:
                    sz = sizes_l[idx]
                    if sz > free:
                        continue
                    if now + procs_l[idx] > shadow + 1e-9:
                        if sz > extra:
                            continue
                        extra -= sz
                    _start(idx, True)
                    started.append(idx)
                    if free == 0:
                        break

        if started:
            done = set(started)
            queue = [i for i in queue if i not in done]

    return KernelResult(start, backfilled, n_events, n_passes)
