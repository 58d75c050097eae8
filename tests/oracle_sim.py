"""Frozen pre-kernel simulator loops — the golden oracle for parity tests.

These are verbatim copies (minus telemetry) of the pure-Python per-job
loops that ``repro.sim.engine.simulate`` and
``repro.sim.listsched.simulate_fixed_priority`` shipped before the
unified event-heap kernel (``repro.sim.kernel``) replaced them.  The
parity suite (``tests/test_sim_kernel_parity.py``) and the CI
byte-compare step (``scripts/check_kernel_parity.py``) run the kernel
against this module and require **bit-identical** start arrays,
backfilled masks and event counts.

Deliberately self-contained: the backfill helpers, availability profile
and queue are copied here rather than imported, so future refactors of
the live modules can never silently move the oracle.  Do not "clean up"
or optimise this file — its only value is that it does not change.
"""

from __future__ import annotations

import bisect
import heapq
import math
from typing import NamedTuple

import numpy as np

from repro.sim.engine import ScheduleResult, SimulationConfig

__all__ = [
    "OracleOutcome",
    "oracle_simulate",
    "oracle_schedule_result",
    "oracle_fixed_priority",
]


# ----------------------------------------------------------------------
# frozen copy of the pre-kernel EASY backfill module
# ----------------------------------------------------------------------
def _shadow_schedule(now, free, head_size, running_end, running_size):
    if head_size <= free:
        raise ValueError("head fits now; no reservation needed")
    events = sorted(
        (max(float(e), now), int(s)) for e, s in zip(running_end, running_size)
    )
    avail = free
    for end, size in events:
        avail += size
        if avail >= head_size:
            return end, avail - head_size
    raise ValueError("queue head can never start on this machine")


def _easy_backfill(
    now, free, head_size, candidates, cand_size, cand_proc, running_end, running_size
):
    shadow, extra = _shadow_schedule(now, free, head_size, running_end, running_size)
    started = []
    for idx, size, proc in zip(candidates, cand_size, cand_proc):
        size = int(size)
        if size > free:
            continue
        if now + float(proc) <= shadow + 1e-9:
            started.append(idx)
            free -= size
        elif size <= extra:
            started.append(idx)
            free -= size
            extra -= size
        if free == 0:
            break
    return started


# ----------------------------------------------------------------------
# frozen copy of repro.sim.conservative (pre-kernel)
# ----------------------------------------------------------------------
class _AvailabilityProfile:
    __slots__ = ("nmax", "_times", "_free")

    def __init__(self, now, nmax, running_end, running_size):
        self.nmax = nmax
        events: dict[float, int] = {}
        used_now = 0
        for end, size in zip(running_end, running_size):
            end = max(float(end), now)
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

    def earliest_start(self, size, duration):
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
        return self._times[-1]

    def reserve(self, start, duration, size):
        end = start + duration
        self._ensure_breakpoint(start)
        self._ensure_breakpoint(end)
        # decrement from the exact start breakpoint forward (mirrors
        # repro.sim.conservative.AvailabilityProfile._reserve_at): an epsilon
        # lower bound could catch a distinct breakpoint within 1e-12
        # *before* start that earliest_start never vetted
        start_i = None
        for i, t in enumerate(self._times):
            if t == start:
                start_i = i
                break
        if start_i is None:
            for i, t in enumerate(self._times):
                if abs(t - start) <= 1e-12:
                    start_i = i
                    break
        for i in range(start_i, len(self._times)):
            t = self._times[i]
            if t >= end - 1e-12:
                break
            self._free[i] -= size
            if self._free[i] < -1e-9:
                raise RuntimeError("reservation oversubscribes the profile")

    def _ensure_breakpoint(self, t):
        if t == math.inf:
            return
        for i, existing in enumerate(self._times):
            if abs(existing - t) <= 1e-12:
                return
            if existing > t:
                self._times.insert(i, t)
                self._free.insert(i, self._free[i - 1])
                return
        self._times.append(t)
        self._free.append(self.nmax)


def _conservative_starts(now, nmax, queue, q_size, q_proc, running_end, running_size):
    profile = _AvailabilityProfile(now, nmax, running_end, running_size)
    started = []
    for ident, size, proc in zip(queue, q_size, q_proc):
        size = int(size)
        proc = max(float(proc), 1e-9)
        t = profile.earliest_start(size, proc)
        profile.reserve(t, proc, size)
        # exact: slots strictly after now sit behind unprocessed
        # release events (mirrors repro.sim.conservative)
        if t == now:
            started.append(ident)
    return started


# ----------------------------------------------------------------------
# frozen copy of repro.sim.engine.simulate (pre-kernel)
# ----------------------------------------------------------------------
class _Queue:
    def __init__(self, dynamic):
        self.dynamic = dynamic
        self.items: list[int] = []
        self._keys: list[tuple[float, float, int]] = []

    def add_static(self, idx, score, submit):
        key = (score, submit, idx)
        pos = bisect.bisect_left(self._keys, key)
        self._keys.insert(pos, key)
        self.items.insert(pos, idx)

    def add_dynamic(self, idx):
        self.items.append(idx)

    def remove_started(self, started):
        if not started:
            return
        if self.dynamic:
            self.items = [i for i in self.items if i not in started]
        else:
            keep = [k for k, i in zip(self._keys, self.items) if i not in started]
            self._keys = keep
            self.items = [k[2] for k in keep]


class OracleOutcome(NamedTuple):
    """What the frozen engine loop produced for one simulation."""

    start: np.ndarray
    backfilled: np.ndarray
    n_events: int
    n_backfill_passes: int


def oracle_simulate(
    workload,
    policy,
    nmax,
    *,
    use_estimates=False,
    backfill=False,
) -> OracleOutcome:
    """Run the frozen pre-kernel engine loop; no telemetry is recorded."""
    config = SimulationConfig(nmax=nmax, use_estimates=use_estimates, backfill=backfill)
    workload.validate_for_machine(nmax)
    n = len(workload)
    start = np.full(n, np.nan)
    backfilled = np.zeros(n, dtype=bool)
    if n == 0:
        return OracleOutcome(start, backfilled, 0, 0)

    subs = workload.submit
    runs = workload.runtime
    sizes_arr = workload.size
    procs = workload.estimate if use_estimates else workload.runtime
    sizes = [int(x) for x in sizes_arr]

    free = nmax
    running_alloc: dict[int, int] = {}
    completions: list[tuple[float, int]] = []
    expected_end: dict[int, float] = {}
    queue = _Queue(dynamic=policy.dynamic)

    ai = 0
    started_count = 0
    now = float(subs[0])
    n_events = 0
    n_backfill_passes = 0

    def start_job(idx, at, via_backfill):
        nonlocal started_count, free
        free -= sizes[idx]
        assert free >= 0, "oracle oversubscription"
        running_alloc[idx] = sizes[idx]
        start[idx] = at
        heapq.heappush(completions, (at + float(runs[idx]), idx))
        expected_end[idx] = at + float(procs[idx])
        backfilled[idx] = via_backfill
        started_count += 1

    def priority_order(at):
        if not queue.dynamic:
            return queue.items
        q = np.fromiter(queue.items, dtype=np.int64, count=len(queue.items))
        scores = policy.scores(at, subs[q], procs[q], sizes_arr[q])
        order = np.lexsort((q, subs[q], scores))
        return [int(q[i]) for i in order]

    mode = config.backfill_mode

    def schedule_pass(at):
        nonlocal n_backfill_passes
        if not queue.items:
            return
        order = priority_order(at)
        started: set[int] = set()
        if mode == "conservative":
            n_backfill_passes += 1
            run_idx = list(expected_end)
            chosen = _conservative_starts(
                at,
                nmax,
                order,
                [sizes[i] for i in order],
                [float(procs[i]) for i in order],
                [expected_end[i] for i in run_idx],
                [sizes[i] for i in run_idx],
            )
            head = order[0]
            for idx in chosen:
                start_job(idx, at, via_backfill=idx != head)
                started.add(idx)
            queue.remove_started(started)
            return
        pos = 0
        while pos < len(order) and sizes[order[pos]] <= free:
            start_job(order[pos], at, via_backfill=False)
            started.add(order[pos])
            pos += 1
        if mode == "easy" and pos < len(order) and free > 0:
            head = order[pos]
            cands = order[pos + 1 :]
            if cands:
                n_backfill_passes += 1
                run_idx = list(expected_end)
                chosen = _easy_backfill(
                    at,
                    free,
                    sizes[head],
                    cands,
                    [sizes[i] for i in cands],
                    [float(procs[i]) for i in cands],
                    [expected_end[i] for i in run_idx],
                    [sizes[i] for i in run_idx],
                )
                for idx in chosen:
                    start_job(idx, at, via_backfill=True)
                    started.add(idx)
        queue.remove_started(started)

    while started_count < n:
        next_arrival = float(subs[ai]) if ai < n else np.inf
        next_completion = completions[0][0] if completions else np.inf
        if not queue.items and not running_alloc:
            event_time = next_arrival
        else:
            event_time = min(next_arrival, next_completion)
        now = max(now, event_time)
        n_events += 1

        while completions and completions[0][0] <= now:
            _, idx = heapq.heappop(completions)
            free += running_alloc.pop(idx)
            expected_end.pop(idx, None)
        if not queue.dynamic:
            batch: list[int] = []
            while ai < n and float(subs[ai]) <= now:
                batch.append(ai)
                ai += 1
            if batch:
                b = np.asarray(batch, dtype=np.int64)
                scores = policy.scores(now, subs[b], procs[b], sizes_arr[b])
                for idx, sc in zip(batch, scores):
                    queue.add_static(idx, float(sc), float(subs[idx]))
        else:
            while ai < n and float(subs[ai]) <= now:
                queue.add_dynamic(ai)
                ai += 1

        schedule_pass(now)

    return OracleOutcome(start, backfilled, n_events, n_backfill_passes)


def oracle_schedule_result(
    workload,
    policy,
    nmax,
    *,
    use_estimates=False,
    backfill=False,
    tau=None,
    topology=None,
    distribution="round_robin",
    platform_seed=0,
) -> ScheduleResult:
    """Drop-in ``simulate`` replacement built on the frozen loop.

    Used by ``scripts/check_kernel_parity.py`` to replay the evaluation
    matrix through the pre-kernel path and byte-compare its report.  The
    oracle predates the platform layer, so it models flat machines only;
    the platform kwargs are accepted for signature compatibility and a
    genuinely partitioned request is rejected.
    """
    import math as _math

    from repro.sim.metrics import DEFAULT_TAU

    if topology is not None and _math.prod(topology) != 1:
        raise ValueError("the frozen oracle models flat machines only")
    out = oracle_simulate(
        workload, policy, nmax, use_estimates=use_estimates, backfill=backfill
    )
    config = SimulationConfig(
        nmax=nmax,
        use_estimates=use_estimates,
        backfill=backfill,
        tau=DEFAULT_TAU if tau is None else tau,
    )
    return ScheduleResult(
        workload, out.start, policy.name, config, out.backfilled, out.n_events
    )


# ----------------------------------------------------------------------
# frozen copy of repro.sim.listsched.simulate_fixed_priority (pre-kernel)
# ----------------------------------------------------------------------
def oracle_fixed_priority(submit, runtime, size, priority, nmax) -> np.ndarray:
    """Run the frozen head-blocking fixed-priority loop; returns starts."""
    m = len(submit)
    if not (len(runtime) == len(size) == len(priority) == m):
        raise ValueError("attribute arrays must share one length")
    if m == 0:
        return np.empty(0, dtype=float)
    sizes = [int(x) for x in size]
    if max(sizes) > nmax:
        worst = max(range(m), key=lambda i: sizes[i])
        raise ValueError(
            f"job {worst} needs {sizes[worst]} cores"
            f" but the machine has only {nmax}"
        )

    subs = [float(x) for x in submit]
    runs = [float(x) for x in runtime]
    prios = [float(x) for x in priority]

    arrival_order = sorted(range(m), key=lambda i: (subs[i], i))
    start = [math.nan] * m

    free = nmax
    waiting: list[tuple[float, float, int]] = []
    completions: list[tuple[float, int]] = []
    ai = 0
    now = subs[arrival_order[0]]
    remaining = m

    while remaining:
        next_arrival = subs[arrival_order[ai]] if ai < m else math.inf
        next_completion = completions[0][0] if completions else math.inf
        event_time = min(next_arrival, next_completion)
        if not waiting and free == nmax:
            event_time = next_arrival
        now = max(now, event_time)

        while completions and completions[0][0] <= now:
            _, idx = heapq.heappop(completions)
            free += sizes[idx]
        while ai < m and subs[arrival_order[ai]] <= now:
            idx = arrival_order[ai]
            heapq.heappush(waiting, (prios[idx], subs[idx], idx))
            ai += 1

        while waiting and sizes[waiting[0][2]] <= free:
            _, _, idx = heapq.heappop(waiting)
            start[idx] = now
            free -= sizes[idx]
            heapq.heappush(completions, (now + runs[idx], idx))
            remaining -= 1

    return np.asarray(start, dtype=float)
