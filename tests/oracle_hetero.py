"""Frozen pre-kernel heterogeneous dispatch loop — the golden oracle.

A verbatim copy of the head-blocking loop that
``repro.sim.hetero.hetero_simulate`` ran on its own before it became a
configuration of the unified kernel (``repro.sim.kernel``).  Two
mechanical substitutions keep it self-contained: the completion-event
calendar (formerly ``repro.sim.events.CompletionQueue``) is inlined as a
raw ``heapq``, and the per-architecture pools are plain free-core
counters built per call from a ``{arch: cores}`` capacity mapping (the
old loop allocated on the caller's ``HeteroPlatform`` pools).

The parity test (``tests/test_sim_hetero.py``) requires the live
dispatcher to reproduce this loop's ``start`` bytes, ``chosen_arch`` and
``dispatch_counts`` exactly.  Do not "clean up" or optimise this file —
its only value is that it does not change.
"""

from __future__ import annotations

import heapq
import math

import numpy as np

__all__ = ["oracle_hetero_simulate"]


def _best_variant_now(job, free, now):
    """Earliest-finishing variant that fits right now (None if none)."""
    best = None
    for arch in sorted(job.variants):
        if arch not in free:
            continue
        variant = job.variants[arch]
        if variant.size <= free[arch]:
            key = (now + variant.runtime, arch)
            if best is None or key < best:
                best = key
    return best[1] if best else None


def oracle_hetero_simulate(jobs, policy, capacity):
    """Return ``(start, chosen_arch, dispatch_counts)`` of the old loop."""
    free = dict(capacity)
    n = len(jobs)
    start = np.full(n, np.nan)
    chosen = [""] * n
    dispatch = {a: 0 for a in capacity}
    if n == 0:
        return start, chosen, dispatch

    order = sorted(range(n), key=lambda i: (jobs[i].submit, i))
    submits = np.array([j.submit for j in jobs])
    ref_runtime = np.array([j.ref.runtime for j in jobs])
    ref_size = np.array([float(j.ref.size) for j in jobs])

    completions = []
    arch_of_running = {}
    queue = []
    ai = 0
    started = 0
    now = jobs[order[0]].submit

    def schedule_pass(at):
        nonlocal started
        while queue:
            q = np.asarray(queue)
            scores = policy.scores(at, submits[q], ref_runtime[q], ref_size[q])
            ranked = [int(q[i]) for i in np.lexsort((q, submits[q], scores))]
            head = ranked[0]
            arch = _best_variant_now(jobs[head], free, at)
            if arch is None:
                return  # head blocks
            variant = jobs[head].variants[arch]
            free[arch] -= variant.size
            arch_of_running[head] = arch
            start[head] = at
            chosen[head] = arch
            dispatch[arch] += 1
            heapq.heappush(completions, (at + variant.runtime, head))
            queue.remove(head)
            started += 1

    while started < n:
        next_arrival = jobs[order[ai]].submit if ai < n else np.inf
        next_completion = completions[0][0] if completions else math.inf
        if not queue and not arch_of_running:
            event_time = next_arrival
        else:
            event_time = min(next_arrival, next_completion)
        now = max(now, event_time)

        while completions and completions[0][0] <= now:
            _, idx = heapq.heappop(completions)
            arch = arch_of_running.pop(idx)
            free[arch] += jobs[idx].variants[arch].size
        while ai < n and jobs[order[ai]].submit <= now:
            queue.append(order[ai])
            ai += 1
        schedule_pass(now)

    return start, chosen, dispatch
