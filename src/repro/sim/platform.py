"""Topology-partitioned platforms.

The paper's platform model (§3.1) is deliberately flat — ``nmax``
homogeneous cores where the interconnection topology never constrains
placement — and its conclusion names partitioned and heterogeneous
platforms as the open research direction.  This module models the
partitioned one so the evaluation matrix can sweep it.

* The paper's flat machine needs no platform object: the engine runs it
  through the bare kernel invocation, so flat runs keep their
  ``REPRO_SIM_KERNEL`` C-backend eligibility.
* :class:`PartitionedPlatform` — a topology tuple (e.g. ``(2, 4)`` → 8
  leaves) splits ``nmax`` cores into equal leaves; each leaf runs its
  own scheduler instance (one kernel event loop per leaf) over the jobs
  a *distribution strategy* assigned to it, and
  :func:`simulate_partitioned` merges the per-leaf completion streams
  back into one global result.  A platform is an immutable capacity
  description; allocation state lives only inside one simulation run,
  so a platform can be reused across runs.

Distribution strategies (:data:`DISTRIBUTIONS`) are deterministic given
the spec: ``round_robin`` deals jobs to leaves in arrival order,
``by_size`` greedily assigns each arrival to the least-loaded leaf by
requested work (``size * proc``, ties to the lowest leaf index), and
``random`` draws leaf indices from a named :class:`~repro.util.rng.RngFactory`
stream, so the assignment depends only on ``(seed, n_jobs, n_leaves)``.

Equivalence note: job→leaf assignment is decided at distribution time
and leaves share no cores, so simulating the leaves independently and
merging by original job index is exactly the interleaved cross-leaf
event loop — a leaf's events never influence another leaf's schedule.
A product-1 topology (``(1,)``, ``(1, 1)``) therefore reproduces the
flat kernel byte for byte (pinned by ``tests/test_sim_platform.py``),
which is why :func:`platform_identity` canonicalises it to the flat
fingerprint: existing caches and spec fingerprints stay valid.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Callable

import numpy as np

from repro.sim.kernel import KernelResult, simulate_events
from repro.util.rng import RngFactory
from repro.util.validation import check_positive_int

__all__ = [
    "DISTRIBUTIONS",
    "PartitionedPlatform",
    "distribute_jobs",
    "normalize_distribution",
    "normalize_topology",
    "platform_identity",
    "simulate_partitioned",
    "topology_label",
]

#: Job→leaf distribution strategies accepted by partitioned platforms.
DISTRIBUTIONS = ("round_robin", "by_size", "random")

#: Name of the :class:`~repro.util.rng.RngFactory` stream that the
#: ``random`` distribution draws leaf indices from.
RANDOM_STREAM = "platform.distribute"


def normalize_topology(value) -> tuple[int, ...] | None:
    """Canonicalise a topology spelling.

    ``None`` and the empty tuple mean *flat* (the paper's machine) and
    return ``None``; an integer becomes a one-level tuple; any other
    value must be an iterable of positive integers (each level's fanout,
    following the ``stmobo/scheduling`` exemplar where the leaf count is
    the product over levels).
    """
    if value is None:
        return None
    if isinstance(value, (int, np.integer)):
        value = (int(value),)
    try:
        topo = tuple(int(v) for v in value)
    except TypeError:
        raise ValueError(
            f"topology must be None, an int or a tuple of ints, got {value!r}"
        ) from None
    if not topo:
        return None
    if any(v < 1 for v in topo):
        raise ValueError(f"topology levels must be >= 1, got {topo}")
    return topo


def normalize_distribution(value: str | None) -> str:
    """Canonicalise a distribution-strategy name (default ``round_robin``)."""
    if value is None:
        return "round_robin"
    if value not in DISTRIBUTIONS:
        raise ValueError(
            f"unknown distribution {value!r}; choose from {DISTRIBUTIONS}"
        )
    return value


def topology_label(topology: tuple[int, ...]) -> str:
    """Human/CLI spelling of a topology tuple: ``(2, 4)`` -> ``"2x4"``."""
    return "x".join(str(v) for v in topology)


def platform_identity(
    topology, distribution: str | None = None, seed: int | None = None
) -> dict | None:
    """Result-relevant platform identity, or ``None`` when flat.

    This is the payload that enters spec fingerprints, cache cell keys
    and report config blocks.  Flat platforms — and product-1
    topologies, which are provably byte-identical to flat — return
    ``None`` so every pre-platform fingerprint and cache entry remains
    valid.  The seed participates only under the ``random`` strategy
    (the only one whose assignment depends on it).
    """
    topo = normalize_topology(topology)
    if topo is None or math.prod(topo) == 1:
        return None
    dist = normalize_distribution(distribution)
    doc: dict = {"topology": list(topo), "distribution": dist}
    if dist == "random":
        doc["seed"] = int(seed or 0)
    return doc


class PartitionedPlatform:
    """``nmax`` cores split into equal leaves by a topology tuple.

    ``topology=(2, 4)`` builds a two-level tree with ``2 * 4 = 8``
    leaves; ``nmax`` must divide evenly across them (the exemplar's
    constraint) and every job must fit inside one leaf.  Leaf labels are
    the dot-joined tree paths (``"0.0" .. "1.3"``), ordered by path.
    """

    def __init__(self, nmax: int, topology) -> None:
        nmax = check_positive_int("nmax", nmax)
        topo = normalize_topology(topology)
        if topo is None:
            raise ValueError("PartitionedPlatform needs a topology")
        n_leaves = math.prod(topo)
        leaf_cores, remainder = divmod(nmax, n_leaves)
        if remainder != 0:
            raise ValueError(
                f"nmax={nmax} does not divide evenly over the"
                f" {n_leaves} leaves of topology {topology_label(topo)}"
            )
        labels = [
            ".".join(str(i) for i in path)
            for path in itertools.product(*(range(v) for v in topo))
        ]
        self.nmax = nmax
        self.topology = topo
        self.n_leaves = n_leaves
        self.leaf_cores = leaf_cores
        self.leaf_labels = tuple(labels)

    def validate_sizes(self, size: np.ndarray) -> None:
        """Every job must fit inside one leaf (leaves are the placement unit)."""
        size = np.asarray(size)
        if size.size and int(size.max()) > self.leaf_cores:
            idx = int(np.argmax(size))
            raise ValueError(
                f"job {idx} wants {int(size[idx])} cores but topology"
                f" {topology_label(self.topology)} leaves have only"
                f" {self.leaf_cores} ({self.nmax} cores / {self.n_leaves} leaves)"
            )


def distribute_jobs(
    platform: PartitionedPlatform,
    submit: np.ndarray,
    proc: np.ndarray,
    size: np.ndarray,
    *,
    distribution: str = "round_robin",
    seed: int = 0,
) -> np.ndarray:
    """Assign every job to a leaf; returns an ``int64`` leaf index per job.

    All strategies work in arrival order (``(submit, index)``), so the
    assignment is a pure function of the workload, the strategy and —
    for ``random`` only — the seed.  Strategies never look at simulated
    state: assignment happens *before* the event loops run, which is
    what makes per-leaf simulation order-independent and parallel-safe.
    """
    distribution = normalize_distribution(distribution)
    platform.validate_sizes(size)
    n = int(np.asarray(submit).shape[0])
    n_leaves = platform.n_leaves
    assign = np.empty(n, dtype=np.int64)
    if n == 0:
        return assign
    order = np.argsort(np.asarray(submit, dtype=np.float64), kind="stable")
    if distribution == "round_robin":
        assign[order] = np.arange(n, dtype=np.int64) % n_leaves
    elif distribution == "by_size":
        # Greedy least-loaded by requested work (size * proc); ties go
        # to the lowest leaf index, so the result is deterministic.  The
        # heap's minimum (load, leaf) is the least-loaded, lowest leaf.
        loads = [(0.0, k) for k in range(n_leaves)]  # sorted, so a heap
        work = (
            np.asarray(size, dtype=np.float64) * np.asarray(proc, dtype=np.float64)
        ).tolist()
        for idx in order.tolist():
            load, leaf = loads[0]
            assign[idx] = leaf
            heapq.heapreplace(loads, (load + work[idx], leaf))
    else:  # random
        rng = RngFactory(seed).get(RANDOM_STREAM)
        assign[order] = rng.integers(0, n_leaves, size=n, dtype=np.int64)
    return assign


def simulate_partitioned(
    platform: PartitionedPlatform,
    submit: np.ndarray,
    runtime: np.ndarray,
    proc: np.ndarray,
    size: np.ndarray,
    *,
    static_scores: np.ndarray | None = None,
    scorer: Callable | None = None,
    terms: tuple[int, np.ndarray, np.ndarray] | None = None,
    backfill: str | None = None,
    distribution: str = "round_robin",
    seed: int = 0,
) -> KernelResult:
    """Run one per-leaf scheduler instance per topology leaf and merge.

    Each leaf receives its assigned job subset and runs the unified
    kernel (:func:`~repro.sim.kernel.simulate_events`) against
    ``leaf_cores``; per-leaf static-score runs, and dynamic ones with
    kernel *terms* (elementwise, so sliced per leaf like every other
    per-job array), keep the C-backend fast path.  Start times and
    backfill flags are scattered back to the original job indices, and
    event/pass counters are summed — the cross-leaf completion-event
    merge (see the module docstring for why this is exactly the
    interleaved loop).  The result's ``leaf`` holds the job→leaf
    assignment.
    """
    submit = np.ascontiguousarray(submit, dtype=np.float64)
    runtime = np.ascontiguousarray(runtime, dtype=np.float64)
    proc = np.ascontiguousarray(proc, dtype=np.float64)
    size = np.ascontiguousarray(size, dtype=np.int64)
    assign = distribute_jobs(
        platform, submit, proc, size, distribution=distribution, seed=seed
    )
    n = submit.shape[0]
    start = np.full(n, np.nan)
    backfilled = np.zeros(n, dtype=bool)
    n_events = n_passes = n_kept = 0
    for leaf in range(platform.n_leaves):
        idx = np.flatnonzero(assign == leaf)
        if idx.size == 0:
            continue
        result: KernelResult = simulate_events(
            submit[idx],
            runtime[idx],
            proc[idx],
            size[idx],
            platform.leaf_cores,
            static_scores=None if static_scores is None else static_scores[idx],
            scorer=scorer,
            terms=None if terms is None else (terms[0], terms[1][idx], terms[2][idx]),
            backfill=backfill,
        )
        start[idx] = result.start
        backfilled[idx] = result.backfilled
        n_events += result.n_events
        n_passes += result.n_backfill_passes
        n_kept += result.n_replans_kept
    return KernelResult(start, backfilled, n_events, n_passes, n_kept, assign)
