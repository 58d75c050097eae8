"""Heterogeneous-platform scheduling — the paper's future-work prototype.

The conclusion of the paper sketches a second research direction:
platforms "containing processing units with distinct architectures such
as GPUs and MICs, where multiple implementations, aiming a specific
architecture, are available for the same task and the scheduler needs to
select one of these implementations to be executed".

This module is a working prototype of that setting, built on the same
abstractions as the homogeneous engine:

* a :class:`HeteroPlatform` declares one core pool per architecture,
* a :class:`HeteroJob` carries one :class:`Variant` (runtime + resource
  requirement) per architecture it has an implementation for,
* :func:`hetero_simulate` runs the paper's online algorithm where the
  queue is ordered by an ordinary :class:`~repro.policies.base.Policy`
  (scored on each job's *reference* variant) and the dispatcher picks,
  for the queue head, the **earliest-finishing variant that fits now**
  (minimum of ``now + runtime_variant`` over architectures with free
  capacity).

The dispatcher is a configuration of the unified kernel's head-blocking
event loop (:mod:`repro.sim.kernel`, no backfilling): the only
heterogeneous logic is the placement rule above, which replaces the
single-pool fit test.  If no variant of the head fits, nothing overtakes
it, which makes its behaviour directly comparable with the homogeneous
engine's no-backfill mode — tests assert exact equivalence on
single-architecture platforms.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.sim.cluster import Cluster
from repro.sim.kernel import _simulate_py, validate_scores
from repro.sim.metrics import DEFAULT_TAU, average_bounded_slowdown, bounded_slowdown
from repro.sim.platform import Platform

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.policies.base import Policy
    from repro.sim.job import Workload

__all__ = [
    "ArchSpec",
    "HeteroJob",
    "HeteroPlatform",
    "HeteroResult",
    "Variant",
    "hetero_simulate",
    "parse_arch_specs",
    "workload_to_hetero_jobs",
]


@dataclass(frozen=True, slots=True)
class ArchSpec:
    """One architecture pool as spelled on the CLI: ``name:cores[:speedup]``.

    *speedup* scales the reference runtime (``runtime / speedup`` on this
    architecture); the first spec in a list is the reference architecture
    (speedup 1.0 by convention — what the submitting user estimated).
    """

    name: str
    cores: int
    speedup: float = 1.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("architecture name must be non-empty")
        if self.cores < 1:
            raise ValueError(f"arch {self.name!r}: cores must be >= 1")
        if self.speedup <= 0:
            raise ValueError(f"arch {self.name!r}: speedup must be > 0")


def parse_arch_specs(values: tuple[str, ...] | list[str]) -> list[ArchSpec]:
    """Parse ``name:cores[:speedup]`` spellings (e.g. ``cpu:256,gpu:64:8``).

    The first entry is the reference architecture.  Raises
    :class:`ValueError` on malformed entries or duplicate names.
    """
    if not values:
        raise ValueError("need at least one architecture spec")
    specs: list[ArchSpec] = []
    seen: set[str] = set()
    for text in values:
        parts = str(text).split(":")
        if len(parts) not in (2, 3):
            raise ValueError(
                f"bad architecture spec {text!r}; expected name:cores[:speedup]"
            )
        name = parts[0].strip()
        try:
            cores = int(parts[1])
            speedup = float(parts[2]) if len(parts) == 3 else 1.0
        except ValueError:
            raise ValueError(
                f"bad architecture spec {text!r}; expected name:cores[:speedup]"
            ) from None
        if name in seen:
            raise ValueError(f"duplicate architecture name {name!r}")
        seen.add(name)
        specs.append(ArchSpec(name, cores, speedup))
    return specs


@dataclass(frozen=True, slots=True)
class Variant:
    """One implementation of a job for one architecture."""

    runtime: float
    size: int

    def __post_init__(self) -> None:
        if self.runtime <= 0:
            raise ValueError("variant runtime must be > 0")
        if self.size < 1:
            raise ValueError("variant size must be >= 1")


@dataclass(frozen=True)
class HeteroJob:
    """A rigid job with per-architecture implementations.

    ``variants`` maps architecture name (e.g. ``"cpu"``, ``"gpu"``) to a
    :class:`Variant`.  ``reference`` names the variant whose (runtime,
    size) feed the queue-ordering policy — by convention the portable
    CPU implementation, which is what a submitting user estimates.
    """

    job_id: int
    submit: float
    variants: dict[str, Variant]
    reference: str = "cpu"

    def __post_init__(self) -> None:
        if not self.variants:
            raise ValueError(f"job {self.job_id}: needs at least one variant")
        if self.reference not in self.variants:
            raise ValueError(
                f"job {self.job_id}: reference {self.reference!r} has no variant"
            )
        if self.submit < 0:
            raise ValueError(f"job {self.job_id}: submit must be >= 0")

    @property
    def ref(self) -> Variant:
        """The reference variant (policy-visible attributes)."""
        return self.variants[self.reference]


class HeteroPlatform(Platform):
    """A set of named homogeneous pools (one per architecture).

    Like every :class:`~repro.sim.platform.Platform` it only describes
    capacity (``pools`` maps architecture to core count); each
    :func:`hetero_simulate` call allocates on its own per-run pools, so
    one platform can serve any number of runs.
    """

    def validate(self, jobs: list[HeteroJob]) -> None:
        """Every job must have >= 1 variant that can ever run."""
        for job in jobs:
            runnable = [
                a
                for a, v in job.variants.items()
                if a in self.pools and v.size <= self.pools[a]
            ]
            if not runnable:
                raise ValueError(
                    f"job {job.job_id}: no variant fits any pool"
                    f" (variants: {sorted(job.variants)})"
                )


@dataclass(frozen=True)
class HeteroResult:
    """Outcome of a heterogeneous simulation."""

    jobs: list[HeteroJob]
    start: np.ndarray
    chosen_arch: list[str]
    policy_name: str
    tau: float = DEFAULT_TAU
    #: per-architecture dispatch counts
    dispatch_counts: dict[str, int] = field(default_factory=dict)

    @property
    def executed_runtime(self) -> np.ndarray:
        """Runtime of the variant each job actually executed."""
        return np.array(
            [job.variants[a].runtime for job, a in zip(self.jobs, self.chosen_arch)]
        )

    @property
    def wait(self) -> np.ndarray:
        """Per-job waiting times."""
        return self.start - np.array([j.submit for j in self.jobs])

    def bsld(self) -> np.ndarray:
        """Bounded slowdown per job, on the executed variant's runtime."""
        return bounded_slowdown(self.wait, self.executed_runtime, self.tau)

    @property
    def ave_bsld(self) -> float:
        """Average bounded slowdown (Eq. 2) over all jobs."""
        return average_bounded_slowdown(self.wait, self.executed_runtime, self.tau)


class _Placement:
    """Per-run allocation state: one :class:`Cluster` per architecture.

    Implements the kernel's placement protocol (``free``, ``place``,
    ``release``) and records each job's chosen architecture.
    """

    def __init__(self, jobs: list[HeteroJob], platform: HeteroPlatform) -> None:
        self.pools = {arch: Cluster(cores) for arch, cores in platform.pools.items()}
        self.free = platform.total_cores
        # per job: (arch, runtime, size) of every variant the platform can host
        self.options = [
            [
                (arch, job.variants[arch].runtime, job.variants[arch].size)
                for arch in sorted(job.variants)
                if arch in self.pools
            ]
            for job in jobs
        ]
        self.chosen = [""] * len(jobs)
        self.dispatch = {arch: 0 for arch in platform.pools}

    def place(self, idx: int, now: float) -> float | None:
        """Start job *idx* on its earliest-finishing variant that fits now."""
        best = None
        for arch, runtime, size in self.options[idx]:
            if self.pools[arch].fits(size):
                key = (now + runtime, arch)
                if best is None or key < best[0]:
                    best = (key, runtime, size)
        if best is None:
            return None
        (_, arch), runtime, size = best
        self.pools[arch].allocate(idx, size)
        self.free -= size
        self.chosen[idx] = arch
        self.dispatch[arch] += 1
        return runtime

    def release(self, idx: int) -> None:
        self.free += self.pools[self.chosen[idx]].release(idx)


def hetero_simulate(
    jobs: list[HeteroJob],
    policy: "Policy",
    platform: HeteroPlatform,
    *,
    tau: float = DEFAULT_TAU,
) -> HeteroResult:
    """Online scheduling over a heterogeneous platform.

    Queue order: *policy* scores each job's reference variant
    ``(submit, runtime_ref, size_ref)``; lower runs first.  Dispatch: the
    queue head takes the earliest-finishing variant that fits now; if no
    variant fits, the head blocks (no overtaking).  Static policies are
    scored once for the whole workload, dynamic ones once per scheduling
    pass — the kernel's scoring contract.
    """
    platform.validate(jobs)
    placement = _Placement(jobs, platform)
    n = len(jobs)
    if n == 0:
        start = np.full(0, np.nan)
        return HeteroResult(jobs, start, [], policy.name, tau, placement.dispatch)

    submits = np.array([j.submit for j in jobs])
    ref_runtime = np.array([j.ref.runtime for j in jobs])
    # with a placement the kernel reads sizes only to score them; float
    # reference sizes keep the score bits of the pre-kernel loop
    ref_size = np.array([float(j.ref.size) for j in jobs])
    order = np.argsort(submits, kind="stable")
    scorer = policy.scores if policy.dynamic else None
    scores = None
    if scorer is None:
        scores = np.ascontiguousarray(
            policy.scores(float(submits[order[0]]), submits, ref_runtime, ref_size),
            dtype=np.float64,
        )
        validate_scores(scores)
    result = _simulate_py(
        submits, ref_runtime, ref_runtime, ref_size, platform.total_cores,
        0, scores, scorer, order, placement,
    )
    return HeteroResult(
        jobs, result.start, placement.chosen, policy.name, tau, placement.dispatch
    )


def workload_to_hetero_jobs(
    workload: "Workload", archs: list[ArchSpec]
) -> list[HeteroJob]:
    """Lift a homogeneous :class:`~repro.sim.job.Workload` onto *archs*.

    The first spec is the reference architecture: its variant carries the
    workload's own (runtime, size).  Every other architecture gets a
    variant with ``runtime / speedup`` for jobs that fit its pool — jobs
    too large for a pool simply have no variant there (and
    :meth:`HeteroPlatform.validate` rejects jobs that fit nowhere).
    """
    if not archs:
        raise ValueError("need at least one architecture spec")
    reference = archs[0]
    jobs: list[HeteroJob] = []
    for i in range(len(workload)):
        submit = float(workload.submit[i])
        runtime = float(workload.runtime[i])
        size = int(workload.size[i])
        variants = {
            arch.name: Variant(runtime / arch.speedup, size)
            for arch in archs
            if size <= arch.cores
        }
        if reference.name not in variants:
            raise ValueError(
                f"job {i} wants {size} cores but the reference architecture"
                f" {reference.name!r} has only {reference.cores}"
            )
        jobs.append(HeteroJob(i, submit, variants, reference=reference.name))
    return jobs
