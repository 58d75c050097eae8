"""Event-driven online scheduling simulator.

This is the evaluation substrate of the paper (§4.2's "on-line scheduling
algorithm"): jobs arrive into a centralized waiting queue; the scheduler
re-orders the queue with a *policy* at two event kinds — a job arrival or
a resource release — and starts the queue head while it fits.  Optionally
the EASY aggressive-backfilling pass runs when the head blocks.

Design notes
------------
* Since the kernel refactor this module is a *thin configuration* of the
  unified event loop in :mod:`repro.sim.kernel`: it validates inputs,
  maps the policy onto the kernel's scoring contract, and wraps the
  kernel output in a :class:`ScheduleResult`.
* Static policies (``policy.dynamic == False`` — their score does not
  depend on the current time and is elementwise per job) are scored for
  the **whole workload in one** ``policy.scores`` call before the event
  loop starts; the kernel keeps the queue sorted by
  ``(score, submit, index)``.  Dynamic policies are rescored per
  scheduling pass: WFP3 and UNICEF inside the C kernel from
  now-independent terms computed here once
  (:meth:`~repro.policies.base.Policy.kernel_terms`), under every
  backfill mode; custom dynamic policies without terms and
  ``REPRO_SIM_KERNEL=python`` with one ``policy.scores`` call over the
  queue on the Python loop.  Every path is bit-identical to the retained
  legacy loop (``tests/oracle_sim.py``).
* Scheduling decisions use the user estimate ``e`` when
  ``use_estimates=True`` (§4.2.2); execution always uses the actual
  runtime ``r``.
* NaN policy scores raise :class:`ValueError` at the kernel boundary
  and on every dynamic rescoring, and non-finite kernel terms before
  entering C (they would silently corrupt the queue order otherwise).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.obs.metrics import current_registry
from repro.sim.job import Workload
from repro.sim.kernel import simulate_events
from repro.sim.metrics import (
    DEFAULT_TAU,
    average_bounded_slowdown,
    bounded_slowdown,
    makespan,
    utilization,
    waiting_times,
)
from repro.util.stats import Summary, summarize
from repro.util.validation import check_positive_int

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.policies.base import Policy

__all__ = ["SimulationConfig", "ScheduleResult", "normalize_backfill", "simulate"]


#: Accepted backfill modes: ``False``/``None``/``"none"``/``"off"`` (off),
#: ``True``/``"easy"`` (EASY aggressive backfilling, the paper's
#: algorithm), ``"conservative"`` (every queued job holds a reservation)
#: and ``"hybrid"`` (the first
#: :data:`~repro.sim.conservative.HYBRID_RESERVATION_DEPTH` queued jobs hold
#: reservations, the tail backfills aggressively).
BACKFILL_MODES = (False, True, "none", "easy", "conservative", "hybrid")


def normalize_backfill(value: bool | str | None) -> str | None:
    """Canonicalise a backfill-mode spelling (the single vocabulary used
    by the engine, the evaluation matrix and the CLI)."""
    if value in (False, None, "none", "off"):
        return None
    if value in (True, "easy"):
        return "easy"
    if value in ("conservative", "hybrid"):
        return value
    raise ValueError(
        f"unknown backfill mode {value!r}; choose from {BACKFILL_MODES}"
    )


@dataclass(frozen=True)
class SimulationConfig:
    """Immutable description of one simulation setup.

    ``topology=None`` is the paper's flat machine; a topology tuple
    selects the partitioned platform (:mod:`repro.sim.platform`) with
    *distribution* choosing the job→leaf strategy and *platform_seed*
    feeding the ``random`` strategy's stream.
    """

    nmax: int
    use_estimates: bool = False
    backfill: bool | str = False
    tau: float = DEFAULT_TAU
    topology: tuple[int, ...] | None = None
    distribution: str = "round_robin"
    platform_seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "nmax", check_positive_int("nmax", self.nmax))
        if self.tau <= 0:
            raise ValueError(f"tau must be > 0, got {self.tau}")
        object.__setattr__(self, "backfill", normalize_backfill(self.backfill))
        from repro.sim.platform import normalize_distribution, normalize_topology

        object.__setattr__(self, "topology", normalize_topology(self.topology))
        object.__setattr__(
            self, "distribution", normalize_distribution(self.distribution)
        )

    @property
    def backfill_mode(self) -> str | None:
        """``None``, ``"easy"``, ``"conservative"`` or ``"hybrid"``."""
        return self.backfill  # type: ignore[return-value]


@dataclass(frozen=True)
class ScheduleResult:
    """Outcome of simulating one workload under one policy."""

    workload: Workload
    start: np.ndarray
    policy_name: str
    config: SimulationConfig
    backfilled: np.ndarray = field(default=None)  # type: ignore[assignment]
    n_events: int = 0
    #: per-job leaf assignment for partitioned platforms (None when flat)
    leaf: np.ndarray | None = None

    def __post_init__(self) -> None:
        if len(self.start) != len(self.workload):
            raise ValueError("start array length mismatch")
        if self.backfilled is None:
            object.__setattr__(
                self, "backfilled", np.zeros(len(self.workload), dtype=bool)
            )

    # ------------------------------------------------------------------
    @property
    def finish(self) -> np.ndarray:
        """Per-job completion times (actual runtimes)."""
        return self.start + self.workload.runtime

    @property
    def wait(self) -> np.ndarray:
        """Per-job waiting times."""
        return waiting_times(self.workload.submit, self.start)

    def bsld(self, tau: float | None = None) -> np.ndarray:
        """Per-job bounded slowdown (Eq. 1)."""
        return bounded_slowdown(
            self.wait, self.workload.runtime, tau if tau is not None else self.config.tau
        )

    @property
    def ave_bsld(self) -> float:
        """Average bounded slowdown over all jobs (Eq. 2)."""
        return average_bounded_slowdown(
            self.wait, self.workload.runtime, self.config.tau
        )

    @property
    def makespan(self) -> float:
        """Finish time of the last job."""
        return makespan(self.start, self.workload.runtime)

    @property
    def utilization(self) -> float:
        """Delivered machine utilization over the makespan."""
        return utilization(
            self.start, self.workload.runtime, self.workload.size, self.config.nmax
        )

    @property
    def backfill_count(self) -> int:
        """How many jobs ``backfilled`` flags; the count depends on the mode.

        * no backfilling — always 0;
        * ``easy`` — the jobs the EASY pass started behind the blocked
          waiting head (the in-order prefix before it is not counted);
        * ``conservative`` / ``hybrid`` — every job a replan pass started
          except the queue's first at that pass, so jobs that start in
          queue order right behind a started first job count too.
        """
        return int(self.backfilled.sum())

    def summary(self, tau: float | None = None) -> Summary:
        """Descriptive statistics of the per-job bounded slowdowns."""
        return summarize(self.bsld(tau))


def simulate(
    workload: Workload,
    policy: "Policy",
    nmax: int,
    *,
    use_estimates: bool = False,
    backfill: bool | str = False,
    tau: float = DEFAULT_TAU,
    topology: tuple[int, ...] | None = None,
    distribution: str = "round_robin",
    platform_seed: int = 0,
) -> ScheduleResult:
    """Simulate the online scheduling of *workload* under *policy*.

    Parameters mirror the paper's experimental axes: machine size
    (*nmax*), whether scheduling decisions see user estimates instead of
    actual runtimes (*use_estimates*), and backfilling (*backfill*:
    ``True``/``"easy"`` for the paper's EASY algorithm, ``"conservative"``
    for the strict every-job-reserved variant, ``"hybrid"`` for the
    queue-front-reserved middle ground) — plus the platform axes this
    library adds beyond the paper: *topology* partitions the machine
    into equal leaves, each running its own scheduler instance over the
    jobs the *distribution* strategy assigned to it
    (:mod:`repro.sim.platform`; *platform_seed* feeds the ``random``
    strategy).  ``topology=None`` keeps the paper's flat machine on the
    original kernel invocation, bit for bit.

    Returns a :class:`ScheduleResult`; raises if any job exceeds the
    machine size (or, when partitioned, a single leaf).
    """
    config = SimulationConfig(
        nmax=nmax, use_estimates=use_estimates, backfill=backfill, tau=tau,
        topology=topology, distribution=distribution, platform_seed=platform_seed,
    )
    nmax = config.nmax
    workload.validate_for_machine(nmax)
    n = len(workload)
    if n == 0:
        return ScheduleResult(
            workload, np.full(0, np.nan), policy.name, config,
            np.zeros(0, dtype=bool), 0,
        )

    subs = workload.submit
    procs = workload.estimate if use_estimates else workload.runtime

    # Static contract: scores are now-independent and elementwise, so
    # one whole-workload call (at any reference time) reproduces the
    # per-arrival-batch scores bit for bit — and any subset of them the
    # per-leaf scheduler instances see.  The contract is enforced
    # registry-wide by tests/test_policy_batch_contract.py.  Dynamic
    # policies' now-independent kernel terms are likewise computed once.
    scorer = policy.scores if policy.dynamic else None
    terms = policy.kernel_terms(procs, workload.size) if policy.dynamic else None
    scores = (
        None
        if policy.dynamic
        else policy.scores(float(subs[0]), subs, procs, workload.size)
    )

    if config.topology is None:
        outcome = simulate_events(
            subs,
            workload.runtime,
            procs,
            workload.size,
            nmax,
            static_scores=scores,
            scorer=scorer,
            terms=terms,
            backfill=config.backfill_mode,
        )
    else:
        from repro.sim.platform import PartitionedPlatform, simulate_partitioned

        platform = PartitionedPlatform(nmax, config.topology)
        outcome = simulate_partitioned(
            platform,
            subs,
            workload.runtime,
            procs,
            workload.size,
            static_scores=scores,
            scorer=scorer,
            terms=terms,
            backfill=config.backfill_mode,
            distribution=config.distribution,
            seed=config.platform_seed,
        )

    # Telemetry (no-op by default): one batch of counter increments per
    # whole-workload simulation — never per event or per job — so the
    # disabled path costs six null method calls for the entire run.
    # Counter names and semantics are unchanged from the pre-kernel loop.
    registry = current_registry()
    registry.inc("sim.runs")
    registry.inc("sim.events", outcome.n_events)
    registry.inc("sim.jobs_completed", n)
    registry.inc("sim.backfill_passes", outcome.n_backfill_passes)
    registry.inc("sim.replans_kept", outcome.n_replans_kept)
    registry.inc("sim.backfilled", int(outcome.backfilled.sum()))
    if outcome.leaf is not None:
        registry.inc("sim.leaves", platform.n_leaves)

    return ScheduleResult(
        workload, outcome.start, policy.name, config,
        outcome.backfilled, outcome.n_events, outcome.leaf,
    )
