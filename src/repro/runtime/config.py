"""Executor configuration and the run knobs it resolves.

:class:`ExecutorConfig` is the single declarative knob set every parallel
entry point accepts: how many worker processes, and how the work-list is
cut into chunks.

It is also the one place the three run knobs are read, each by one
resolver — :func:`resolve_workers` (``REPRO_WORKERS``),
:func:`resolve_scale` (``REPRO_SCALE``) and :func:`resolve_sim_kernel`
(``REPRO_SIM_KERNEL``).  Each takes an explicit argument first, then the
environment (read at call time), then its default.  A bad value raises
with the valid choices and, when it came from the environment, the
variable's name.

Determinism note: workers, chunk sizes and the kernel choice only
change how the deterministic work-list is dispatched and run (see
:mod:`repro.runtime.sharding` and the kernel parity suites), never the
per-item random streams.  None of them may ever enter a fingerprint or
cache key; the scale preset reaches one only through the spec fields
it fills in.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

__all__ = [
    "ExecutorConfig",
    "resolve_scale",
    "resolve_sim_kernel",
    "resolve_workers",
]


def _pick(value, var: str, default) -> tuple[object, str]:
    """``(value, source)``: *value*, else ``$var``, else *default*;
    *source* names the variable for error messages when it was used."""
    if value is not None:
        return value, ""
    env = os.environ.get(var, "").strip()
    if env:
        return env, f" (from ${var})"
    return default, ""


def resolve_workers(workers: int | str | None = None) -> int:
    """The worker count: *workers*, else ``$REPRO_WORKERS``, else 1.

    Accepts an ``int``, a numeric string or ``"auto"``, which resolves
    to the CPUs this process may run on (at least 1).
    """
    value, source = _pick(workers, "REPRO_WORKERS", 1)
    if isinstance(value, str):
        if value == "auto":
            try:
                # Respect CPU affinity / cgroup limits where the OS
                # exposes them; plain cpu_count() oversubscribes
                # containers pinned to a subset of the host's cores.
                return max(len(os.sched_getaffinity(0)), 1)
            except AttributeError:  # platforms without sched_getaffinity
                return max(os.cpu_count() or 1, 1)
        try:
            value = int(value)
        except ValueError:
            raise ValueError(
                f"workers must be a positive integer or 'auto', got"
                f" {value!r}{source}"
            ) from None
    count = int(value)
    if count < 1:
        raise ValueError(f"workers must be >= 1, got {count}{source}")
    return count


def resolve_scale(scale: str | None = None) -> str:
    """The scale preset name: *scale*, else ``$REPRO_SCALE``, else ``small``.

    Unknown names raise ``KeyError``, like
    :func:`repro.experiments.scale.get_scale`.
    """
    from repro.experiments.scale import SCALES  # that module imports this one

    value, source = _pick(scale, "REPRO_SCALE", "small")
    if value not in SCALES:
        raise KeyError(
            f"unknown scale {value!r}{source}; available: {', '.join(SCALES)}"
        )
    return value


def resolve_sim_kernel(mode: str | None = None) -> str:
    """The simulation kernel: *mode*, else ``$REPRO_SIM_KERNEL``, else ``auto``.

    ``auto`` uses the C kernel when it builds, ``c`` requires it and
    ``python`` never uses it.
    """
    value, source = _pick(mode, "REPRO_SIM_KERNEL", "auto")
    value = value.lower()
    if value not in ("auto", "c", "python"):
        raise ValueError(
            f"unknown simulation kernel {value!r}{source}; "
            "choose from auto, c, python"
        )
    return value


@dataclass(frozen=True)
class ExecutorConfig:
    """How the runtime dispatches a work-list.

    Attributes
    ----------
    workers:
        Number of worker processes, or ``"auto"`` for one per CPU.
        ``None`` (the default) resolves through :func:`resolve_workers`,
        and construction stores the resolved count.  ``1`` runs
        everything serially in-process — no pool, no pickling.
    chunk_size:
        Items per dispatched chunk.  ``None`` picks ``ceil(n / (4 *
        workers))`` so each worker sees ~4 chunks (good load balancing
        without drowning in IPC).  Chunking never affects results.
    """

    workers: int | str | None = None
    chunk_size: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "workers", resolve_workers(self.workers))
        if self.chunk_size is not None and self.chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {self.chunk_size}")

    @property
    def n_workers(self) -> int:
        """The resolved worker count."""
        return self.workers

    def chunk_for(self, n_items: int) -> int:
        """The chunk size used for a work-list of *n_items*."""
        if self.chunk_size is not None:
            return self.chunk_size
        return max(1, -(-n_items // (4 * self.n_workers)))
