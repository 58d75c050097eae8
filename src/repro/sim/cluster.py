"""Homogeneous cluster resource model — the leaf allocator.

The paper's platform model (§3.1) is a set of ``nmax`` homogeneous cores
behind *any* interconnection topology — i.e. topology never constrains
placement, so the entire resource state is a single free-core counter.
This class enforces the conservation invariant (``free + busy == nmax`` at
all times).

It is the *single* free-core accounting implementation: the unified
kernel's Python event loop (:mod:`repro.sim.kernel`) allocates and
releases through one ``Cluster`` per run.  Platforms themselves only
describe capacity, so no ``Cluster`` outlives the run that built it.
(The C backend transcribes the same counter arithmetic; the parity
suite pins the two bit for bit.)
"""

from __future__ import annotations

from repro.util.validation import check_positive_int

__all__ = ["Cluster"]


class Cluster:
    """Core-counting allocator for an ``nmax``-core homogeneous machine."""

    __slots__ = ("nmax", "_free", "_allocations")

    def __init__(self, nmax: int) -> None:
        self.nmax = check_positive_int("nmax", nmax)
        self._free = self.nmax
        self._allocations: dict[int, int] = {}

    @property
    def free(self) -> int:
        """Number of currently idle cores."""
        return self._free

    def allocate(self, job_key: int, size: int) -> None:
        """Reserve *size* cores for *job_key*.

        Raises on oversubscription or double allocation — these indicate
        scheduler bugs and must never be silently absorbed.
        """
        size = check_positive_int("size", size)
        if size > self.nmax:
            raise ValueError(
                f"job {job_key} wants {size} cores on a {self.nmax}-core machine"
            )
        if size > self._free:
            raise RuntimeError(
                f"oversubscription: job {job_key} wants {size} cores,"
                f" only {self._free} free"
            )
        if job_key in self._allocations:
            raise RuntimeError(f"job {job_key} already holds an allocation")
        self._allocations[job_key] = size
        self._free -= size

    def release(self, job_key: int) -> int:
        """Release the allocation of *job_key*; returns the freed core count."""
        try:
            size = self._allocations.pop(job_key)
        except KeyError:
            raise RuntimeError(f"job {job_key} holds no allocation") from None
        self._free += size
        assert 0 <= self._free <= self.nmax, "conservation violated"
        return size

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Cluster(nmax={self.nmax}, free={self._free}, running={len(self._allocations)})"
