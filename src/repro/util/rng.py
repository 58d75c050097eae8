"""Reproducible random-number management.

Every stochastic component in the library (workload models, permutation
trials, estimate models) accepts either an integer seed or a
:class:`numpy.random.Generator`.  Centralising the coercion here keeps the
whole pipeline reproducible from a single root seed: experiments spawn
independent child generators with :func:`spawn_generators`, which uses
NumPy's ``SeedSequence`` spawning so children are statistically independent
regardless of how many are created.
"""

from __future__ import annotations

import numpy as np

SeedLike = int | np.random.Generator | np.random.SeedSequence | None


def as_generator(seed: SeedLike = None) -> np.random.Generator:
    """Coerce *seed* into a :class:`numpy.random.Generator`.

    Passing an existing generator returns it unchanged (shared state),
    which lets callers thread one stream through several components when
    they explicitly want coupling.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def spawn_seed_sequences(seed: SeedLike, count: int) -> list[np.random.SeedSequence]:
    """The *count* child :class:`~numpy.random.SeedSequence`\\ s of *seed*.

    This is the raw material behind :func:`spawn_generators`.  Child ``k``
    depends only on ``(seed, k)``, never on how many siblings are spawned
    or in which order they are consumed — which is what lets the parallel
    runtime hand child ``k`` to any worker process and still reproduce the
    serial stream bit for bit.
    """
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    if isinstance(seed, np.random.SeedSequence):
        seq = seed
    elif isinstance(seed, np.random.Generator):
        # Derive a SeedSequence from the generator so spawning is still
        # deterministic given the generator's current state.
        seq = np.random.SeedSequence(seed.integers(0, 2**63 - 1, size=4).tolist())
    else:
        seq = np.random.SeedSequence(seed)
    return list(seq.spawn(count))


def spawn_generators(seed: SeedLike, count: int) -> list[np.random.Generator]:
    """Create *count* independent generators derived from *seed*.

    Independence holds for any value of *count*; adding more children later
    does not perturb the streams of earlier ones when the same root seed is
    used with a larger count (children are taken in order).
    """
    return [np.random.default_rng(child) for child in spawn_seed_sequences(seed, count)]


class RngFactory:
    """Deterministic factory of named random streams.

    Components ask for a stream by name (``factory.get("lublin")``); the
    same name always yields the same stream for a given root seed, no
    matter the order of requests.  This decouples reproducibility from
    call ordering, which matters when experiments run policies in
    different orders.
    """

    def __init__(self, root_seed: int | None = 0) -> None:
        self._root = np.random.SeedSequence(root_seed)
        self._cache: dict[str, np.random.Generator] = {}

    def get(self, name: str) -> np.random.Generator:
        """Return the generator associated with *name* (created on demand)."""
        if name not in self._cache:
            # Hash the name into spawn-key material so the mapping is
            # stable across sessions and insertion orders.
            key = [b for b in name.encode("utf-8")]
            seq = np.random.SeedSequence(
                entropy=self._root.entropy, spawn_key=tuple(key)
            )
            self._cache[name] = np.random.default_rng(seq)
        return self._cache[name]

    def seeds(self, name: str, count: int) -> list[int]:
        """Return *count* deterministic integer seeds for stream *name*."""
        gen = self.get(name)
        return [int(x) for x in gen.integers(0, 2**62, size=count)]

