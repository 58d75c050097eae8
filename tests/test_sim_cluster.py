"""Tests for repro.sim.cluster."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sim.cluster import Cluster


class TestClusterBasics:
    def test_initial_state(self):
        c = Cluster(16)
        assert c.free == 16
        assert c.nmax == 16

    def test_allocate_release(self):
        c = Cluster(16)
        c.allocate(1, 10)
        assert c.free == 6
        freed = c.release(1)
        assert freed == 10
        assert c.free == 16

    def test_fits(self):
        """A job fits exactly when it needs no more than the free cores."""
        c = Cluster(4)
        c.allocate(1, 3)
        c.allocate(2, 1)
        assert c.free == 0
        c.release(2)
        with pytest.raises(RuntimeError, match="oversubscription"):
            c.allocate(3, 2)

    def test_oversubscription_rejected(self):
        c = Cluster(4)
        c.allocate(1, 3)
        with pytest.raises(RuntimeError, match="oversubscription"):
            c.allocate(2, 2)

    def test_job_larger_than_machine(self):
        c = Cluster(4)
        with pytest.raises(ValueError):
            c.allocate(1, 5)

    def test_double_allocation_rejected(self):
        c = Cluster(8)
        c.allocate(1, 2)
        with pytest.raises(RuntimeError, match="already holds"):
            c.allocate(1, 2)

    def test_release_unknown_rejected(self):
        c = Cluster(8)
        with pytest.raises(RuntimeError, match="no allocation"):
            c.release(99)

    def test_bad_nmax(self):
        with pytest.raises(ValueError):
            Cluster(0)


class TestConservationProperty:
    @given(st.lists(st.integers(min_value=1, max_value=8), min_size=1, max_size=50))
    def test_free_plus_busy_invariant(self, sizes):
        """Random allocate/release sequences preserve free + busy == nmax,
        busy being the cores the live allocations hold."""
        c = Cluster(32)
        rng = np.random.default_rng(0)
        live: dict[int, int] = {}
        for key, size in enumerate(sizes):
            if live and rng.random() < 0.4:
                victim = int(rng.choice(list(live)))
                c.release(victim)
                del live[victim]
            if size <= c.free:
                c.allocate(key, size)
                live[key] = size
            assert c.free + sum(live.values()) == 32
        for key in list(live):
            c.release(key)
        assert c.free == 32
