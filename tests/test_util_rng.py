"""Tests for repro.util.rng."""

import numpy as np
import pytest

from repro.util.rng import RngFactory, as_generator, spawn_generators


class TestAsGenerator:
    def test_none_gives_generator(self):
        assert isinstance(as_generator(None), np.random.Generator)

    def test_int_seed_reproducible(self):
        a = as_generator(7).random(5)
        b = as_generator(7).random(5)
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        assert not np.allclose(as_generator(1).random(5), as_generator(2).random(5))

    def test_generator_passthrough(self):
        g = np.random.default_rng(0)
        assert as_generator(g) is g

    def test_seedsequence_accepted(self):
        seq = np.random.SeedSequence(3)
        g = as_generator(seq)
        assert isinstance(g, np.random.Generator)


class TestSpawnGenerators:
    def test_count(self):
        assert len(spawn_generators(0, 5)) == 5

    def test_zero_count(self):
        assert spawn_generators(0, 0) == []

    def test_negative_count_raises(self):
        with pytest.raises(ValueError):
            spawn_generators(0, -1)

    def test_children_independent(self):
        a, b = spawn_generators(0, 2)
        assert not np.allclose(a.random(10), b.random(10))

    def test_reproducible(self):
        a1, b1 = spawn_generators(42, 2)
        a2, b2 = spawn_generators(42, 2)
        np.testing.assert_array_equal(a1.random(5), a2.random(5))
        np.testing.assert_array_equal(b1.random(5), b2.random(5))

    def test_prefix_stability(self):
        """First children identical regardless of total spawn count."""
        few = spawn_generators(9, 2)
        many = spawn_generators(9, 6)
        np.testing.assert_array_equal(few[0].random(5), many[0].random(5))
        np.testing.assert_array_equal(few[1].random(5), many[1].random(5))

    def test_from_generator_deterministic(self):
        g1 = np.random.default_rng(5)
        g2 = np.random.default_rng(5)
        a = spawn_generators(g1, 3)
        b = spawn_generators(g2, 3)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x.random(4), y.random(4))


class TestRngFactory:
    def test_same_name_same_stream(self):
        f = RngFactory(0)
        g = f.get("alpha")
        assert f.get("alpha") is g

    def test_order_independence(self):
        f1 = RngFactory(0)
        a_first = f1.get("a").random(5)
        f2 = RngFactory(0)
        f2.get("b")  # request another stream first
        a_second = f2.get("a").random(5)
        np.testing.assert_array_equal(a_first, a_second)

    def test_different_names_differ(self):
        f = RngFactory(0)
        assert not np.allclose(f.get("x").random(5), f.get("y").random(5))

    def test_seeds_are_ints(self):
        f = RngFactory(1)
        seeds = f.seeds("s", 4)
        assert len(seeds) == 4
        assert all(isinstance(s, int) for s in seeds)

    def test_root_seed_changes_streams(self):
        a = RngFactory(1).get("n").random(3)
        b = RngFactory(2).get("n").random(3)
        assert not np.allclose(a, b)

