"""Tests for the parallel execution runtime (repro.runtime).

The load-bearing guarantees: (1) serial and parallel runs are
bit-identical for any worker count, (2) a second pipeline run with the
same config loads from the artifact cache without re-simulating, (3)
``TrialRunner.map`` and progress aggregation obey their contracts.
"""

import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import repro.runtime.executor as executor_mod
from repro.core.distribution import ScoreDistribution
from repro.core.pipeline import (
    PipelineConfig,
    build_distribution,
    distribution_cache_key,
)
from repro.obs import MetricsRegistry, use_registry
from repro.runtime import (
    ArtifactCache,
    TrialRunner,
    config_fingerprint,
    resolve_workers,
)
from repro.runtime.cache import (
    ARTIFACT_FORMAT_VERSION,
    load_trial_artifact,
    save_trial_artifact,
)

#: Small enough for process fan-out in a test, big enough to shard.
SMALL = PipelineConfig(n_tuples=3, trials_per_tuple=32, seed=5)

RESULT_FIELDS = ("runtime", "size", "submit", "scores", "n_trials")


def _save_v1_artifact(path, results, distribution):
    """An artifact in the v1 layout, which also kept two per-trial arrays
    per tuple.  Its scores are doubled, so a read of it would show."""
    arrays = {
        "format_version": np.array([1], dtype=np.int64),
        "n_results": np.array([len(results)], dtype=np.int64),
    }
    for field in ("runtime", "size", "submit", "score"):
        arrays[f"dist_{field}"] = getattr(distribution, field)
    for i, r in enumerate(results):
        for field in ("runtime", "size", "submit"):
            arrays[f"trial{i}_{field}"] = getattr(r, field)
        arrays[f"trial{i}_scores"] = 2 * r.scores
        arrays[f"trial{i}_first_task"] = np.arange(r.n_trials) % len(r.scores)
        arrays[f"trial{i}_trial_avebsld"] = np.ones(r.n_trials)
    np.savez_compressed(path, **arrays)


def _nothing(x):
    return None


def _nap(x):
    time.sleep(0.01)
    return x


def assert_results_identical(a, b):
    assert len(a) == len(b)
    for ra, rb in zip(a, b):
        for field in RESULT_FIELDS:
            np.testing.assert_array_equal(getattr(ra, field), getattr(rb, field))


class TestResolveWorkers:
    def test_int_passthrough(self):
        assert resolve_workers(3) == 3

    def test_numeric_string(self):
        assert resolve_workers("2") == 2

    def test_auto(self):
        assert resolve_workers("auto") >= 1

    @pytest.mark.parametrize("bad", [0, -1, "nope", "0"])
    def test_invalid(self, bad):
        with pytest.raises(ValueError):
            resolve_workers(bad)


class TestSerialParallelEquivalence:
    @pytest.fixture(scope="class")
    def serial(self):
        np.seterr(all="ignore")
        return build_distribution(SMALL)

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_bit_identical(self, serial, workers):
        _, serial_results, serial_dist = serial
        _, par_results, par_dist = build_distribution(SMALL, workers=workers)
        assert_results_identical(serial_results, par_results)
        np.testing.assert_array_equal(serial_dist.score, par_dist.score)
        np.testing.assert_array_equal(serial_dist.runtime, par_dist.runtime)

    def test_parallel_progress_contract(self, serial):
        seen = []
        build_distribution(
            SMALL,
            lambda phase, done, total: seen.append((phase, done, total)),
            workers=2,
        )
        assert all(phase == "trials" for phase, _, _ in seen)
        dones = [done for _, done, _ in seen]
        assert dones == sorted(dones)
        assert seen[-1] == ("trials", SMALL.n_tuples, SMALL.n_tuples)


class TestTrialRunnerMap:
    def test_serial_order_and_progress(self):
        seen = []
        runner = TrialRunner()
        out = runner.map(
            abs, [-3, 1, -2], progress=lambda p, d, t: seen.append((p, d, t))
        )
        assert out == [3, 1, 2]
        assert seen == [("tasks", 1, 3), ("tasks", 2, 3), ("tasks", 3, 3)]

    def test_parallel_preserves_item_order(self):
        with TrialRunner(2) as runner:
            assert runner.map(abs, list(range(-6, 0))) == [6, 5, 4, 3, 2, 1]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_on_result_sees_every_item_once(self, workers):
        seen = {}
        with TrialRunner(workers) as runner:
            out = runner.map(
                abs, [-3, 1, -2], on_result=lambda i, r: seen.setdefault(i, r)
            )
        assert out == [3, 1, 2]
        assert seen == {0: 3, 1: 1, 2: 2}

    def test_none_is_a_result_not_a_missing_slot(self):
        with TrialRunner(2) as runner:
            assert runner.map(_nothing, [1, 2]) == [None, None]

    def test_shard_wall_excludes_queue_wait(self):
        """Each worker runs its calls one after another, so their walls,
        timed from pickup, sum to at most n_workers times the fan-out.
        Timed from dispatch, call k of 40 also counted the k/2 calls
        queued ahead of it, about ten times that bound."""
        registry = MetricsRegistry()
        with use_registry(registry), TrialRunner(2) as runner:
            assert runner.map(_nap, list(range(40))) == list(range(40))
        pool = registry.timer_seconds("runtime.pool")
        wall = registry.timer_seconds("runtime.shard.wall")
        assert wall <= 2 * pool * 1.1 + 0.05, (wall, pool)
        assert registry.timer_count("runtime.shard.wall") == 40
        assert registry.timer_count("runtime.shard.queue") == 40
        assert registry.timer_seconds("runtime.shard.queue") > wall

    def test_unfilled_slot_raises(self, monkeypatch):
        runner = TrialRunner(2)
        monkeypatch.setattr(
            type(runner), "_fan_out", lambda self, fn, items: iter([(0, "x")])
        )
        with pytest.raises(RuntimeError, match=r"no result for items \[1, 2\]"):
            runner.map(abs, [1, 2, 3])


#: Eight trials per tuple do not fill whole blocks of |Q| = 3.
_ROUNDED_RUN = """
from repro.core.pipeline import PipelineConfig, build_distribution
config = PipelineConfig(n_tuples=4, trials_per_tuple=8, nmax=16, s_size=4, q_size=3, seed=2)
build_distribution(config, workers={workers})
"""


class TestRoundingWarning:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_warns_exactly_once_per_run(self, workers):
        """In a fresh interpreter that shows every warning, so a worker
        process's own copy would reach the shared stderr too."""
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).parent.parent / "src"))
        proc = subprocess.run(
            [sys.executable, "-W", "always", "-c", _ROUNDED_RUN.format(workers=workers)],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.count("balanced trials run in whole blocks") == 1, proc.stderr
        assert "|Q|=3: n_trials=8 adjusted to 6" in proc.stderr

    def test_whole_blocks_do_not_warn(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            build_distribution(SMALL)
        assert not [w for w in caught if "whole blocks" in str(w.message)]


class TestArtifactPersistence:
    def test_round_trip_is_lossless(self, tmp_path):
        np.seterr(all="ignore")
        _, results, dist = build_distribution(SMALL)
        path = save_trial_artifact(tmp_path / "artifact.npz", results, dist)
        loaded_results, loaded_dist = load_trial_artifact(path)
        assert_results_identical(results, loaded_results)
        np.testing.assert_array_equal(dist.score, loaded_dist.score)

    def test_version_guard(self, tmp_path):
        np.seterr(all="ignore")
        _, results, dist = build_distribution(SMALL)
        path = save_trial_artifact(tmp_path / "artifact.npz", results, dist)
        with np.load(path) as data:
            arrays = dict(data)
        arrays["format_version"] = np.array([999])
        np.savez_compressed(path, **arrays)
        with pytest.raises(ValueError, match="format"):
            load_trial_artifact(path)

    def test_v1_entries_are_misses_then_replaced(self, tmp_path):
        np.seterr(all="ignore")
        _, expected, expected_dist = build_distribution(SMALL)
        cache = ArtifactCache(tmp_path)
        key = distribution_cache_key(SMALL)
        _save_v1_artifact(cache.path_for(key), expected, expected_dist)
        _save_v1_artifact(
            cache.path_for(f"{key}-t0"),
            expected[:1],
            ScoreDistribution.from_trial_results(expected[:1]),
        )
        _, results, dist = build_distribution(SMALL, cache=cache)
        assert (cache.hits, cache.misses) == (0, 2)
        assert_results_identical(expected, results)
        np.testing.assert_array_equal(dist.score, expected_dist.score)
        assert sorted(p.name for p in tmp_path.iterdir()) == [f"trials-{key}.npz"]
        with np.load(cache.path_for(key)) as data:
            assert int(data["format_version"][0]) == ARTIFACT_FORMAT_VERSION == 2
        assert cache.load(key) is not None
        assert cache.metrics.value("cache.bytes_loaded") == (
            cache.path_for(key).stat().st_size
        )


class TestCache:
    def test_fingerprint_stable_and_order_free(self):
        assert config_fingerprint({"a": 1, "b": 2}) == config_fingerprint(
            {"b": 2, "a": 1}
        )
        assert config_fingerprint({"a": 1}) != config_fingerprint({"a": 2})

    def test_key_ignores_execution_knobs(self):
        base = distribution_cache_key(SMALL)
        assert base == distribution_cache_key(PipelineConfig(**vars(SMALL)))
        assert base != distribution_cache_key(
            PipelineConfig(n_tuples=3, trials_per_tuple=32, seed=6)
        )

    def test_invalid_key_rejected(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        with pytest.raises(ValueError):
            cache.path_for("../escape")

    def test_second_run_hits_cache_without_simulating(self, tmp_path, monkeypatch):
        np.seterr(all="ignore")
        cache = ArtifactCache(tmp_path / "cache")
        tuples1, results1, dist1 = build_distribution(SMALL, cache=cache)
        assert cache.misses == 1 and cache.hits == 0

        def no_simulation(*args, **kwargs):
            raise AssertionError("cache hit expected; trials were re-simulated")

        monkeypatch.setattr(executor_mod, "run_trials", no_simulation)
        seen = []
        tuples2, results2, dist2 = build_distribution(
            SMALL, lambda p, d, t: seen.append((p, d, t)), cache=cache
        )
        assert cache.hits == 1
        assert_results_identical(results1, results2)
        np.testing.assert_array_equal(dist1.score, dist2.score)
        # tuples are regenerated deterministically, progress still completes
        assert len(tuples2) == len(tuples1)
        np.testing.assert_array_equal(tuples1[0].Q.runtime, tuples2[0].Q.runtime)
        assert seen == [("trials", SMALL.n_tuples, SMALL.n_tuples)]

    def test_cache_accepts_plain_directory(self, tmp_path):
        np.seterr(all="ignore")
        build_distribution(SMALL, cache=tmp_path / "cache2")
        assert ArtifactCache(tmp_path / "cache2").load(
            distribution_cache_key(SMALL)
        ) is not None

    def test_serial_and_parallel_share_one_entry(self, tmp_path):
        np.seterr(all="ignore")
        cache = ArtifactCache(tmp_path / "cache3")
        build_distribution(SMALL, cache=cache, workers=2)
        _, _, dist = build_distribution(SMALL, cache=cache)  # serial run, same key
        assert cache.hits == 1
        assert len(list(cache.root.iterdir())) == 1
        np.testing.assert_array_equal(dist.score, build_distribution(SMALL)[2].score)

    @pytest.mark.parametrize("junk", [b"not an npz", b"PK\x03\x04truncated zip"])
    def test_corrupt_entry_is_a_miss(self, tmp_path, junk):
        cache = ArtifactCache(tmp_path)
        key = distribution_cache_key(SMALL)
        cache.path_for(key).write_bytes(junk)
        assert cache.load(key) is None


class TestJsonEntries:
    def test_round_trip_and_accounting(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        assert cache.load_json("abc123") is None
        assert cache.misses == 1
        path = cache.store_json("abc123", {"x": 1, "nested": [1.5, "s"]})
        assert path.exists()
        assert cache.load_json("abc123") == {"x": 1, "nested": [1.5, "s"]}
        assert cache.hits == 1

    def test_keyspaces_do_not_collide(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.store_json("samekey", {"kind": "json"})
        # the npz keyspace with the same key is untouched
        assert not cache.path_for("samekey").exists()
        assert cache.json_path_for("samekey") != cache.path_for("samekey")

    def test_invalid_key_rejected(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        with pytest.raises(ValueError):
            cache.store_json("../escape", {})

    def test_corrupt_json_is_a_miss_then_replaced(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.json_path_for("k").write_text("{ torn", encoding="utf-8")
        assert cache.load_json("k") is None
        cache.store_json("k", [1, 2])
        assert cache.load_json("k") == [1, 2]
