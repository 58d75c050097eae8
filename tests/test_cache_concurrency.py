"""Concurrent-writer safety of the ArtifactCache.

A cache directory may be shared by concurrent runs, and a killed
training run resumes from it, so both lean on one property: two
processes storing the *same* content-addressed key at the same time can
never produce a torn or duplicated entry, because every store writes a
``tmp<pid>`` sibling and ``os.replace``\\ s it into place.  These tests
prove that claim under real multi-process contention instead of taking
the docstring's word for it: a barrier lines all writers up, they hammer
the same key, and readers racing alongside must only ever observe
either a miss or one complete, valid entry — never a partial file.
Writers that merge disjoint members into one document (the evaluation
matrix's window documents) may lose members to each other, but never
tear the file or corrupt a member.
"""

import json
import multiprocessing
import os

import numpy as np
import pytest

from repro.core.distribution import ScoreDistribution
from repro.core.pipeline import PipelineConfig, build_distribution
from repro.core.trials import TrialScoreResult
from repro.runtime import ArtifactCache

KEY = "deadbeef" * 4


def _trial_payload(seed: int):
    """A small, valid (results, distribution) pair; identical per seed."""
    rng = np.random.default_rng(seed)
    # Per the TrialScoreResult contract every array is |Q|-long; 8 probe
    # tasks, 4 trials.
    result = TrialScoreResult(
        runtime=rng.uniform(1.0, 10.0, 8),
        size=rng.integers(1, 4, 8).astype(np.int64),
        submit=np.sort(rng.uniform(0.0, 5.0, 8)),
        scores=rng.uniform(0.0, 1.0, 8),
        n_trials=4,
    )
    results = [result]
    return results, ScoreDistribution.from_trial_results(results)


def _store_npz_worker(directory, barrier, seed):
    cache = ArtifactCache(directory)
    results, dist = _trial_payload(seed)
    barrier.wait(timeout=30)
    for _ in range(5):
        cache.store(KEY, results, dist)


def _store_json_worker(directory, barrier, payload):
    cache = ArtifactCache(directory)
    barrier.wait(timeout=30)
    for _ in range(50):
        cache.store_json(KEY, payload)


def _reader_worker(directory, barrier, out_queue):
    """Race loads against the writers; every load must be None or valid."""
    cache = ArtifactCache(directory)
    barrier.wait(timeout=30)
    bad = 0
    for _ in range(50):
        entry = cache.load_json(KEY)
        if entry is not None and entry.get("tag") not in ("a", "b"):
            bad += 1
    out_queue.put(bad)


#: Writers and members per writer of the window-document test.
N_MERGERS = 3
N_MEMBERS = 4


def _member(writer: int, j: int) -> tuple[str, dict]:
    return f"w{writer}-m{j}", {"writer": writer, "member": j}


def _merge_worker(directory, barrier, writer):
    """Merge this writer's members (disjoint from the others') 30 times."""
    cache = ArtifactCache(directory)
    members = dict(_member(writer, j) for j in range(N_MEMBERS))
    barrier.wait(timeout=30)
    for _ in range(30):
        cache.store_json(KEY, members, merge=True)


def _member_reader_worker(directory, barrier, out_queue):
    """Race member loads and raw parses against the merging writers."""
    cache = ArtifactCache(directory)
    names = dict(
        _member(w, j) for w in range(N_MERGERS) for j in range(N_MEMBERS)
    )
    path = cache.json_path_for(KEY)
    barrier.wait(timeout=30)
    bad = 0
    for _ in range(50):
        found = cache.load_json(KEY, members=names)
        bad += sum(found[name] != names[name] for name in found)
        try:
            json.loads(path.read_text(encoding="utf-8"))
        except FileNotFoundError:
            pass  # no writer has renamed its document into place yet
        except ValueError:
            bad += 1
    # every load counted each member once, as a hit or as a miss
    if cache.hits + cache.misses != 50 * len(names):
        bad += 1
    out_queue.put(bad)


def _spawn(target, args):
    proc = multiprocessing.get_context().Process(target=target, args=args)
    proc.start()
    return proc


class TestConcurrentWriters:
    def test_same_npz_key_two_processes(self, tmp_path):
        """Two processes storing the same trials key concurrently leave
        exactly one complete, loadable entry and no temp litter."""
        ctx = multiprocessing.get_context()
        barrier = ctx.Barrier(2)
        procs = [
            _spawn(_store_npz_worker, (str(tmp_path), barrier, 42)),
            _spawn(_store_npz_worker, (str(tmp_path), barrier, 42)),
        ]
        for proc in procs:
            proc.join(timeout=60)
            assert proc.exitcode == 0
        # Listed before a new ArtifactCache would sweep dead writers' litter.
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == [f"trials-{KEY}.npz"], f"torn/leftover files: {names}"
        cache = ArtifactCache(tmp_path)
        entry = cache.load(KEY)
        assert entry is not None, "entry must be complete and loadable"
        results, dist = entry
        expected_results, _ = _trial_payload(42)
        np.testing.assert_array_equal(results[0].scores, expected_results[0].scores)

    def test_same_json_key_writers_and_readers(self, tmp_path):
        """Concurrent JSON writers with racing readers: a reader only
        ever sees a miss or one writer's complete document."""
        ctx = multiprocessing.get_context()
        barrier = ctx.Barrier(3)
        out = ctx.Queue()
        procs = [
            _spawn(_store_json_worker, (str(tmp_path), barrier, {"tag": "a"})),
            _spawn(_store_json_worker, (str(tmp_path), barrier, {"tag": "b"})),
            _spawn(_reader_worker, (str(tmp_path), barrier, out)),
        ]
        for proc in procs:
            proc.join(timeout=60)
            assert proc.exitcode == 0
        assert out.get(timeout=10) == 0, "reader observed a torn entry"
        entry = json.loads(
            (tmp_path / f"eval-{KEY}.json").read_text(encoding="utf-8")
        )
        assert entry in ({"tag": "a"}, {"tag": "b"})
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == [f"eval-{KEY}.json"], f"torn/leftover files: {names}"

    def test_merging_writers_and_member_readers(self, tmp_path):
        """Writers merging disjoint members into one document leave a
        parseable file whose members are each exactly one writer's
        entry; a racing reader sees only hits and misses.  A member may
        be lost to a concurrent merge (the last rename wins), but the
        last writer's own members are all there."""
        ctx = multiprocessing.get_context()
        barrier = ctx.Barrier(N_MERGERS + 1)
        out = ctx.Queue()
        procs = [
            _spawn(_merge_worker, (str(tmp_path), barrier, w))
            for w in range(N_MERGERS)
        ]
        procs.append(_spawn(_member_reader_worker, (str(tmp_path), barrier, out)))
        for proc in procs:
            proc.join(timeout=60)
            assert proc.exitcode == 0
        assert out.get(timeout=10) == 0, "reader observed a torn document"
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == [f"eval-{KEY}.json"], f"torn/leftover files: {names}"
        doc = json.loads((tmp_path / f"eval-{KEY}.json").read_text(encoding="utf-8"))
        expected = dict(
            _member(w, j) for w in range(N_MERGERS) for j in range(N_MEMBERS)
        )
        assert doc and all(doc[name] == expected[name] for name in doc)
        assert any(
            all(_member(w, j)[0] in doc for j in range(N_MEMBERS))
            for w in range(N_MERGERS)
        )

    def test_pool_and_serial_runs_share_a_cache_safely(self, tmp_path):
        """End to end: a pooled and a serial pipeline run against one
        cache directory — the second is a pure hit, and the per-tuple
        entries the first stored never outlive its whole entry."""
        config = PipelineConfig(
            n_tuples=3, trials_per_tuple=12, nmax=16, s_size=4, q_size=4, seed=2
        )
        cache_dir = tmp_path / "cache"
        cache = ArtifactCache(cache_dir)
        _, first, _ = build_distribution(config, workers=2, cache=cache)
        assert cache.misses == 1 and cache.hits == 0
        _, second, _ = build_distribution(config, workers=1, cache=cache)
        assert cache.hits == 1
        np.testing.assert_array_equal(first[0].scores, second[0].scores)
        entries = [p.name for p in cache_dir.iterdir() if p.name.startswith("trials-")]
        assert len(entries) == 1


class TestOrphanedTempFiles:
    def test_open_removes_dead_writers_temp_files_only(self, tmp_path):
        """A SIGKILLed store leaves its pid-suffixed temp file behind;
        opening the cache removes it once that pid is gone and keeps a
        live writer's (here: this process's) temp files."""
        proc = _spawn(os.getpid, ())
        proc.join(timeout=60)
        assert proc.exitcode == 0
        dead = tmp_path / f"trials-{KEY}-t3.npz.tmp{proc.pid}.npz"
        dead_json = tmp_path / f"eval-{KEY}.json.tmp{proc.pid}"
        live = tmp_path / f"trials-{KEY}-t4.npz.tmp{os.getpid()}.npz"
        for path in (dead, dead_json, live):
            path.write_bytes(b"partial")
        ArtifactCache(tmp_path)
        assert sorted(p.name for p in tmp_path.iterdir()) == [live.name]
