"""Failure tests for the worker pool and the training cache's resume.

The claims under test:

1. **One failure contract** — a mapped function that raises fails the
   fan-out at once with the same exception type the serial loop
   raises, and nothing retries the failing call; workers whose parent
   was SIGKILLed exit instead of running on as orphans, even mid-task
   or when they first run after the parent is gone.
2. **Resume from the cache** — a training run that dies part-way
   leaves one cache entry per tuple that landed; the re-run loads them,
   simulates only the rest, and reproduces an uncached run's bytes.
   A whole-distribution entry written before per-tuple entries existed
   still loads with zero simulation.
"""

import functools
import multiprocessing
import os
import pickle
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import repro.runtime.executor as executor_mod
from repro.core.pipeline import (
    PipelineConfig,
    build_distribution,
    distribution_cache_key,
)
from repro.core.taskgen import generate_tuples
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.runtime import ArtifactCache, TrialRunner
from repro.runtime.executor import shippable_error

#: Generous bound on "at once": a pool spawn plus three tiny calls.
FAIL_FAST_SECONDS = 5.0


def _fail_on_two(log_dir, x):
    """Log each call, then raise ``ValueError`` on item 2."""
    with open(os.path.join(log_dir, f"calls-{x}"), "a", encoding="utf-8") as fh:
        fh.write(f"{os.getpid()}\n")
    if x == 2:
        raise ValueError(f"bad item {x}")
    return x


class _Unpicklable(Exception):
    """Pickles, but cannot be rebuilt: ``__init__`` takes two arguments."""

    def __init__(self, code, detail):
        super().__init__(f"{code}: {detail}")


def _raise_unpicklable(x):
    raise _Unpicklable(x, "two-argument exception")


class TestChunkFailure:
    def test_raising_chunk_reraises_its_type_at_once(self, tmp_path):
        log_dir = tmp_path / "calls"
        log_dir.mkdir()
        with TrialRunner(2) as runner:
            start = time.monotonic()
            with pytest.raises(ValueError, match="bad item 2") as info:
                runner.map(functools.partial(_fail_on_two, str(log_dir)), [1, 2, 3])
            elapsed = time.monotonic() - start
        assert elapsed < FAIL_FAST_SECONDS
        # The failing call ran exactly once: nothing retried it.
        assert len((log_dir / "calls-2").read_text().split()) == 1
        # The worker's traceback rides along for debugging.
        assert any("_fail_on_two" in note for note in info.value.__notes__)

    def test_unpicklable_error_falls_back_to_runtime_error(self):
        with TrialRunner(2) as runner:
            with pytest.raises(RuntimeError, match="unpicklable _Unpicklable") as info:
                runner.map(_raise_unpicklable, [1, 2])
        assert "two-argument exception" in str(info.value)

    def test_shippable_error_round_trips(self):
        try:
            raise ValueError("boom")
        except ValueError as exc:
            shipped = shippable_error(exc)
        back = pickle.loads(pickle.dumps(shipped))
        assert type(back) is ValueError and str(back) == "boom"
        assert "raised in worker process" in back.__notes__[0]


#: A parent that starts a two-worker pool, prints the worker pids and
#: then blocks in a fan-out with far more queued work than it waits for.
_ORPHAN_PARENT = """
import time
from repro.runtime import TrialRunner
runner = TrialRunner(2)
runner._ensure_started()
print(*(p.pid for p in runner._workers), flush=True)
runner.map(time.sleep, [0.2] * 200)
"""


def _running(pid: int) -> bool:
    """Whether *pid* exists and is not a zombie awaiting its reaper."""
    try:
        with open(f"/proc/{pid}/stat", encoding="utf-8") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.mark.skipif(
    not sys.platform.startswith("linux"), reason="reads process state from /proc"
)
def test_workers_of_a_killed_parent_exit():
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parent.parent / "src"))
    parent = subprocess.Popen(
        [sys.executable, "-c", _ORPHAN_PARENT], stdout=subprocess.PIPE, env=env
    )
    pids = [int(pid) for pid in parent.stdout.readline().split()]
    assert len(pids) == 2
    parent.send_signal(signal.SIGKILL)
    parent.wait(timeout=30)
    deadline = time.monotonic() + 20.0
    while any(map(_running, pids)) and time.monotonic() < deadline:
        time.sleep(0.1)
    alive = [pid for pid in pids if _running(pid)]
    for pid in alive:  # leave nothing behind, even on failure
        os.kill(pid, signal.SIGKILL)
    assert not alive, "pool workers outlived their killed parent"


#: A parent killed before its workers start their watchdogs: each
#: worker sleeps 1 s first, so it first runs with the parent gone.
_LATE_WORKER_PARENT = """
import time
import repro.runtime.executor as executor
real = executor._worker_main
def late(*args):
    time.sleep(1.0)
    real(*args)
executor._worker_main = late
from repro.runtime import TrialRunner
runner = TrialRunner(2)
runner._ensure_started()
print(*(p.pid for p in runner._workers), flush=True)
runner.map(time.sleep, [0.2] * 200)
"""


@pytest.mark.skipif(
    not sys.platform.startswith("linux"), reason="reads process state from /proc"
)
@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="the delayed worker entry reaches workers only by fork",
)
def test_workers_that_start_after_their_parent_died_exit():
    """A worker must watch the pid that started it, not whatever
    ``os.getppid()`` says once it first runs (by then, the reaper's)."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parent.parent / "src"))
    parent = subprocess.Popen(
        [sys.executable, "-c", _LATE_WORKER_PARENT], stdout=subprocess.PIPE, env=env
    )
    pids = [int(pid) for pid in parent.stdout.readline().split()]
    assert len(pids) == 2
    parent.send_signal(signal.SIGKILL)  # well inside the workers' 1 s delay
    parent.wait(timeout=30)
    deadline = time.monotonic() + 20.0
    while any(map(_running, pids)) and time.monotonic() < deadline:
        time.sleep(0.1)
    alive = [pid for pid in pids if _running(pid)]
    for pid in alive:  # leave nothing behind, even on failure
        os.kill(pid, signal.SIGKILL)
    assert not alive, "late-starting workers outlived their killed parent"


#: A parent whose two workers are each busy in a 60 s task when it dies.
_BUSY_PARENT = """
import time
from repro.runtime import TrialRunner
runner = TrialRunner(2)
runner._ensure_started()
print(*(p.pid for p in runner._workers), flush=True)
runner.map(time.sleep, [60.0, 60.0])
"""


@pytest.mark.skipif(
    not sys.platform.startswith("linux"), reason="reads process state from /proc"
)
def test_busy_workers_of_a_killed_parent_exit():
    """A worker inside a long task must not live until the task ends."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parent.parent / "src"))
    parent = subprocess.Popen(
        [sys.executable, "-c", _BUSY_PARENT], stdout=subprocess.PIPE, env=env
    )
    pids = [int(pid) for pid in parent.stdout.readline().split()]
    assert len(pids) == 2
    time.sleep(1.0)  # both workers have taken their 60 s task
    parent.send_signal(signal.SIGKILL)
    parent.wait(timeout=30)
    deadline = time.monotonic() + 5.0
    while any(map(_running, pids)) and time.monotonic() < deadline:
        time.sleep(0.1)
    alive = [pid for pid in pids if _running(pid)]
    for pid in alive:  # leave nothing behind, even on failure
        os.kill(pid, signal.SIGKILL)
    assert not alive, "busy pool workers outlived their killed parent"


#: Small but real; its whole-distribution entry, stored under the key
#: written before per-tuple entries existed, is committed under
#: tests/data/train_cache (rewritten in artifact format v2, which drops
#: v1's per-trial arrays and keeps every other array's bytes).
RESUME_CONFIG = PipelineConfig(
    n_tuples=5, trials_per_tuple=12, nmax=16, s_size=4, q_size=4, seed=4
)
PARENT_CACHE = Path(__file__).parent / "data" / "train_cache"


class _Crash(Exception):
    """The injected failure: a run dying part-way through its tuples."""


def _crash_on_third_tuple(monkeypatch):
    """Make ``run_trials`` raise on the third tuple, in process and in
    forked workers (the pool starts after the patch, so it inherits it)."""
    real = executor_mod.run_trials
    c = RESUME_CONFIG
    third = generate_tuples(
        c.n_tuples, nmax=c.nmax, s_size=c.s_size, q_size=c.q_size, seed=c.seed
    )[2]

    def run_trials(tup, *args, **kwargs):
        if np.array_equal(tup.Q.runtime, third.Q.runtime):
            raise _Crash("killed on the third tuple")
        return real(tup, *args, **kwargs)

    monkeypatch.setattr(executor_mod, "run_trials", run_trials)


def _score_bytes(results) -> list[bytes]:
    return [r.scores.tobytes() for r in results]


class TestResumeFromCache:
    @pytest.fixture(scope="class")
    def reference(self):
        _, results, dist = build_distribution(RESUME_CONFIG)
        return _score_bytes(results), dist.score.tobytes()

    @pytest.mark.parametrize(
        "workers",
        [
            1,
            pytest.param(
                2,
                marks=pytest.mark.skipif(
                    multiprocessing.get_start_method() != "fork",
                    reason="the injected crash reaches workers only by fork",
                ),
            ),
        ],
    )
    def test_killed_run_resumes_byte_identical(
        self, workers, reference, tmp_path, monkeypatch
    ):
        cache = ArtifactCache(tmp_path / "cache")
        with monkeypatch.context() as patch:
            _crash_on_third_tuple(patch)
            with pytest.raises(_Crash):
                build_distribution(RESUME_CONFIG, workers=workers, cache=cache)
        key = distribution_cache_key(RESUME_CONFIG)
        assert not cache.path_for(key).exists()
        stored = sorted(p.name for p in cache.root.glob(f"trials-{key}-t*.npz"))
        if workers == 1:
            assert stored == [f"trials-{key}-t0.npz", f"trials-{key}-t1.npz"]
        else:
            # At least one tuple landed before the crash on tuple 2.
            assert stored and f"trials-{key}-t2.npz" not in stored

        registry = MetricsRegistry()
        seen = []
        with use_registry(registry):
            _, results, dist = build_distribution(
                RESUME_CONFIG,
                lambda phase, done, total: seen.append((phase, done, total)),
                workers=workers,
                cache=cache,
            )
        assert (_score_bytes(results), dist.score.tobytes()) == reference
        # Progress starts at the tuples loaded from the cache.
        n = RESUME_CONFIG.n_tuples
        assert seen[0] == ("trials", len(stored), n)
        assert [done for _, done, _ in seen] == list(range(len(stored), n + 1))
        assert seen[-1] == ("trials", n, n)
        simulated = registry.value("train.tuples.simulated")
        assert simulated < RESUME_CONFIG.n_tuples
        assert simulated + registry.value("train.tuples.cached") == (
            RESUME_CONFIG.n_tuples
        )
        assert cache.hits == len(stored) > 0
        # The whole entry replaces the per-tuple ones.
        assert [p.name for p in cache.root.iterdir()] == [f"trials-{key}.npz"]

    def test_whole_entry_from_before_resume_still_hits(
        self, reference, tmp_path, monkeypatch
    ):
        cache_dir = tmp_path / "cache"
        shutil.copytree(PARENT_CACHE, cache_dir)

        def no_simulation(*args, **kwargs):
            raise AssertionError("cache hit expected; trials were re-simulated")

        monkeypatch.setattr(executor_mod, "run_trials", no_simulation)
        registry = MetricsRegistry()
        cache = ArtifactCache(cache_dir)
        with use_registry(registry):
            _, results, dist = build_distribution(RESUME_CONFIG, cache=cache)
        assert (_score_bytes(results), dist.score.tobytes()) == reference
        assert registry.value("train.tuples.simulated") == 0
        assert registry.value("train.tuples.cached") == RESUME_CONFIG.n_tuples
        assert (cache.hits, cache.misses) == (1, 0)
