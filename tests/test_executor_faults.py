"""Fault-injection tests for the workqueue executor backend.

The claims under test, from strongest to weakest:

1. **Crash resume** — SIGKILL a worker mid-sweep (via the
   ``$REPRO_QUEUE_FAULT`` injection hook), and the run still completes
   with a final ``eval_matrix.json`` byte-identical to a serial run's:
   the dead worker's lease goes stale, another worker takes it over,
   and re-execution of a pure chunk recomputes the same bytes.
2. **Protocol pieces** — lease claims are exclusive (``O_EXCL``), stale
   leases are taken over, live leases are not, heartbeats keep a slow
   chunk's lease alive, and double completion (two workers finishing
   the same task) is idempotent because results land by atomic rename.
3. **Honest failure** — when workers die faster than the respawn budget
   allows, the dispatcher raises instead of hanging or returning a
   partial result.
4. **One failure contract** — on every backend, a chunk function that
   raises fails the fan-out at once with the same exception type the
   serial loop raises; the work queue runs the failing call once and
   respawns nothing, because a raising call is not a dead worker.
"""

import functools
import json
import os
import pickle
import time

import pytest

from repro.eval.matrix import MatrixConfig, run_matrix
from repro.eval.report import write_matrix_report
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.runtime import BACKEND_NAMES, ExecutorConfig, TrialRunner
from repro.runtime.backends import shippable_error
from repro.runtime.workqueue import (
    FaultSpec,
    claim_task,
    load_result,
    parse_fault,
    store_result,
    task_ids,
    work_loop,
    write_task,
)
from repro.workloads.traces import synthetic_trace

#: Small but real: 4 windows x 2 policies x 2 backfill modes = 16 cells.
CONFIG = MatrixConfig(
    policies=("fcfs", "f1"),
    backfill=("none", "easy"),
    window_jobs=50,
    warmup=5,
)


@pytest.fixture(scope="module")
def trace():
    return synthetic_trace("ctc_sp2", n_jobs=200, seed=7)


@pytest.fixture(scope="module")
def serial_report(trace, tmp_path_factory):
    out = tmp_path_factory.mktemp("serial")
    write_matrix_report(out, run_matrix(trace, CONFIG))
    return out / "eval_matrix.json"


def _queue_env(monkeypatch, tmp_path, fault=None, lease="1.0", respawns=None):
    monkeypatch.setenv("REPRO_QUEUE_DIR", str(tmp_path / "queue"))
    monkeypatch.setenv("REPRO_QUEUE_LEASE_TIMEOUT", lease)
    if fault is not None:
        monkeypatch.setenv("REPRO_QUEUE_FAULT", fault)
    else:
        monkeypatch.delenv("REPRO_QUEUE_FAULT", raising=False)
    if respawns is not None:
        monkeypatch.setenv("REPRO_QUEUE_MAX_RESPAWNS", respawns)
    else:
        monkeypatch.delenv("REPRO_QUEUE_MAX_RESPAWNS", raising=False)


class TestKillResume:
    def test_sigkill_mid_sweep_resumes_byte_identical(
        self, trace, serial_report, tmp_path, monkeypatch
    ):
        """The headline: a worker dies mid-run, the run loses nothing."""
        _queue_env(monkeypatch, tmp_path, fault="kill-once:2")
        registry = MetricsRegistry()
        with use_registry(registry):
            result = run_matrix(
                trace, CONFIG, workers=2, chunk_size=1, backend="workqueue"
            )
        out = tmp_path / "chaos"
        write_matrix_report(out, result)
        assert (out / "eval_matrix.json").read_bytes() == serial_report.read_bytes()
        # The fault demonstrably fired and the retry machinery engaged.
        assert registry.value("runtime.queue.worker_deaths") >= 1
        assert registry.value("runtime.queue.takeovers") >= 1
        assert registry.value("runtime.queue.respawns") >= 1
        assert registry.value("runtime.queue.tasks") == 16

    def test_single_worker_kill_resumes(self, trace, tmp_path, monkeypatch):
        """workers=1 still runs through the queue, so even the only
        worker dying is survivable via respawn."""
        _queue_env(monkeypatch, tmp_path, fault="kill-once:1")
        result = run_matrix(
            trace, CONFIG, workers=1, chunk_size=4, backend="workqueue"
        )
        reference = run_matrix(trace, CONFIG)
        assert [c.ave_bsld for c in result.cells] == [
            c.ave_bsld for c in reference.cells
        ]

    def test_respawn_budget_exhaustion_raises(self, tmp_path, monkeypatch):
        """kill-every:1 means no worker ever completes a task; the
        dispatcher must fail loudly, not hang."""
        _queue_env(
            monkeypatch, tmp_path, fault="kill-every:1", lease="0.2", respawns="2"
        )
        runner = TrialRunner(
            ExecutorConfig(workers=1, chunk_size=1, backend="workqueue")
        )
        with pytest.raises(RuntimeError, match="respawn budget"):
            runner.map(abs, [1, -2, 3])


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
    LEASE = 5.0

    @pytest.mark.parametrize("backend", BACKEND_NAMES)
    def test_raising_chunk_reraises_its_type_at_once(
        self, backend, tmp_path, monkeypatch
    ):
        _queue_env(monkeypatch, tmp_path, lease=str(self.LEASE))
        log_dir = tmp_path / "calls"
        log_dir.mkdir()
        registry = MetricsRegistry()
        config = ExecutorConfig(workers=2, chunk_size=1, backend=backend)
        with use_registry(registry), TrialRunner(config) as runner:
            start = time.monotonic()
            with pytest.raises(ValueError, match="bad item 2") as info:
                runner.map(functools.partial(_fail_on_two, str(log_dir)), [1, 2, 3])
            elapsed = time.monotonic() - start
        assert elapsed < self.LEASE
        assert registry.value("runtime.queue.respawns") == 0
        assert registry.value("runtime.queue.worker_deaths") == 0
        # The failing call ran exactly once: nothing retried it.
        assert len((log_dir / "calls-2").read_text().split()) == 1
        # The worker's traceback rides along for debugging.
        assert any("_fail_on_two" in note for note in info.value.__notes__)

    @pytest.mark.parametrize("backend", BACKEND_NAMES)
    def test_unpicklable_error_falls_back_to_runtime_error(
        self, backend, tmp_path, monkeypatch
    ):
        _queue_env(monkeypatch, tmp_path, lease=str(self.LEASE))
        config = ExecutorConfig(workers=2, chunk_size=1, backend=backend)
        with TrialRunner(config) as runner:
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


class TestLeaseProtocol:
    @pytest.fixture()
    def run_dir(self, tmp_path):
        for sub in ("tasks", "leases", "results"):
            (tmp_path / sub).mkdir()
        return str(tmp_path)

    def test_claim_is_exclusive(self, run_dir):
        first = claim_task(run_dir, "task-00000", lease_timeout=30.0, worker_id="a")
        second = claim_task(run_dir, "task-00000", lease_timeout=30.0, worker_id="b")
        assert first is not None and not first.takeover
        assert second is None

    def test_stale_lease_takeover(self, run_dir):
        claim = claim_task(run_dir, "task-00000", lease_timeout=0.5, worker_id="a")
        # Backdate the heartbeat: the claimant "died" long ago.
        stale = time.time() - 60.0
        os.utime(claim.lease_path, (stale, stale))
        steal = claim_task(run_dir, "task-00000", lease_timeout=0.5, worker_id="b")
        assert steal is not None and steal.takeover

    def test_live_lease_not_stolen(self, run_dir):
        claim_task(run_dir, "task-00000", lease_timeout=30.0, worker_id="a")
        assert (
            claim_task(run_dir, "task-00000", lease_timeout=30.0, worker_id="b")
            is None
        )

    def test_heartbeat_keeps_slow_chunk_alive(self, run_dir, monkeypatch):
        """A chunk that computes longer than the lease timeout is not
        stolen, because the heartbeat keeps touching the lease."""
        monkeypatch.setenv("REPRO_QUEUE_LEASE_TIMEOUT", "0.4")
        write_task(run_dir, "task-00000", time.sleep, (1.0,))

        import multiprocessing

        worker = multiprocessing.get_context().Process(
            target=work_loop, args=(run_dir,), kwargs={"lease_timeout": 0.4}
        )
        worker.start()
        try:
            time.sleep(0.8)  # two lease timeouts into the slow chunk
            steal = claim_task(
                run_dir, "task-00000", lease_timeout=0.4, worker_id="thief"
            )
            assert steal is None, "heartbeating lease must not be stealable"
        finally:
            worker.join(timeout=10.0)
            assert worker.exitcode == 0
        doc = load_result(run_dir, "task-00000")
        assert doc is not None and not doc["takeover"]

    def test_double_completion_is_idempotent(self, run_dir):
        """Two workers finishing the same pure task both write the same
        payload; the atomic rename means the entry is never torn and a
        single read sees exactly one complete document."""
        payload = ([(0, 42)], None)
        store_result(run_dir, "task-00000", payload, takeover=False)
        store_result(run_dir, "task-00000", payload, takeover=True)
        doc = load_result(run_dir, "task-00000")
        assert doc["payload"] == payload
        # Exactly one result file, no temp leftovers.
        names = os.listdir(os.path.join(run_dir, "results"))
        assert names == ["task-00000.pkl"]

    def test_task_ids_ordered(self, run_dir):
        for i in (2, 0, 1):
            write_task(run_dir, f"task-{i:05d}", abs, (i,))
        assert task_ids(run_dir) == ["task-00000", "task-00001", "task-00002"]


class TestFaultSpec:
    def test_parse(self):
        assert parse_fault("kill-once:3") == FaultSpec("kill-once", 3)
        assert parse_fault("kill-every:2") == FaultSpec("kill-every", 2)
        assert parse_fault(None) is None
        assert parse_fault("") is None

    @pytest.mark.parametrize("bad", ["kill", "kill-once", "kill-once:0", "boom:1"])
    def test_invalid(self, bad):
        with pytest.raises(ValueError):
            parse_fault(bad)


class TestMergedTelemetry:
    def test_counters_survive_a_kill(self, trace, tmp_path, monkeypatch):
        """Merged counters equal a serial run's even after a worker died:
        the parent reads each task's result document exactly once, and
        metrics a killed worker never shipped die with it."""
        serial = MetricsRegistry()
        with use_registry(serial):
            run_matrix(trace, CONFIG)

        _queue_env(monkeypatch, tmp_path, fault="kill-once:3")
        chaotic = MetricsRegistry()
        with use_registry(chaotic):
            run_matrix(trace, CONFIG, workers=2, chunk_size=1, backend="workqueue")

        for name in ("sim.runs", "sim.events", "sim.jobs_completed"):
            assert chaotic.value(name) == serial.value(name), name
