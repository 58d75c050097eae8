"""The ``workqueue`` executor backend: filesystem queue with lease retry.

Where the ``local`` backend is fail-fast, this backend is
*crash-resumable*: every chunk becomes a durable task file in a run
directory, workers claim tasks by taking a **lease**, heartbeat the
lease while computing, and write results atomically.  If a worker is
SIGKILLed mid-chunk its lease goes stale (no heartbeat), another worker
takes the lease over and re-runs the chunk, and the run completes with
nothing lost.  Because chunk functions are pure and results are placed
by item index, the resumed run's output is **byte-identical** to a
serial run — re-execution can only ever recompute the same bytes.

The queue is plain files, so it doubles as a multi-machine dispatch
substrate: point ``queue_dir`` (or ``$REPRO_QUEUE_DIR``) at a shared
filesystem next to a shared :class:`~repro.runtime.cache.ArtifactCache`
and run :func:`work_loop` workers on other hosts against the same run
directory.

Protocol (all under ``<run_dir>/``)
-----------------------------------
``tasks/task-NNNNN.pkl``
    The pickled chunk call, written atomically by the dispatcher before
    any worker starts.  Immutable for the life of the run.
``leases/task-NNNNN.lease``
    Claim marker.  Created with ``O_CREAT | O_EXCL`` (the atomic
    claim); its **mtime is the heartbeat**, touched every
    ``lease_timeout / 4`` seconds by the claimant.  A lease older than
    ``lease_timeout`` is stale: any worker may take it over by
    atomically replacing it (``os.replace`` — last writer wins; a lost
    takeover race just means two workers compute the same pure chunk,
    which is harmless).
``results/task-NNNNN.pkl``
    The pickled result document, written to a ``tmp-<pid>`` sibling and
    ``os.replace``\\ d into place — so a result file either exists
    complete or not at all, and double completion (two workers finishing
    the same task) is idempotent by construction.  A chunk that raises
    publishes its exception as the payload (see
    :func:`~repro.runtime.backends.shippable_error`), which the
    dispatcher re-raises at once instead of retrying the call.

Fault injection (test-only)
---------------------------
``$REPRO_QUEUE_FAULT`` arms a hook in :func:`work_loop`:

* ``kill-once:<n>`` — the first worker to claim its *n*-th task SIGKILLs
  itself (no cleanup, no heartbeat stop — a real crash).  A
  ``fault.lock`` file created ``O_EXCL`` in the run directory makes the
  kill happen exactly once per run across all workers.
* ``kill-every:<n>`` — every worker SIGKILLs itself on each *n*-th
  claim; with ``n=1`` no worker ever completes anything, which is how
  tests exercise the respawn-budget fatal path.

The hook fires *after* the claim and *before* the compute, so the dead
worker always leaves a claimed-but-unfinished lease behind — the exact
state the stale-lease takeover exists for.
"""

from __future__ import annotations

import json
import os
import pickle
import shutil
import signal
import tempfile
import threading
import time
from collections.abc import Sequence
from dataclasses import dataclass

from repro.runtime.backends import (
    ChunkCall,
    ExecutorBackend,
    ShardAccounting,
    shippable_error,
)
from repro.runtime.progress import ProgressAggregator

__all__ = [
    "FaultSpec",
    "WorkQueueBackend",
    "claim_task",
    "load_result",
    "parse_fault",
    "store_result",
    "task_ids",
    "work_loop",
    "write_task",
]

DEFAULT_LEASE_TIMEOUT = 30.0

#: Dispatcher/worker poll interval.  Only affects latency, never results.
_POLL_SECONDS = 0.05


def _lease_timeout_default() -> float:
    env = os.environ.get("REPRO_QUEUE_LEASE_TIMEOUT")
    return float(env) if env else DEFAULT_LEASE_TIMEOUT


# ----------------------------------------------------------------------
# queue protocol: tasks, leases, results
# ----------------------------------------------------------------------
def _task_path(run_dir: str, task_id: str) -> str:
    return os.path.join(run_dir, "tasks", f"{task_id}.pkl")


def _lease_path(run_dir: str, task_id: str) -> str:
    return os.path.join(run_dir, "leases", f"{task_id}.lease")


def _result_path(run_dir: str, task_id: str) -> str:
    return os.path.join(run_dir, "results", f"{task_id}.pkl")


def task_ids(run_dir: str) -> list[str]:
    """All task ids of a run, in dispatch order."""
    names = sorted(os.listdir(os.path.join(run_dir, "tasks")))
    return [n[: -len(".pkl")] for n in names if n.endswith(".pkl")]


def write_task(run_dir: str, task_id: str, fn, args: tuple) -> None:
    """Durably publish one task (atomic tmp + rename)."""
    path = _task_path(run_dir, task_id)
    tmp = f"{path}.tmp-{os.getpid()}"
    with open(tmp, "wb") as fh:
        pickle.dump((fn, args), fh)
    os.replace(tmp, path)


@dataclass(frozen=True)
class Claim:
    """A successful lease claim; ``takeover`` marks a stale-lease steal."""

    task_id: str
    lease_path: str
    takeover: bool


def claim_task(
    run_dir: str,
    task_id: str,
    *,
    lease_timeout: float,
    worker_id: str,
) -> Claim | None:
    """Try to claim *task_id*; return a :class:`Claim` or ``None``.

    The fresh-claim path is ``O_CREAT | O_EXCL`` — exactly one worker
    can create the lease file.  If the lease exists but its mtime is
    older than *lease_timeout*, the claimant is presumed dead and the
    lease is taken over via atomic replace (last writer wins; the loser
    of a takeover race computes a redundant but harmless duplicate of a
    pure chunk).
    """
    lease = _lease_path(run_dir, task_id)
    body = json.dumps({"worker": worker_id, "claimed_at": time.time()})  # repro: allow[REP006] lease liveness timestamp; informs takeover only, never enters results
    try:
        fd = os.open(lease, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        try:
            age = time.time() - os.stat(lease).st_mtime  # repro: allow[REP006] dead-claimant detection against lease mtime; results stay pure
        except FileNotFoundError:
            return None  # released between listdir and stat; rescan
        if age <= lease_timeout:
            return None  # live claim elsewhere
        tmp = f"{lease}.tmp-{worker_id}"
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(body)
        os.replace(tmp, lease)
        return Claim(task_id, lease, takeover=True)
    with os.fdopen(fd, "w", encoding="utf-8") as fh:
        fh.write(body)
    return Claim(task_id, lease, takeover=False)


def store_result(
    run_dir: str, task_id: str, payload, *, takeover: bool = False
) -> None:
    """Durably publish one result (atomic tmp + rename, hence idempotent)."""
    path = _result_path(run_dir, task_id)
    doc = {
        "payload": payload,
        "takeover": takeover,
        "pid": os.getpid(),
    }
    tmp = f"{path}.tmp-{os.getpid()}"
    with open(tmp, "wb") as fh:
        pickle.dump(doc, fh)
    os.replace(tmp, path)


def load_result(run_dir: str, task_id: str) -> dict | None:
    """The result document of *task_id*, or ``None`` if not finished."""
    path = _result_path(run_dir, task_id)
    try:
        with open(path, "rb") as fh:
            return pickle.load(fh)
    except FileNotFoundError:
        return None


class _Heartbeat:
    """Touch a lease's mtime every ``lease_timeout / 4`` while computing."""

    def __init__(self, lease_path: str, lease_timeout: float) -> None:
        self._lease_path = lease_path
        self._interval = max(lease_timeout / 4.0, 0.01)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while not self._stop.wait(self._interval):
            try:
                os.utime(self._lease_path)
            except FileNotFoundError:
                return  # lease taken over and released; stop beating

    def __enter__(self) -> "_Heartbeat":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join(timeout=1.0)


# ----------------------------------------------------------------------
# fault injection (test-only)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FaultSpec:
    """Parsed ``$REPRO_QUEUE_FAULT``: die on the *n*-th claim."""

    mode: str  # "kill-once" | "kill-every"
    n: int


def parse_fault(text: str | None) -> FaultSpec | None:
    """Parse a fault spec string (``kill-once:<n>`` / ``kill-every:<n>``)."""
    if not text:
        return None
    mode, sep, count = text.partition(":")
    if mode not in ("kill-once", "kill-every") or not sep:
        raise ValueError(
            f"invalid REPRO_QUEUE_FAULT {text!r}; expected "
            "'kill-once:<n>' or 'kill-every:<n>'"
        )
    n = int(count)
    if n < 1:
        raise ValueError(f"REPRO_QUEUE_FAULT count must be >= 1, got {n}")
    return FaultSpec(mode, n)


def _maybe_die(fault: FaultSpec | None, claims: int, run_dir: str) -> None:
    """SIGKILL the current process if the armed fault says so."""
    if fault is None:
        return
    if fault.mode == "kill-once":
        if claims != fault.n:
            return
        try:
            fd = os.open(
                os.path.join(run_dir, "fault.lock"),
                os.O_CREAT | os.O_EXCL | os.O_WRONLY,
            )
        except FileExistsError:
            return  # another worker already took the bullet
        os.close(fd)
    elif claims % fault.n != 0:  # kill-every
        return
    os.kill(os.getpid(), signal.SIGKILL)


# ----------------------------------------------------------------------
# the worker loop
# ----------------------------------------------------------------------
def work_loop(
    run_dir: str,
    *,
    lease_timeout: float | None = None,
    poll_seconds: float = _POLL_SECONDS,
    worker_id: str | None = None,
) -> int:
    """Claim, compute and publish tasks until the run is complete.

    Runs as the child-process entry point of
    :class:`WorkQueueBackend`, but is equally launchable by hand on
    another machine against a shared ``run_dir``.  Returns the number of
    tasks this worker completed.  A chunk function that raises publishes
    its exception as the task's payload and the worker moves on; only a
    dead worker leaves a task to retry.
    """
    if lease_timeout is None:
        lease_timeout = _lease_timeout_default()
    if worker_id is None:
        worker_id = f"pid{os.getpid()}"
    fault = parse_fault(os.environ.get("REPRO_QUEUE_FAULT"))
    claims = 0
    completed = 0
    while True:
        all_done = True
        progressed = False
        for task_id in task_ids(run_dir):
            if load_result(run_dir, task_id) is not None:
                continue
            all_done = False
            claim = claim_task(
                run_dir,
                task_id,
                lease_timeout=lease_timeout,
                worker_id=worker_id,
            )
            if claim is None:
                continue
            claims += 1
            _maybe_die(fault, claims, run_dir)
            with open(_task_path(run_dir, task_id), "rb") as fh:
                fn, args = pickle.load(fh)
            try:
                with _Heartbeat(claim.lease_path, lease_timeout):
                    payload = fn(*args)
            except Exception as exc:  # noqa: BLE001 - the dispatcher re-raises it
                payload = shippable_error(exc)
            store_result(run_dir, task_id, payload, takeover=claim.takeover)
            completed += 1
            progressed = True
        if all_done:
            return completed
        if not progressed:
            # Everything unfinished is leased elsewhere; wait for results
            # or for a lease to go stale.
            time.sleep(poll_seconds)


def _work_loop_entry(run_dir: str, lease_timeout: float) -> None:
    work_loop(run_dir, lease_timeout=lease_timeout)


# ----------------------------------------------------------------------
# the dispatcher
# ----------------------------------------------------------------------
class WorkQueueBackend(ExecutorBackend):
    """Dispatch chunks through the filesystem queue (see module docstring).

    Telemetry (beyond the shared shard accounting):
    ``runtime.queue.tasks`` counts dispatched tasks,
    ``runtime.queue.dispatch`` times writing them,
    ``runtime.queue.takeovers`` counts stale-lease steals that produced
    the collected result, ``runtime.queue.worker_deaths`` counts worker
    processes that exited abnormally, and ``runtime.queue.respawns``
    counts replacements started for them.  Worker metrics ride the
    result documents, and each task's document is read exactly once —
    metrics a killed worker never shipped die with it — so merged
    counters still equal a serial run's.
    """

    name = "workqueue"
    #: Always execute through the queue, even with one worker: the
    #: protocol (and fault injection) must be exercisable at workers=1.
    inline_serial = False

    def __init__(self, config) -> None:
        super().__init__(config)
        self._run_seq = 0

    # -- knob resolution ------------------------------------------------
    def _queue_root(self) -> str:
        root = self.config.queue_dir or os.environ.get("REPRO_QUEUE_DIR")
        if root:
            os.makedirs(root, exist_ok=True)
            return root
        return tempfile.gettempdir()

    def _lease_timeout(self) -> float:
        if self.config.lease_timeout is not None:
            return self.config.lease_timeout
        return _lease_timeout_default()

    def _max_respawns(self) -> int:
        env = os.environ.get("REPRO_QUEUE_MAX_RESPAWNS")
        if env:
            return int(env)
        return max(4, 2 * self.config.n_workers)

    # -- dispatch -------------------------------------------------------
    def execute(
        self,
        calls: Sequence[ChunkCall],
        n_items: int,
        aggregator: ProgressAggregator,
    ) -> list:
        self._run_seq += 1
        run_dir = tempfile.mkdtemp(
            prefix=f"repro-queue-{os.getpid()}-{self._run_seq}-",
            dir=self._queue_root(),
        )
        try:
            return self._execute_in(run_dir, calls, n_items, aggregator)
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)

    def _execute_in(
        self,
        run_dir: str,
        calls: Sequence[ChunkCall],
        n_items: int,
        aggregator: ProgressAggregator,
    ) -> list:
        lease_timeout = self._lease_timeout()
        acct = ShardAccounting()
        registry = acct.registry
        slots: list = [None] * n_items
        t_pool = time.perf_counter()

        for sub in ("tasks", "leases", "results"):
            os.makedirs(os.path.join(run_dir, sub))
        ids = [f"task-{i:05d}" for i in range(len(calls))]
        with registry.timer("runtime.queue.dispatch"):
            for task_id, call in zip(ids, calls):
                write_task(run_dir, task_id, call.fn, call.args)
        registry.inc("runtime.queue.tasks", len(calls))
        t_submit = time.perf_counter()

        ctx = self.mp_context()
        n_workers = min(self.config.n_workers, max(len(calls), 1))

        def spawn():
            proc = ctx.Process(
                target=_work_loop_entry,
                args=(run_dir, lease_timeout),
                daemon=True,
            )
            proc.start()
            return proc

        workers = [spawn() for _ in range(n_workers)]
        respawns_left = self._max_respawns()
        pending = dict(zip(ids, calls))
        try:
            while pending:
                progressed = False
                for task_id in list(pending):
                    doc = load_result(run_dir, task_id)
                    if doc is None:
                        continue
                    if isinstance(doc["payload"], Exception):
                        raise doc["payload"]
                    pairs, worker_metrics = doc["payload"]
                    acct.record_shard(
                        time.perf_counter() - t_submit, worker_metrics
                    )
                    if doc.get("takeover"):
                        registry.inc("runtime.queue.takeovers")
                    for index, result in pairs:
                        slots[index] = result
                    aggregator.advance(pending.pop(task_id).size)
                    progressed = True
                if not pending:
                    break
                if progressed:
                    continue
                # No results this pass: reap dead workers, respawn within
                # budget, and fail loudly once nobody is left to finish.
                alive = []
                for proc in workers:
                    if proc.is_alive():
                        alive.append(proc)
                        continue
                    if proc.exitcode == 0:
                        continue  # saw the run as complete; results pending read
                    registry.inc("runtime.queue.worker_deaths")
                    if respawns_left > 0:
                        respawns_left -= 1
                        registry.inc("runtime.queue.respawns")
                        alive.append(spawn())
                workers = alive
                if not workers and all(
                    load_result(run_dir, t) is None for t in pending
                ):
                    raise RuntimeError(
                        f"workqueue run failed: {len(pending)} task(s) "
                        "unfinished with no live workers and the respawn "
                        f"budget ({self._max_respawns()}) exhausted"
                    )
                time.sleep(_POLL_SECONDS)
        finally:
            for proc in workers:
                if proc.is_alive():
                    proc.terminate()
            for proc in workers:
                proc.join(timeout=2.0)
        acct.finish(time.perf_counter() - t_pool, n_workers)
        return slots
