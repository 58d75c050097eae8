"""Executor backends: the contract behind :class:`TrialRunner`.

:class:`~repro.runtime.executor.TrialRunner` turns a work-list into a
deterministic shard plan and a list of :class:`ChunkCall`\\ s — picklable
``(fn, args)`` pairs whose invocation returns ``(index, result)`` pairs
plus an optional worker-metrics snapshot.  *How* those calls become
running processes is the backend's business, and only the backend's:

* :class:`LocalPoolBackend` (``"local"``, the default) — persistent
  workers pulling from one shared queue (work-stealing), so repeated
  fan-outs (streamed evaluation batches) pay the spawn cost once.
* :class:`~repro.runtime.workqueue.WorkQueueBackend` (``"workqueue"``) —
  a filesystem task queue with lease/heartbeat retry, so a killed
  worker's chunks are re-dispatched and a resumed run loses nothing.

Backend contract
----------------
1. **Determinism.**  ``execute`` must place each returned
   ``(index, result)`` pair into ``slots[index]`` and nothing else —
   results are bit-identical across backends because the chunk
   functions are pure and the slots are index-addressed.  A backend may
   reorder, retry or duplicate *execution*; it must never reorder,
   drop or duplicate *slot assignment* (duplicated execution of a pure
   call writes the same bytes twice, which is idempotent).
2. **Telemetry.**  Backends account shards through
   :class:`ShardAccounting` so the counter names the manifest and
   benchmarks rely on (``runtime.pool``, ``runtime.shard.wall``,
   ``runtime.shard.overhead``, ``runtime.chunk``,
   ``runtime.worker_utilization``) mean the same thing everywhere.
   Each completed chunk's worker-metrics snapshot is merged exactly
   once, so merged parallel counters equal serial counters.
3. **Errors.**  A chunk that raises fails its fan-out at once, and the
   parent re-raises the *same exception type* the serial loop would
   have raised (:func:`shippable_error` packs it in the worker).  A
   backend must not silently swallow work, and must not retry a failing
   *call*: the work-queue backend retries dead *workers* only.
"""

from __future__ import annotations

import atexit
import multiprocessing
import pickle
import queue as queue_mod
import time
import traceback
from abc import ABC, abstractmethod
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from typing import ClassVar

from repro.obs.metrics import current_registry
from repro.runtime.config import ExecutorConfig
from repro.runtime.progress import ProgressAggregator

__all__ = [
    "ChunkCall",
    "ExecutorBackend",
    "LocalPoolBackend",
    "ShardAccounting",
    "create_backend",
    "shippable_error",
]


@dataclass(frozen=True)
class ChunkCall:
    """One dispatchable unit of work: ``fn(*args)``.

    *fn* must be a module-level callable with picklable *args*, returning
    ``(pairs, metrics)`` where *pairs* is a list of ``(item_index,
    result)`` and *metrics* is a plain-dict registry snapshot or
    ``None`` (see :mod:`repro.runtime.worker`).  *size* is the number of
    work-list items the call covers, used only for progress reporting.
    """

    fn: Callable
    args: tuple
    size: int

    def run(self) -> tuple[list[tuple[int, object]], dict | None]:
        """Invoke the call in-process (used by serial paths and tests)."""
        return self.fn(*self.args)


class ShardAccounting:
    """Shared per-fan-out telemetry bookkeeping for every backend.

    Keeps the counter names and semantics identical across backends:
    ``runtime.shard.wall`` is parent-observed latency from dispatch to
    result (spawn + pickling + queueing + compute), ``runtime.chunk``
    (merged from the worker snapshot) is in-worker compute,
    ``runtime.shard.overhead`` the non-negative excess of wall over
    compute, ``runtime.pool`` the whole fan-out, and
    ``runtime.worker_utilization`` compute-seconds over worker-seconds.
    """

    def __init__(self) -> None:
        self.registry = current_registry()
        self.compute_seconds = 0.0

    def record_shard(self, wall: float, worker_metrics: dict | None) -> None:
        """Account one completed chunk (merges its metrics exactly once)."""
        self.registry.add_time("runtime.shard.wall", wall)
        if worker_metrics is not None:
            self.registry.merge(worker_metrics)
            chunk = (
                worker_metrics.get("timers", {})
                .get("runtime.chunk", {})
                .get("seconds", 0.0)
            )
            self.compute_seconds += chunk
            self.registry.add_time(
                "runtime.shard.overhead", max(0.0, wall - chunk)
            )

    def finish(self, pool_seconds: float, n_workers: int) -> None:
        """Account the whole fan-out once all chunks are in."""
        self.registry.add_time("runtime.pool", pool_seconds)
        if self.compute_seconds and pool_seconds > 0:
            self.registry.set_gauge(
                "runtime.worker_utilization",
                self.compute_seconds / (pool_seconds * max(n_workers, 1)),
            )


class ExecutorBackend(ABC):
    """How a list of :class:`ChunkCall`\\ s becomes running processes."""

    #: Registered name (must appear in
    #: :data:`repro.runtime.config.BACKEND_NAMES`).
    name: ClassVar[str]

    #: Whether ``workers=1`` may short-circuit to the dispatcher's
    #: in-process loop.  True for backends whose single-worker execution
    #: is equivalent to it; the work-queue backend sets it False so the
    #: queue protocol (and its fault injection) is exercised even with
    #: one worker.
    inline_serial: ClassVar[bool] = True

    def __init__(self, config: ExecutorConfig) -> None:
        self.config = config

    def mp_context(self) -> multiprocessing.context.BaseContext:
        """The multiprocessing context the config asks for."""
        return multiprocessing.get_context(self.config.mp_start_method)

    @abstractmethod
    def execute(
        self,
        calls: Sequence[ChunkCall],
        n_items: int,
        aggregator: ProgressAggregator,
    ) -> list:
        """Run every call; return the ``n_items`` results by item index.

        Implementations fill ``slots[index] = result`` for every
        ``(index, result)`` pair a call returns, advance *aggregator* by
        ``call.size`` as calls complete, and account telemetry through
        :class:`ShardAccounting`.
        """

    def close(self) -> None:
        """Release any persistent resources (idempotent; default no-op)."""


def shippable_error(exc: Exception) -> Exception:
    """What a worker sends its parent when a chunk raises *exc*.

    *exc* itself when it survives a pickle round trip, so the parent
    re-raises the type the serial loop would have raised; the worker's
    traceback rides along as a note.  Otherwise a ``RuntimeError``
    carrying the traceback text.
    """
    detail = "".join(traceback.format_exception(exc))
    try:
        shipped = pickle.loads(pickle.dumps(exc))
    except Exception:  # noqa: BLE001 - any pickling failure means "fall back"
        return RuntimeError(
            f"chunk failed with an unpicklable {type(exc).__name__}:\n{detail}"
        )
    shipped.add_note(f"raised in worker process:\n{detail}")
    return shipped


#: How long the local dispatcher waits on the result queue before
#: checking worker liveness.  Only affects crash-detection latency.
_POLL_SECONDS = 0.2


def _local_worker_main(task_queue, result_queue) -> None:
    """Local worker loop: pull ``(gen, call_id, fn, args)``, run, reply.

    A ``None`` task is the shutdown pill.  A chunk's exception is
    shipped back as the payload (:func:`shippable_error`) rather than
    crashing the worker, so one bad chunk fails its fan-out without
    killing the pool.
    """
    while True:
        task = task_queue.get()
        if task is None:
            return
        gen, call_id, fn, args = task
        try:
            payload = fn(*args)
        except Exception as exc:  # noqa: BLE001 - shipped to parent
            payload = shippable_error(exc)
        result_queue.put((gen, call_id, payload))


class LocalPoolBackend(ExecutorBackend):
    """Persistent shared-queue worker pool.

    Workers start **once**, lazily on the first :meth:`execute`, and
    stay alive across fan-outs: streamed evaluation batches and repeated
    sweep phases reuse the same processes, so only the first dispatch
    pays the spawn.  All workers pull from one shared task queue, so a
    worker that finishes early takes the next chunk instead of idling
    behind a static partition.  Results come back on a shared result
    queue tagged ``(generation, call_id)``; the generation counter
    discards anything a worker produces for an aborted earlier
    ``execute``.

    Failure semantics are fail-fast: a chunk that raises re-raises in
    the parent (contract 3), and a worker that dies aborts the fan-out
    with a ``RuntimeError``.  Retry/resume is the ``workqueue``
    backend's job.
    """

    name = "local"

    def __init__(self, config: ExecutorConfig) -> None:
        super().__init__(config)
        self._workers: list = []
        self._task_queue = None
        self._result_queue = None
        self._generation = 0

    def _ensure_started(self) -> None:
        if self._workers:
            return
        ctx = self.mp_context()
        self._task_queue = ctx.Queue()
        self._result_queue = ctx.Queue()
        self._workers = [
            ctx.Process(
                target=_local_worker_main,
                args=(self._task_queue, self._result_queue),
                daemon=True,
                name=f"repro-local-{i}",
            )
            for i in range(self.config.n_workers)
        ]
        for proc in self._workers:
            proc.start()
        # Workers are daemons (they die with the parent), but close them
        # politely at interpreter exit so queues flush.
        atexit.register(self.close)

    def _check_workers(self) -> None:
        dead = [p for p in self._workers if not p.is_alive()]
        if dead:
            codes = ", ".join(f"{p.name} exit {p.exitcode}" for p in dead)
            self.close()
            raise RuntimeError(
                f"local backend worker died mid-fan-out ({codes}); "
                "results cannot be trusted to arrive — use the workqueue "
                "backend for crash retry"
            )

    def close(self) -> None:
        workers, self._workers = self._workers, []
        if not workers:
            return
        atexit.unregister(self.close)
        for proc in workers:
            if proc.is_alive():
                try:
                    self._task_queue.put(None)
                except (OSError, ValueError):  # queue already torn down
                    break
        deadline = time.monotonic() + 2.0
        for proc in workers:
            proc.join(timeout=max(0.0, deadline - time.monotonic()))
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=1.0)
        for q in (self._task_queue, self._result_queue):
            if q is not None:
                q.cancel_join_thread()
                q.close()
        self._task_queue = None
        self._result_queue = None

    def execute(
        self,
        calls: Sequence[ChunkCall],
        n_items: int,
        aggregator: ProgressAggregator,
    ) -> list:
        self._ensure_started()
        self._generation += 1
        gen = self._generation
        slots: list = [None] * n_items
        acct = ShardAccounting()
        t_pool = time.perf_counter()
        submitted = {}
        for call_id, call in enumerate(calls):
            self._task_queue.put((gen, call_id, call.fn, call.args))
            submitted[call_id] = time.perf_counter()
        done = 0
        while done < len(calls):
            try:
                r_gen, call_id, payload = self._result_queue.get(
                    timeout=_POLL_SECONDS
                )
            except queue_mod.Empty:
                self._check_workers()
                continue
            if r_gen != gen:
                # Straggler from an earlier, aborted dispatch.
                continue
            if isinstance(payload, Exception):
                raise payload
            pairs, worker_metrics = payload
            acct.record_shard(
                time.perf_counter() - submitted[call_id], worker_metrics
            )
            for index, result in pairs:
                slots[index] = result
            aggregator.advance(calls[call_id].size)
            done += 1
        acct.finish(
            time.perf_counter() - t_pool,
            min(self.config.n_workers, max(len(calls), 1)),
        )
        return slots


def create_backend(config: ExecutorConfig) -> ExecutorBackend:
    """Instantiate the backend *config* names (validated by the config)."""
    if config.backend == "workqueue":
        from repro.runtime.workqueue import WorkQueueBackend  # imports this module

        return WorkQueueBackend(config)
    return LocalPoolBackend(config)
