"""The persistent worker pool behind :class:`~repro.runtime.TrialRunner`.

:class:`~repro.runtime.executor.TrialRunner` turns a work-list into one
:class:`ChunkCall` per item — a picklable ``(fn, args)`` pair, in
practice :func:`call_chunk` of the item, whose invocation returns
``(result, metrics)``: the item's result plus an optional
worker-metrics snapshot.  :class:`WorkerPool` runs them on worker
processes that start once and stay alive across fan-outs, all pulling
from one shared queue (work-stealing).

Pool contract
-------------
1. **Determinism.**  The pool hands back each call's result with the
   call's index and nothing else; the caller places it by index.
   Completion order — which *is* nondeterministic — never decides where
   a result lands, so results are bit-identical to the serial loop.
2. **Telemetry.**  Collection can never change a result: when the
   dispatcher asks for it, :func:`call_chunk` runs its item under a
   fresh :class:`~repro.obs.metrics.MetricsRegistry` and ships the
   snapshot back next to the result; otherwise no registry exists in
   the worker.  ``runtime.shard.queue`` is a call's wait from dispatch
   until a worker picks it up, ``runtime.shard.wall`` runs from that
   pickup to the result's arrival in the parent (compute + pickling +
   the result's trip back), ``runtime.chunk`` (merged from the worker
   snapshot) is in-worker compute, ``runtime.shard.overhead`` the
   non-negative excess of wall over compute, ``runtime.pool`` the whole
   fan-out, and ``runtime.worker_utilization`` compute-seconds over
   worker-seconds.
   Each completed call's snapshot is merged exactly once, so merged
   parallel counters equal serial counters.
3. **Errors.**  Fail-fast: a call that raises fails its fan-out at
   once, and the parent re-raises the *same exception type* the serial
   loop would have raised (:func:`shippable_error` packs it in the
   worker).  A worker that dies aborts the fan-out with a
   ``RuntimeError``.  Nothing is retried; a killed training run resumes
   from the per-tuple entries of its artifact cache instead
   (:func:`repro.core.pipeline.build_distribution`).
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import pickle
import queue as queue_mod
import threading
import time
import traceback
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass

from repro.obs.metrics import MetricsRegistry, current_registry, use_registry
from repro.runtime.progress import ProgressAggregator

__all__ = ["ChunkCall", "WorkerPool", "call_chunk", "shippable_error"]


@dataclass(frozen=True)
class ChunkCall:
    """One dispatchable work-list item: ``fn(*args)``.

    *fn* must be a module-level callable with picklable *args*, returning
    ``(result, metrics)`` where *metrics* is a plain-dict registry
    snapshot or ``None`` (see :func:`call_chunk`).
    """

    fn: Callable
    args: tuple


def call_chunk(
    fn: Callable[[object], object], item: object, collect_metrics: bool = False
) -> tuple[object, dict | None]:
    """``(fn(item), metrics)``: one work-list item, run in a worker.

    With *collect_metrics* the item runs under a fresh registry whose
    ``runtime.chunk`` timer is the in-worker compute (spawn and pickle
    overhead excluded), and *metrics* is its plain-dict snapshot for
    the parent to merge; otherwise *metrics* is ``None``.
    """
    if not collect_metrics:
        return fn(item), None
    registry = MetricsRegistry()
    with use_registry(registry), registry.timer("runtime.chunk"):
        result = fn(item)
    return result, registry.to_dict()


def shippable_error(exc: Exception) -> Exception:
    """What a worker sends its parent when a call raises *exc*.

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
            f"call failed with an unpicklable {type(exc).__name__}:\n{detail}"
        )
    shipped.add_note(f"raised in worker process:\n{detail}")
    return shipped


#: How long the dispatcher waits on the result queue before checking
#: worker liveness, and how often a worker checks that its parent lives.
#: Only affects crash-detection latency.
_POLL_SECONDS = 0.2


def _exit_with_parent(parent: int) -> None:
    """Watchdog: end this worker process once *parent* is gone.

    Runs on a daemon thread, so it fires whatever the main thread is
    doing — blocked on a task message the killed parent left
    half-written, or busy inside a long task.
    """
    while os.getppid() == parent:
        time.sleep(_POLL_SECONDS)
    # Nobody will drain the result queue: exit without flushing it.
    os._exit(1)


def _worker_main(task_queue, result_queue, parent: int) -> None:
    """Worker loop: pull ``(gen, call_id, fn, args)``, run, reply
    ``(gen, call_id, picked_up, payload)``.

    A ``None`` task is the shutdown pill.  A worker whose parent died (a
    killed run sends no pill) exits within :data:`_POLL_SECONDS` through
    its watchdog thread.  *parent* is the pid the parent recorded before
    starting this process: a worker that first runs after its parent
    was killed would read the reaper's pid from ``os.getppid()`` and
    wait on it for good.  A call's exception is shipped back as the
    payload (:func:`shippable_error`) rather than crashing the worker,
    so one bad call fails its fan-out without killing the pool.
    *picked_up* is the ``time.monotonic()`` of the pickup, a clock every
    process on the host shares, so the parent can split queue wait from
    the call's own wall time.
    """
    threading.Thread(target=_exit_with_parent, args=(parent,), daemon=True).start()
    while (task := task_queue.get()) is not None:
        picked_up = time.monotonic()
        gen, call_id, fn, args = task
        try:
            payload = fn(*args)
        except Exception as exc:  # noqa: BLE001 - shipped to parent
            payload = shippable_error(exc)
        result_queue.put((gen, call_id, picked_up, payload))


class WorkerPool:
    """Persistent shared-queue worker processes.

    Workers start **once**, lazily on the first :meth:`run`, and stay
    alive across fan-outs: streamed evaluation batches and repeated
    sweep phases reuse the same processes, so only the first dispatch
    pays the spawn.  Results come back on a shared result queue tagged
    ``(generation, call_id)``; the generation counter discards anything
    a worker produces for an aborted earlier fan-out.
    """

    def __init__(self, n_workers: int) -> None:
        self.n_workers = n_workers
        self._workers: list = []
        self._task_queue = None
        self._result_queue = None
        self._generation = 0

    def _ensure_started(self) -> None:
        if self._workers:
            return
        ctx = multiprocessing.get_context()
        self._task_queue = ctx.Queue()
        self._result_queue = ctx.Queue()
        parent = os.getpid()
        self._workers = [
            ctx.Process(
                target=_worker_main,
                args=(self._task_queue, self._result_queue, parent),
                daemon=True,
                name=f"repro-worker-{i}",
            )
            for i in range(self.n_workers)
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
                f"worker died mid-fan-out ({codes}); results cannot be"
                " trusted to arrive"
            )

    def close(self) -> None:
        """Stop the workers (idempotent; the next :meth:`run` restarts them)."""
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

    def run(
        self, calls: Sequence[ChunkCall], aggregator: ProgressAggregator
    ) -> Iterator[tuple[int, object]]:
        """Run every call; yield ``(call index, result)`` as each lands.

        The caller places results by index, so it may act on one (say,
        persist it) before the fan-out ends; *aggregator* advances by
        one once the caller is done with it.
        """
        if not calls:
            return
        self._ensure_started()
        self._generation += 1
        gen = self._generation
        registry = current_registry()
        compute_seconds = 0.0
        t_pool = time.perf_counter()
        submitted = {}
        for call_id, call in enumerate(calls):
            submitted[call_id] = time.monotonic()
            self._task_queue.put((gen, call_id, call.fn, call.args))
        done = 0
        while done < len(calls):
            try:
                r_gen, call_id, picked_up, payload = self._result_queue.get(
                    timeout=_POLL_SECONDS
                )
            except queue_mod.Empty:
                self._check_workers()
                continue
            if r_gen != gen:
                # Straggler from an earlier, aborted fan-out.
                continue
            if isinstance(payload, Exception):
                raise payload
            result, worker_metrics = payload
            wall = time.monotonic() - picked_up
            registry.add_time(
                "runtime.shard.queue", max(0.0, picked_up - submitted[call_id])
            )
            registry.add_time("runtime.shard.wall", wall)
            if worker_metrics is not None:
                registry.merge(worker_metrics)
                chunk = (
                    worker_metrics.get("timers", {})
                    .get("runtime.chunk", {})
                    .get("seconds", 0.0)
                )
                compute_seconds += chunk
                registry.add_time("runtime.shard.overhead", max(0.0, wall - chunk))
            done += 1
            yield call_id, result
            aggregator.advance()
        pool_seconds = time.perf_counter() - t_pool
        registry.add_time("runtime.pool", pool_seconds)
        if compute_seconds and pool_seconds > 0:
            busy = min(self.n_workers, len(calls))
            registry.set_gauge(
                "runtime.worker_utilization",
                compute_seconds / (pool_seconds * busy),
            )
