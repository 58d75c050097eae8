"""The work-list dispatcher: :class:`TrialRunner`.

``TrialRunner.map`` is the one fan-out of embarrassingly parallel
work-lists in the library: the per-tuple permutation trials of the
training pipeline (each item runs :func:`tuple_trials`), Table 4 rows,
evaluation cells and sensitivity sweep points.  ``workers=1`` runs a
plain in-process loop (no processes, no pickling).  Otherwise each item
is queued as one task on worker processes that start once, lazily on
the first parallel fan-out, and stay alive across fan-outs, all pulling
from one shared queue (work-stealing): streamed evaluation batches and
repeated sweep phases reuse the same processes, so only the first
dispatch pays the spawn.  Runners are therefore context managers —
``with TrialRunner(workers) as runner: ...`` — or call
:meth:`TrialRunner.close` when done; the serial path starts no workers,
so forgetting to close is harmless there.

Contract
--------
1. **Determinism.**  Results are bit-identical for every worker count.
   The work-list and its per-item seed sequences are fully materialised
   *before* dispatch (training tuple ``k`` always gets child ``k`` of
   the root seed), and each result comes back with its item index, which
   alone decides where it lands.  Completion order — which *is*
   nondeterministic — only affects progress-reporting order.  A slot no
   task filled raises instead of returning a placeholder.
2. **Telemetry.**  Collection can never change a result: when the
   parent's registry is enabled, the worker runs its item under a fresh
   :class:`~repro.obs.metrics.MetricsRegistry` and ships the snapshot
   back next to the result; otherwise no registry exists in the worker.
   ``runtime.shard.queue`` is a task's wait from dispatch until a worker
   picks it up, ``runtime.shard.wall`` runs from that pickup to the
   result's arrival in the parent (compute + pickling + the result's
   trip back), ``runtime.chunk`` (merged from the worker snapshot) is
   in-worker compute, ``runtime.shard.overhead`` the non-negative excess
   of wall over compute, ``runtime.pool`` the whole fan-out, and
   ``runtime.worker_utilization`` compute-seconds over worker-seconds.
   Each completed task's snapshot is merged exactly once, so merged
   parallel counters equal serial counters.
3. **Errors.**  Fail-fast: an item that raises fails its fan-out at
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
import warnings
from collections.abc import Callable, Iterator, Sequence

import numpy as np

from repro.core.taskgen import TaskSetTuple
from repro.core.trials import ROUNDING_WARNING_PREFIX, TrialScoreResult, run_trials
from repro.obs.metrics import MetricsRegistry, current_registry, use_registry
from repro.runtime.config import resolve_workers

__all__ = ["ProgressCallback", "TrialRunner", "shippable_error", "tuple_trials"]

#: The library's progress callback: ``progress(phase, done, total)``
#: with *done* rising to *total*.
ProgressCallback = Callable[[str, int, int], None]

#: Marks a result slot no task has filled yet (``None`` is a legitimate
#: result of a mapped function).
_UNFILLED = object()

#: How long the parent waits on the result queue before checking worker
#: liveness, and how often a worker checks that its parent lives.  Only
#: affects crash-detection latency.
_POLL_SECONDS = 0.2


def tuple_trials(
    nmax: int,
    n_trials: int,
    balanced: bool,
    tau: float,
    item: tuple[TaskSetTuple, np.random.SeedSequence],
) -> TrialScoreResult:
    """The permutation trials of one ``(tuple, seed sequence)`` item.

    The work item of :func:`repro.core.pipeline.build_distribution`,
    mapped with the other arguments bound by ``functools.partial``.  The
    seed sequence is pre-spawned per tuple index, so the stream a tuple
    sees does not depend on the process that runs it.  The caller warns
    about balanced-block rounding once up front; the per-tuple
    duplicates are suppressed here.
    """
    tup, seedseq = item
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message=ROUNDING_WARNING_PREFIX)
        return run_trials(
            tup,
            nmax,
            n_trials,
            seed=np.random.default_rng(seedseq),
            balanced=balanced,
            tau=tau,
        )


def shippable_error(exc: Exception) -> Exception:
    """What a worker sends its parent when an item raises *exc*.

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
    """Worker loop: pull ``(gen, index, fn, item, collect)``, run, reply
    ``(gen, index, picked_up, payload)``.

    *payload* is ``(fn(item), metrics)``: with *collect* the item runs
    under a fresh registry whose ``runtime.chunk`` timer is the
    in-worker compute, and *metrics* is its plain-dict snapshot for the
    parent to merge; otherwise *metrics* is ``None``.  An item's
    exception is shipped back as the payload (:func:`shippable_error`)
    rather than crashing the worker, so one bad item fails its fan-out
    without killing the others.  *picked_up* is the ``time.monotonic()``
    of the pickup, a clock every process on the host shares, so the
    parent can split queue wait from the task's own wall time.

    A ``None`` task is the shutdown pill.  A worker whose parent died (a
    killed run sends no pill) exits within :data:`_POLL_SECONDS` through
    its watchdog thread.  *parent* is the pid the parent recorded before
    starting this process: a worker that first runs after its parent
    was killed would read the reaper's pid from ``os.getppid()`` and
    wait on it for good.
    """
    threading.Thread(target=_exit_with_parent, args=(parent,), daemon=True).start()
    while (task := task_queue.get()) is not None:
        picked_up = time.monotonic()
        gen, index, fn, item, collect = task
        try:
            if collect:
                registry = MetricsRegistry()
                with use_registry(registry), registry.timer("runtime.chunk"):
                    result = fn(item)
                payload = (result, registry.to_dict())
            else:
                payload = (fn(item), None)
        except Exception as exc:  # noqa: BLE001 - shipped to parent
            payload = shippable_error(exc)
        result_queue.put((gen, index, picked_up, payload))


class TrialRunner:
    """Dispatch deterministic work-lists, serially or over worker processes.

    *workers* is a count or ``"auto"``; ``None`` resolves through
    :func:`~repro.runtime.config.resolve_workers`.  ``1`` runs
    everything serially in-process.  Results come back on a shared
    result queue tagged ``(generation, index)``; the generation counter
    discards anything a worker produces for an aborted earlier fan-out.
    """

    def __init__(self, workers: int | str | None = None) -> None:
        self.n_workers = resolve_workers(workers)
        self._workers: list = []
        self._task_queue = None
        self._result_queue = None
        self._generation = 0

    def __enter__(self) -> "TrialRunner":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

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
        """Stop the workers (idempotent; the next parallel fan-out restarts them)."""
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

    def map(
        self,
        fn: Callable,
        items: Sequence,
        *,
        progress: ProgressCallback | None = None,
        phase: str = "tasks",
        on_result: Callable[[int, object], None] | None = None,
    ) -> list:
        """``[fn(x) for x in items]`` with the runtime's dispatch policy.

        *fn* must be a module-level callable (or a ``functools.partial``
        of one) with picklable arguments when a worker process runs it.
        Result order always matches item order.  ``on_result(index,
        result)`` sees each result in the parent as it lands — in item
        order serially, in completion order on the workers — before
        *progress* counts it: ``progress(phase, done, len(items))`` once
        per landed result, from the parent's one thread, so *done* rises
        by one to ``len(items)`` whatever the completion order.
        """
        if self.n_workers == 1:
            landed = enumerate(map(fn, items))
        else:
            landed = self._fan_out(fn, items)
        results = [_UNFILLED] * len(items)
        for done, (index, result) in enumerate(landed, 1):
            if on_result is not None:
                on_result(index, result)
            results[index] = result
            if progress is not None:
                progress(phase, done, len(items))
        missing = [k for k, r in enumerate(results) if r is _UNFILLED]
        if missing:
            raise RuntimeError(f"worker calls returned no result for items {missing}")
        return results

    def _fan_out(self, fn: Callable, items: Sequence) -> Iterator[tuple[int, object]]:
        """Run every item on the workers; yield ``(index, result)`` as each lands."""
        if not items:
            return
        self._ensure_started()
        self._generation += 1
        gen = self._generation
        registry = current_registry()
        collect = registry.enabled
        compute_seconds = 0.0
        t_pool = time.perf_counter()
        submitted = []
        for index, item in enumerate(items):
            submitted.append(time.monotonic())
            self._task_queue.put((gen, index, fn, item, collect))
        done = 0
        while done < len(items):
            try:
                r_gen, index, picked_up, payload = self._result_queue.get(
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
                "runtime.shard.queue", max(0.0, picked_up - submitted[index])
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
            yield index, result
        pool_seconds = time.perf_counter() - t_pool
        registry.add_time("runtime.pool", pool_seconds)
        if compute_seconds and pool_seconds > 0:
            busy = min(self.n_workers, len(items))
            registry.set_gauge(
                "runtime.worker_utilization",
                compute_seconds / (pool_seconds * busy),
            )
