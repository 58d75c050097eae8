"""Picklable worker-process entry points.

Everything a pool worker process executes must be importable by
name in the child process, so the chunk runners
live here as plain module-level functions of plain picklable arguments
(dataclasses of numpy arrays, :class:`~numpy.random.SeedSequence`\\ s,
ints, floats).  They are *pure* with respect to results: the
``(index, result)`` pairs depend only on their arguments, which is what
makes the fan-out bit-identical to the serial loop.

Telemetry rides the same result channel: when the dispatcher asks for
it (``collect_metrics=True``), a chunk runner installs a fresh
:class:`~repro.obs.metrics.MetricsRegistry` for the chunk, times its
compute (``runtime.chunk`` — in-worker wall time, i.e. spawn/pickle
overhead excluded), and returns the registry's plain-dict snapshot
alongside the pairs for the parent to merge.  Collection can never
change a result; with ``collect_metrics=False`` the metrics slot is
``None`` and no registry exists in the child.
"""

from __future__ import annotations

import warnings
from collections.abc import Callable, Sequence

import numpy as np

from repro.core.taskgen import TaskSetTuple
from repro.core.trials import ROUNDING_WARNING_PREFIX, TrialScoreResult, run_trials
from repro.obs.metrics import MetricsRegistry, use_registry

__all__ = ["run_trial_chunk", "call_chunk"]

ChunkReturn = tuple[list[tuple[int, object]], dict | None]


def run_trial_chunk(
    items: Sequence[tuple[int, TaskSetTuple, np.random.SeedSequence]],
    nmax: int,
    n_trials: int,
    balanced: bool,
    tau: float,
    collect_metrics: bool = False,
) -> "tuple[list[tuple[int, TrialScoreResult]], dict | None]":
    """Run the permutation trials of one chunk of ``(index, tuple, seed)``.

    Each item carries its own pre-spawned seed sequence, so the stream a
    tuple sees is a function of its index alone — not of the chunk it
    landed in or the process that ran it.  Returns ``(pairs, metrics)``
    where *metrics* is the chunk's registry snapshot (or ``None``).

    Per tuple, :func:`run_trials` hands all permutations to the
    simulation kernel in batches (``simulate_fixed_priority_batch``),
    so each worker process crosses into the compiled kernel a handful
    of times per chunk rather than once per trial.
    """
    registry = MetricsRegistry() if collect_metrics else None

    def _run() -> list[tuple[int, TrialScoreResult]]:
        out: list[tuple[int, TrialScoreResult]] = []
        with warnings.catch_warnings():
            # The dispatcher already warned once about balanced-trial
            # rounding; each worker process would otherwise repeat it.
            warnings.filterwarnings("ignore", message=ROUNDING_WARNING_PREFIX)
            for index, tup, seedseq in items:
                result = run_trials(
                    tup,
                    nmax,
                    n_trials,
                    seed=np.random.default_rng(seedseq),
                    balanced=balanced,
                    tau=tau,
                )
                out.append((index, result))
        return out

    if registry is None:
        return _run(), None
    with use_registry(registry), registry.timer("runtime.chunk"):
        pairs = _run()
    return pairs, registry.to_dict()


def call_chunk(
    fn: Callable[[object], object],
    items: Sequence[tuple[int, object]],
    collect_metrics: bool = False,
) -> ChunkReturn:
    """Apply *fn* to one chunk of ``(index, item)`` pairs.

    The generic sibling of :func:`run_trial_chunk`, used by
    :meth:`repro.runtime.TrialRunner.map` to fan out arbitrary
    experiment tasks (Table 4 rows, evaluation cells, sensitivity sweep
    points, ...).  Returns the same ``(pairs, metrics)`` shape.
    """
    if not collect_metrics:
        return [(index, fn(item)) for index, item in items], None
    registry = MetricsRegistry()
    with use_registry(registry), registry.timer("runtime.chunk"):
        pairs = [(index, fn(item)) for index, item in items]
    return pairs, registry.to_dict()
