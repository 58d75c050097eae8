"""Output checks of the benchmark, independent of the library's own code.

Every function here takes plain numbers or numpy arrays and returns the
number of failed operations plus readable problem strings, so the
checks can be exercised on planted bad results without running a
workload.  The schedule check re-derives core occupancy from start
times alone: it does not trust the simulator's bookkeeping.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence

import numpy as np


def schedule_problems(
    submit: np.ndarray,
    start: np.ndarray,
    runtime: np.ndarray,
    size: np.ndarray,
    capacity: int,
    leaf: np.ndarray | None = None,
) -> list[str]:
    """Ways a schedule is infeasible, or an empty list when it is valid.

    A valid schedule starts every job, never before its submission, and
    never has more busy cores than *capacity* at any instant — per leaf
    when *leaf* assigns each job to one of several equal partitions of
    *capacity* cores.  A job ending at ``t`` frees its cores for a job
    starting at ``t``.
    """
    submit, start, runtime = (np.asarray(a, dtype=float) for a in (submit, start, runtime))
    size = np.asarray(size, dtype=np.int64)
    problems: list[str] = []
    if not np.isfinite(start).all():
        problems.append(f"{int((~np.isfinite(start)).sum())} job(s) never started")
        return problems
    early = np.flatnonzero(start < submit)
    if early.size:
        problems.append(f"job {int(early[0])} starts before it is submitted")
    groups = [np.arange(len(start))] if leaf is None else [
        np.flatnonzero(leaf == k) for k in np.unique(leaf)
    ]
    for idx in groups:
        # Releases sort before starts at equal times (delta -size < +size).
        times = np.concatenate([start[idx] + runtime[idx], start[idx]])
        deltas = np.concatenate([-size[idx], size[idx]])
        order = np.lexsort((deltas, times))
        peak = int(np.cumsum(deltas[order]).max()) if idx.size else 0
        if peak > capacity:
            where = "" if leaf is None else f" on leaf {int(leaf[idx[0]])}"
            problems.append(f"{peak} busy cores{where} exceed capacity {capacity}")
    return problems


def train_problems(
    tuple_scores: Sequence[np.ndarray], rank_errors: Sequence[float]
) -> tuple[int, list[str]]:
    """Failed operations of a training run: tuples, then candidates.

    A tuple fails when its scores are not finite or do not sum to 1.  A
    candidate fails when its rank error is NaN or smaller than its
    predecessor's (the ranking must be sorted); every candidate fails
    when none has a finite rank error.
    """
    failed = 0
    problems: list[str] = []
    for k, scores in enumerate(tuple_scores):
        scores = np.asarray(scores, dtype=float)
        if not np.isfinite(scores).all() or not math.isclose(
            float(scores.sum()), 1.0, rel_tol=0.0, abs_tol=1e-9
        ):
            failed += 1
            problems.append(f"tuple {k}: scores sum to {float(scores.sum())!r}, not 1")
    errors = [float(e) for e in rank_errors]
    if not errors or not any(math.isfinite(e) for e in errors):
        problems.append("no candidate has a finite rank error")
        return failed + len(errors), problems
    for k, err in enumerate(errors):
        if math.isnan(err) or (k and err < errors[k - 1]):
            failed += 1
            problems.append(f"candidate {k}: rank error {err!r} out of order")
    return failed, problems


def table4_problems(
    medians: Mapping[str, Mapping[str, float]],
    rows: Sequence[str],
    policies: Sequence[str],
) -> tuple[int, list[str]]:
    """Failed Table 4 rows: missing, or a median that is not finite and >= 1."""
    failed = 0
    problems: list[str] = []
    for row in rows:
        got = medians.get(row)
        if got is None:
            failed += 1
            problems.append(f"row {row} missing")
            continue
        bad = [p for p in policies if not (math.isfinite(got.get(p, math.nan)) and got[p] >= 1.0)]
        if bad:
            failed += 1
            problems.append(f"row {row}: bad medians for {', '.join(bad)}")
    return failed, problems


def matrix_problems(
    cells: Sequence[tuple[int, str, str, float]],
    *,
    n_windows: int,
    policies: Sequence[str],
    backfills: Sequence[str],
    n_cached: int,
    expected_cached: int,
) -> tuple[int, list[str]]:
    """Failed cells of an evaluation matrix of ``(window, policy, backfill, ave_bsld)``.

    The matrix must hold one cell per ``windows x policies x backfills``
    key; each missing key is a failed cell, as is a cell whose
    ``ave_bsld`` is not finite and >= 1.  A wrong simulated/cached split
    fails every cell: the cache served results it should not have, or
    missed ones it should have served.
    """
    expected = n_windows * len(policies) * len(backfills)
    problems: list[str] = []
    keys = {(w, p, b) for w, p, b, _ in cells}
    missing = sum(
        (w, p, b) not in keys
        for w in range(n_windows)
        for p in policies
        for b in backfills
    )
    if missing:
        problems.append(f"{missing} of {expected} cells missing")
    bad = sum(not (math.isfinite(v) and v >= 1.0) for _, _, _, v in cells)
    if bad:
        problems.append(f"{bad} cell(s) with ave_bsld not finite and >= 1")
    if n_cached != expected_cached:
        problems.append(f"{n_cached} cells cached, expected {expected_cached}")
        return max(expected, len(cells)), problems
    return missing + bad, problems
