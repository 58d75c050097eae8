"""Weighted regression over the function space (§3.3, Eqs. 4–5), in closed form.

For every candidate :class:`~repro.core.functions.FunctionSpec` the
coefficients ``(c1, c2, c3)`` minimise the paper's weighted error

.. math::

   error = \\sum_t \\big( (r_t n_t) \\cdot (f(r_t, n_t, s_t) -
           score(r_t, n_t, s_t)) \\big)^2

— the ``r·n`` weight forces good fits on *big* jobs, "tasks that consume
a large amount of resources … have a potential of blocking the execution
of many smaller tasks".  Candidates are then ranked by the unweighted
mean absolute error of Eq. 5.

The artifact minimised Eq. 4 with SciPy's Levenberg–Marquardt solver.
No iteration is needed: each of the nine ``(op1, op2)`` shapes is linear
in at most three products of its coefficients once the redundant ones
are fixed at 1 — ``(+,+)`` fits ``[c1, c2, c3]``, ``(+,*)`` fits
``[c1·c3, c2·c3]``, ``(*,+)`` fits ``[c1·c2, c3]``, ``(+,/)`` fits
``[c1/c3, c2/c3]``, ``(/,+)`` fits ``[c1/c2, c3]`` and the other four
fit one product.  So one weighted linear least-squares solve per
candidate (:func:`least_squares`) finds the global minimum, with no
starting points and no restarts.

Rows where a division guard of :mod:`repro.core.functions` fires
(``|denominator| < 1e-15``) are handled by what the guard yields.  A
zero numerator gives exactly 0, so the row stays in the solve with a
zero column.  A nonzero one gives ``±1e15``; where that is added to a
term or divided by a fixed column its clipped residual does not depend
on the coefficients, so the row is left out of the solve and adds a
constant.  In ``(/,*)`` and ``(/,/)`` the guard value of ``c1·α/(c2·β)``
is scaled by ``c3·γ`` (or divided by it), so those rows form a second,
independent one-column fit of ``sign(c1)·c3`` (or ``sign(c1)/c3``), and
the two solutions together fix ``(c1, c2, c3)``.  The cost reported is
always that of the real clipped residuals at the returned coefficients.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.core.distribution import ScoreDistribution
from repro.core.functions import _BIG, FittedFunction, FunctionSpec, enumerate_function_space

__all__ = ["RegressionConfig", "fit_function", "fit_all", "least_squares", "rank_error"]

_PENALTY = 1e6  # residual assigned where a candidate evaluates non-finite
_GUARD = 1.0 / _BIG  # |denominator| below which a division yields the guard value


@dataclass(frozen=True)
class RegressionConfig:
    """Fitting knobs (defaults reproduce the paper's setup).

    ``weighted`` applies Eq. 4's ``r·n`` weight (otherwise every
    observation weighs 1).  Each candidate is fitted on one
    deterministic subsample of at most ``max_points`` observations,
    drawn with ``subsample_seed``; of these knobs only ``max_points``
    enters a spec fingerprint.  ``bases`` restricts :func:`fit_all` to
    the specs built from those Table 1 functions (empty = all 576).
    """

    weighted: bool = True  # Eq. 4's (r*n) weight
    max_points: int = 20000  # deterministic subsample bound
    subsample_seed: int = 0
    bases: tuple[str, ...] = field(default=())  # empty = full Table 1 space


def rank_error(predicted: np.ndarray, score: np.ndarray) -> float:
    """Eq. 5: mean absolute deviation between fit and observed scores."""
    predicted = np.asarray(predicted, dtype=float)
    bad = ~np.isfinite(predicted)
    if bad.all():
        return float("inf")
    err = np.abs(np.where(bad, _PENALTY, predicted) - score)
    return float(err.mean())


def _residual_fn(
    spec: FunctionSpec,
    r: np.ndarray,
    n: np.ndarray,
    s: np.ndarray,
    y: np.ndarray,
    w: np.ndarray,
) -> Callable[[np.ndarray], np.ndarray]:
    def residuals(coeffs: np.ndarray) -> np.ndarray:
        f = spec.evaluate(coeffs, r, n, s)
        res = w * (f - y)
        return np.where(np.isfinite(res), np.clip(res, -_PENALTY, _PENALTY), _PENALTY)

    return residuals


def _quotient(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """``num / den``, and 0 on the rows where the division guard fires."""
    guarded = np.abs(den) < _GUARD
    return np.where(guarded, 0.0, num / np.where(guarded, 1.0, den))


#: Where a shape's solved products go in ``(c1, c2, c3)``; the rest are 1.
_SLOTS: dict[tuple[str, str], list[int]] = {
    ("+", "+"): [0, 1, 2],
    ("+", "*"): [0, 1],
    ("+", "/"): [0, 1],
    ("*", "+"): [0, 2],
    ("/", "+"): [0, 2],
    ("*", "*"): [0],
    ("*", "/"): [0],
    ("/", "*"): [0],
    ("/", "/"): [0],
}


def _linearise(
    op1: str, op2: str, ta: np.ndarray, tb: np.ndarray, tc: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The two linear systems of one shape over the base images.

    Returns ``(columns, rows, guard_column, guard_rows)``: the main
    system's columns and the rows it keeps, then the second system's one
    column and its rows.  Rows in neither have a constant residual.
    """
    every = np.ones(len(ta), dtype=bool)
    gb, gc = np.abs(tb) < _GUARD, np.abs(tc) < _GUARD
    if op1 == "/" and op2 != "+":
        # c1·α/(c2·β) is 0 where α = 0 and sign(c1·α)·1e15 where β is guarded
        first, guarded = ~gb | (ta == 0), gb & (ta != 0)
        if op2 == "*":
            return (_quotient(ta, tb) * tc)[:, None], first, _BIG * np.sign(ta) * tc, guarded
        # (/,/): a nonzero first quotient over a guarded γ is again ±1e15
        return (
            _quotient(_quotient(ta, tb), tc)[:, None],
            first & (~gc | (ta == 0)),
            _quotient(_BIG * np.sign(ta), tc),
            guarded & ~gc,
        )
    if op2 == "/":  # (+,/), (*,/): a nonzero numerator over a guarded γ is ±1e15
        numerators = [ta, tb] if op1 == "+" else [ta * tb]
        columns = [_quotient(t, tc) for t in numerators]
        rows = ~gc | np.logical_and.reduce([t == 0 for t in numerators])
    elif op1 == "/":  # (/,+): ±1e15 plus c3·γ
        columns, rows = [_quotient(ta, tb), tc], ~gb | (ta == 0)
    else:
        left = [ta, tb] if op1 == "+" else [ta * tb]
        columns = left + [tc] if op2 == "+" else [t * tc for t in left]
        rows = every
    return np.column_stack(columns), rows, np.zeros_like(ta), ~every


def _solve(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, float]:
    """Least-squares solution of ``a·x ≈ b`` and its sum of squares.

    Columns are scaled to unit norm first, because their magnitudes
    differ by many orders (``id(r)·id(n)`` against ``1e15·γ(s)``).
    A system without rows solves to 0.
    """
    if not len(b):
        return np.zeros(a.shape[1]), 0.0
    norms = np.sqrt(np.einsum("ij,ij->j", a, a))
    scale = np.where(norms > 0, norms, 1.0)
    x = np.linalg.lstsq(a / scale, b, rcond=None)[0] / scale
    res = a @ x - b
    return x, float(res @ res)


def _coefficients(spec: FunctionSpec, p: np.ndarray, q: float) -> np.ndarray:
    """``(c1, c2, c3)`` from the main solution *p* and the guard solution *q*."""
    coeffs = np.ones(3)
    coeffs[_SLOTS[spec.op1, spec.op2]] = p
    if q == 0.0:
        return coeffs
    # p is c1·c3/c2 (or c1/(c2·c3)) and q is sign(c1)·c3 (or sign(c1)/c3):
    # c3 > 0 takes q's magnitude, c1 its sign, and c2 = ±1 p's sign.
    c3 = abs(q) if spec.op2 == "*" else 1.0 / abs(q)
    p0 = float(p[0]) if p[0] != 0.0 else 1e-200  # c1 may not vanish
    c2 = float(np.sign(p0) * np.sign(q))
    c1 = np.sign(q) * abs(p0) * (1.0 / c3 if spec.op2 == "*" else c3)
    return np.array([c1, c2, c3])


@dataclass(frozen=True)
class LinearFit:
    """The closed-form solve of one candidate.

    ``cost`` is ½·SSE of the real clipped residuals of Eq. 4 at ``x``;
    ``model_cost`` is ½·SSE as the linear systems predict it (their two
    sums plus the constant rows), which equals ``cost`` whenever the
    guard model holds.  ``nfev`` counts residual evaluations: one.
    """

    x: np.ndarray
    cost: float
    model_cost: float
    nfev: int = 1


def least_squares(
    spec: FunctionSpec,
    r: np.ndarray,
    n: np.ndarray,
    s: np.ndarray,
    y: np.ndarray,
    w: np.ndarray,
) -> LinearFit:
    """Minimise Eq. 4 for one candidate with weights *w*.

    Raises :class:`numpy.linalg.LinAlgError` when every row's residual
    is a guard constant, since then no coefficient changes the cost.
    """
    columns, rows, guard_column, guard_rows = _linearise(
        spec.op1, spec.op2, *spec.terms(r, n, s)
    )
    if not (rows.any() or guard_rows.any()):
        raise np.linalg.LinAlgError(f"{spec.short_name}: every row is guarded")
    wy = w * y
    p, sse = _solve(w[rows, None] * columns[rows], wy[rows])
    q, sse_guard = _solve((w * guard_column)[guard_rows, None], wy[guard_rows])
    constant = len(y) - int(rows.sum()) - int(guard_rows.sum())
    x = _coefficients(spec, p, float(q[0]))
    res = _residual_fn(spec, r, n, s, y, w)(x)
    return LinearFit(
        x=x,
        cost=0.5 * float(res @ res),
        model_cost=0.5 * (sse + sse_guard + constant * _PENALTY * _PENALTY),
    )


def fit_function(
    spec: FunctionSpec,
    dist: ScoreDistribution,
    config: RegressionConfig | None = None,
) -> FittedFunction:
    """Fit one candidate function to the score distribution.

    Never raises on a failed solve: a candidate that cannot be fitted
    (every row guarded, or a :class:`numpy.linalg.LinAlgError`) is
    returned with infinite rank error, so enumeration always completes
    (mirroring the artifact, which simply reported every candidate's
    fitness).
    """
    config = config or RegressionConfig()
    data = dist.subsample(config.max_points, seed=config.subsample_seed)
    r, n, s, y = data.runtime, data.size, data.submit, data.score

    if config.weighted:
        w = r * n
        mean_w = w.mean()
        w = w / mean_w if mean_w > 0 else np.ones_like(w)
    else:
        w = np.ones_like(y)

    try:
        sol = least_squares(spec, r, n, s, y, w)
    except np.linalg.LinAlgError:
        sol = None
    if sol is None or not np.isfinite(sol.x).all():
        return FittedFunction(
            spec=spec,
            coeffs=(np.nan, np.nan, np.nan),
            rank_error=float("inf"),
            weighted_sse=float("inf"),
            n_observations=len(data),
        )

    predicted = spec.evaluate(sol.x, r, n, s)
    return FittedFunction(
        spec=spec,
        coeffs=tuple(float(c) for c in sol.x),
        rank_error=rank_error(predicted, y),
        weighted_sse=2.0 * sol.cost,
        n_observations=len(data),
    )


def fit_all(
    dist: ScoreDistribution,
    specs: Sequence[FunctionSpec] | None = None,
    config: RegressionConfig | None = None,
    progress: Callable[[int, int], None] | None = None,
) -> list[FittedFunction]:
    """Fit every candidate and return them sorted by rank error (Eq. 5).

    *progress* (``done, total``) supports long enumerations from the CLI.
    """
    config = config or RegressionConfig()
    if specs is None:
        specs = enumerate_function_space()
        if config.bases:
            specs = [
                sp
                for sp in specs
                if {sp.alpha, sp.beta, sp.gamma} <= set(config.bases)
            ]
    fitted: list[FittedFunction] = []
    total = len(specs)
    for i, spec in enumerate(specs):
        fitted.append(fit_function(spec, dist, config))
        if progress is not None:
            progress(i + 1, total)
    fitted.sort(key=lambda f: (f.rank_error, f.spec.short_name))
    return fitted
