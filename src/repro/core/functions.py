"""The nonlinear function space of §3.3.

Candidate scheduling policies are functions of the form

.. math::

    f = (c_1\\,\\alpha(r)) \\;op_1\\; (c_2\\,\\beta(n)) \\;op_2\\; (c_3\\,\\gamma(s))

with base functions :math:`\\alpha,\\beta,\\gamma` drawn from Table 1
(``id``, ``log``, ``sqrt``, ``inv``) and the operators from
``{+, ·, ÷}``.  Evaluation is **left-associative** —
``(term_r op1 term_n) op2 term_s`` — which is the composition that
produces the published Table 3 forms (a product of the r- and n-terms
plus a scaled ``log10(s)``).

The full space has :math:`4^3 \\cdot 3^2 = 576` members,
"a tangible amount of functions to perform the fit" (paper, §3.3).

Domain guards: inputs to ``log``/``inv`` are clamped to ``>= 1e-6`` and
to ``sqrt`` at ``>= 0``; division by (near-)zero yields a large finite
penalty value.  Guards only activate outside the data domain the paper
fits on (runtimes >= 1 s, sizes >= 1, submit times >= 0).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from itertools import product

import numpy as np

__all__ = [
    "BASE_FUNCTION_NAMES",
    "OPERATOR_NAMES",
    "FunctionSpec",
    "FittedFunction",
    "apply_base",
    "enumerate_function_space",
]

_EPS = 1e-6
_BIG = 1e15

BASE_FUNCTION_NAMES: tuple[str, ...] = ("id", "log", "sqrt", "inv")
OPERATOR_NAMES: tuple[str, ...] = ("+", "*", "/")

_BASE_IMPL: dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "id": lambda x: x,
    "log": lambda x: np.log10(np.maximum(x, _EPS)),
    "sqrt": lambda x: np.sqrt(np.maximum(x, 0.0)),
    "inv": lambda x: 1.0 / np.maximum(x, _EPS),
}


def apply_base(name: str, x: np.ndarray) -> np.ndarray:
    """Apply base function *name* (Table 1) with domain guards."""
    try:
        impl = _BASE_IMPL[name]
    except KeyError:
        raise KeyError(
            f"unknown base function {name!r}; choose from {BASE_FUNCTION_NAMES}"
        ) from None
    return impl(np.asarray(x, dtype=float))


def _apply_op(op: str, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if op == "+":
        return a + b
    if op == "*":
        return a * b
    if op == "/":
        small = np.abs(b) < 1.0 / _BIG
        safe_b = np.where(small, 1.0, b)
        out = a / safe_b
        return np.where(small, np.sign(a) * np.where(a == 0, 0.0, _BIG), out)
    raise KeyError(f"unknown operator {op!r}; choose from {OPERATOR_NAMES}")


@dataclass(frozen=True, slots=True)
class FunctionSpec:
    """One member of the candidate space: base functions + operators."""

    alpha: str  # base function applied to the runtime r
    beta: str  # base function applied to the size n
    gamma: str  # base function applied to the submit time s
    op1: str
    op2: str

    def __post_init__(self) -> None:
        for nm in (self.alpha, self.beta, self.gamma):
            if nm not in BASE_FUNCTION_NAMES:
                raise ValueError(f"unknown base function {nm!r}")
        for op in (self.op1, self.op2):
            if op not in OPERATOR_NAMES:
                raise ValueError(f"unknown operator {op!r}")

    @property
    def short_name(self) -> str:
        """Compact display, e.g. ``log(r)*id(n)+log(s)``."""
        return (
            f"{self.alpha}(r){self.op1}{self.beta}(n){self.op2}{self.gamma}(s)"
        )

    def terms(
        self, r: np.ndarray, n: np.ndarray, s: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Base-function images of the three inputs (no coefficients)."""
        return apply_base(self.alpha, r), apply_base(self.beta, n), apply_base(
            self.gamma, s
        )

    def evaluate(
        self,
        coeffs: np.ndarray,
        r: np.ndarray,
        n: np.ndarray,
        s: np.ndarray,
    ) -> np.ndarray:
        """Left-associative evaluation with coefficients ``(c1, c2, c3)``."""
        c1, c2, c3 = (float(c) for c in coeffs)
        ta, tb, tc = self.terms(r, n, s)
        inner = _apply_op(self.op1, c1 * ta, c2 * tb)
        return _apply_op(self.op2, inner, c3 * tc)


def enumerate_function_space() -> list[FunctionSpec]:
    """All 576 candidate specs, in deterministic lexicographic order."""
    return [
        FunctionSpec(alpha=a, beta=b, gamma=g, op1=o1, op2=o2)
        for a, b, g, o1, o2 in product(
            BASE_FUNCTION_NAMES,
            BASE_FUNCTION_NAMES,
            BASE_FUNCTION_NAMES,
            OPERATOR_NAMES,
            OPERATOR_NAMES,
        )
    ]


@dataclass(frozen=True)
class FittedFunction:
    """A spec with fitted coefficients and goodness-of-fit numbers.

    ``rank_error`` is Eq. 5 (mean absolute error — lower is better);
    ``weighted_sse`` is the objective of Eq. 4 actually minimised.
    """

    spec: FunctionSpec
    coeffs: tuple[float, float, float]
    rank_error: float
    weighted_sse: float
    n_observations: int

    def __call__(self, r: np.ndarray, n: np.ndarray, s: np.ndarray) -> np.ndarray:
        """Evaluate the fitted function."""
        return self.spec.evaluate(np.asarray(self.coeffs), r, n, s)

    def describe(self) -> str:
        """Artifact-style rendering with explicit coefficients."""
        c1, c2, c3 = self.coeffs
        return (
            f"({c1:.10f} x {self.spec.alpha}(runtime)) {self.spec.op1} "
            f"({c2:.10f} x {self.spec.beta}(#cores)) {self.spec.op2} "
            f"({c3:.10f} x {self.spec.gamma}(submit)), "
            f"fitness={self.rank_error:.7f}"
        )

    def simplified(self) -> str:
        """Table-3-style rendering with merged coefficients.

        Only the published structural family — ``(c1 α(r))·(c2 β(n)) +
        c3 γ(s)`` — admits the merge (divide through by ``c1·c2``); other
        shapes fall back to :meth:`describe`.
        """
        c1, c2, c3 = self.coeffs
        if self.spec.op1 == "*" and self.spec.op2 == "+" and c1 * c2 != 0.0:
            merged = c3 / (c1 * c2)
            return (
                f"{self.spec.alpha}(r)·{self.spec.beta}(n) "
                f"+ {merged:.3g}·{self.spec.gamma}(s)"
            )
        return self.describe()
