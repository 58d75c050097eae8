"""REP007 — bit-stability: no float power operators in kernel-parity code.

The simulation kernel ships a C transcription (``sim/_cbackend.py``)
that must reproduce the Python path *bit for bit*.  Most arithmetic is
exactly transcribable, but ``x ** y`` on floats is not: numpy lowers
small integer exponents to repeated multiplication while C's ``pow``
goes through libm, and the two can differ in the last ulp — which is
why WFP3 spells its cube ``x * x * x``, the form the C kernel's
dynamic scoring reproduces exactly.  This rule flags
``**`` (unless both operands are integer literals, which constant-fold
identically), ``math.pow`` and ``np.power`` inside the kernel-parity
modules (``sim/``, ``policies/``), so a casually added power expression
cannot silently fork the two backends.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.analysis.base import ModuleContext, Rule

__all__ = ["BitStablePow"]

_POW_QUALS = ("math.pow", "np.power", "numpy.power", "np.float_power",
              "numpy.float_power")


def _is_int_literal(node: ast.AST) -> bool:
    """An integer constant, possibly behind a unary sign."""
    if isinstance(node, ast.UnaryOp) and isinstance(
        node.op, (ast.USub, ast.UAdd)
    ):
        node = node.operand
    return isinstance(node, ast.Constant) and isinstance(node.value, int)


class BitStablePow(Rule):
    """Flag float power expressions in kernel-parity modules."""

    id = "REP007"
    name = "bit-stability"
    contract = (
        "kernel-parity modules (sim/, policies/) avoid float power:"
        " numpy `x**k` and C libm `pow` can differ in the last ulp"
    )
    rationale = (
        "the C backend is a literal transcription of the Python kernel;"
        " a power expression is the one arithmetic form the two"
        " toolchains round differently, so parity would silently break"
    )
    backstop = "tests/test_sim_kernel_parity.py, scripts/check_kernel_parity.py"
    paths = ("sim/", "policies/")
    interests = (ast.BinOp, ast.Call)

    def check(
        self, node: ast.AST, ctx: ModuleContext
    ) -> Iterator[tuple[ast.AST | None, str]]:
        if isinstance(node, ast.BinOp):
            if not isinstance(node.op, ast.Pow):
                return
            if _is_int_literal(node.left) and _is_int_literal(node.right):
                return  # 2**63 etc. constant-folds identically everywhere
            yield (
                node,
                "float `**` in a kernel-parity module is not bit-stable"
                " against the C backend's libm pow; spell the power as"
                " explicit multiplications (x*x*x) or keep the policy on"
                " the Python path with an allow",
            )
            return
        assert isinstance(node, ast.Call)
        qual = ctx.qualname(node.func)
        if qual in _POW_QUALS:
            yield (
                node,
                f"`{qual}()` in a kernel-parity module is not bit-stable"
                " against the C backend; use explicit multiplications",
            )
