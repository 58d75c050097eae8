"""Smart ad-hoc policies from Tang et al. (2009): WFP3 and UNICEF.

Table 2 of the paper:

* ``WFP3:   score(t) = -(w_t / r_t)^3 * n_t`` — favour jobs that have
  waited long relative to their length, weighted by size so big old jobs
  do not starve.
* ``UNICEF: score(t) = -w_t / (log2(n_t) * r_t)`` — fast turnaround for
  small jobs.

Both depend on the waiting time ``w = now - submit`` and are therefore
*dynamic*: their scores must be recomputed at every rescheduling event.
Everything else in the formulas is now-independent, so each policy
splits it out once per workload in :meth:`kernel_terms` (``a`` divides
the wait; WFP3's ``b`` multiplies the cube) and :meth:`scores` is
written over the same arrays.  What is left per pass uses only
``- / * max``, which the compiled kernel (:mod:`repro.sim._cbackend`)
reproduces bit for bit; the cube is ``x * x * x``, not ``x ** 3``, for
the same reason.

Numerical guards: runtimes/estimates are clamped to >= 1 s and ``log2(n)``
to >= 1 (serial jobs would otherwise divide by zero), mirroring the
artifact implementation's behaviour on SWF traces.
"""

from __future__ import annotations

import numpy as np

from repro.policies.base import KERNEL_UNICEF, KERNEL_WFP3, KernelTerms, Policy

__all__ = ["WFP3", "UNICEF"]

_MIN_PROC = 1.0  # avoid division blow-ups on sub-second runtimes


def _wait(now, submit) -> np.ndarray:
    return np.maximum(float(now) - np.asarray(submit, dtype=float), 0.0)


def _clamped_proc(proc) -> np.ndarray:
    return np.maximum(np.asarray(proc, dtype=float), _MIN_PROC)


class WFP3(Policy):
    """Waiting-Function Policy, cubic variant (Tang et al. 2009)."""

    name = "WFP"
    dynamic = True

    def kernel_terms(self, proc, size) -> KernelTerms:
        return KernelTerms(KERNEL_WFP3, _clamped_proc(proc), np.asarray(size, dtype=float))

    def scores(self, now, submit, proc, size):
        _, a, b = self.kernel_terms(proc, size)
        x = _wait(now, submit) / a
        return -(x * x * x) * b


class UNICEF(Policy):
    """UNICEF policy (Tang et al. 2009): quick service for small jobs."""

    name = "UNI"
    dynamic = True

    def kernel_terms(self, proc, size) -> KernelTerms:
        denom = np.maximum(np.log2(np.maximum(np.asarray(size, dtype=float), 2.0)), 1.0)
        a = denom * _clamped_proc(proc)
        return KernelTerms(KERNEL_UNICEF, a, a)

    def scores(self, now, submit, proc, size):
        _, a, _ = self.kernel_terms(proc, size)
        return -_wait(now, submit) / a
