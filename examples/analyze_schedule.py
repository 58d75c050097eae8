#!/usr/bin/env python
"""Operator's view: characterise a workload, compare policies, inspect a
schedule timeline.

Uses the library's analysis extensions on top of the paper's machinery:

* :mod:`repro.workloads.analysis` — is my trace what I think it is?
* :mod:`repro.policies.analysis`  — which policies actually order my
  queue differently (and which are FCFS in disguise)?
* :func:`repro.sim.check.step_profile` — what did the machine and the
  queue look like over time under the chosen policy?

Run:  python examples/analyze_schedule.py
"""

import numpy as np

import repro
from repro.policies.analysis import agreement_matrix
from repro.sim.check import step_profile
from repro.workloads.analysis import profile_workload

NMAX = 256


def time_average(profile, t0: float, t1: float) -> float:
    """Time average of a ``(time, value)`` step profile over ``[t0, t1]``."""
    time, value = profile
    grid = np.concatenate([[t0], time[(time > t0) & (time < t1)], [t1]])
    idx = np.searchsorted(time, grid[:-1], side="right") - 1
    level = np.where(idx >= 0, value[np.maximum(idx, 0)], 0.0)
    return float(level @ np.diff(grid)) / (t1 - t0)


def main() -> None:
    # --- 1. characterise the workload --------------------------------
    wl = repro.apply_tsafrir(
        repro.lublin_workload(3000, nmax=NMAX, seed=17), seed=18
    )
    print(profile_workload(wl).to_text())

    # --- 2. which policies are genuinely different here? -------------
    policies = [repro.get_policy(n) for n in ("FCFS", "SPT", "F1", "F2", "F3")]
    names, mat = agreement_matrix(policies, wl)
    print("\nqueue-order agreement (Kendall tau):")
    print("        " + "".join(f"{n:>7s}" for n in names))
    for i, row_name in enumerate(names):
        print(f"{row_name:>7s} " + "".join(f"{mat[i, j]:>7.2f}" for j in range(len(names))))
    print(
        "note: F3's huge log10(s) constant makes it order almost like FCFS\n"
        "on short spans — exactly what the paper's Figure 3(b) shows."
    )

    # --- 3. simulate and inspect the timeline ------------------------
    result = repro.simulate(
        wl, repro.get_policy("F1"), NMAX, use_estimates=True, backfill=True
    )
    busy = step_profile(result.start, result.finish, wl.size)
    queue = step_profile(wl.submit, result.start, np.ones(len(wl)))
    horizon = result.makespan
    print(f"\nschedule under F1 + EASY ({len(wl)} jobs):")
    print(f"  AVEbsld              {result.ave_bsld:.2f}")
    print(f"  peak busy cores      {busy[1].max():.0f} / {NMAX}")
    print(f"  mean busy cores      {time_average(busy, 0, horizon):.1f}")
    print(f"  peak queue length    {queue[1].max():.0f}")
    print(f"  mean queue length    {time_average(queue, 0, horizon):.1f}")
    print(f"  jobs backfilled      {result.backfill_count}")

    # hourly utilization sketch
    print("\n  utilization by hour (first 24h):")
    for h in range(0, 24, 3):
        frac = time_average(busy, h * 3600.0, (h + 3) * 3600.0) / NMAX
        bar = "#" * int(round(frac * 40))
        print(f"   {h:02d}-{h + 3:02d}h {frac:5.1%} {bar}")


if __name__ == "__main__":
    main()
