#!/usr/bin/env python
"""Future-work prototype: scheduling on a CPU+GPU platform.

The paper's conclusion proposes extending the learned policies to
platforms "containing processing units with distinct architectures such
as GPUs and MICs, where multiple implementations … are available for the
same task and the scheduler needs to select one".  The library ships a
working prototype (:mod:`repro.sim.hetero`): jobs carry per-architecture
variants, the queue is ordered by any ordinary policy on the reference
(CPU) variant, and the dispatcher picks the earliest-finishing variant
that fits.

This example builds a mixed workload where a third of the jobs have a
GPU port with a 4-8x kernel speed-up, then compares FCFS and F1 queue
orders on a CPU-only versus a hybrid machine.

Run:  python examples/heterogeneous_gpu.py
"""

import numpy as np

from repro.policies.registry import get_policy
from repro.sim.hetero import HeteroJob, HeteroPlatform, Variant, hetero_simulate
from repro.workloads.lublin import lublin_workload

CPU_CORES = 256
GPUS = 16
N_JOBS = 800
GPU_PORT_FRACTION = 0.35


def build_jobs(seed: int = 21) -> list[HeteroJob]:
    """Lublin job mix; a random subset gains a GPU implementation."""
    base = lublin_workload(N_JOBS, nmax=CPU_CORES, seed=seed)
    rng = np.random.default_rng(seed + 1)
    ported = rng.random(N_JOBS) < GPU_PORT_FRACTION
    speedup = rng.uniform(4.0, 8.0, N_JOBS)
    jobs = []
    for i in range(N_JOBS):
        variants = {
            "cpu": Variant(runtime=float(base.runtime[i]), size=int(base.size[i]))
        }
        if ported[i]:
            variants["gpu"] = Variant(
                runtime=float(base.runtime[i] / speedup[i]),
                size=1,  # one accelerator per ported job
            )
        jobs.append(
            HeteroJob(job_id=i, submit=float(base.submit[i]), variants=variants)
        )
    return jobs


def main() -> None:
    jobs = build_jobs()
    ported = sum("gpu" in j.variants for j in jobs)
    print(
        f"{len(jobs)} jobs, {ported} with a GPU port "
        f"({100 * ported / len(jobs):.0f} %)"
    )

    platforms = {
        "cpu-only": HeteroPlatform({"cpu": CPU_CORES}),
        "hybrid": HeteroPlatform({"cpu": CPU_CORES, "gpu": GPUS}),
    }
    print(f"\n{'platform':>10s} {'policy':>7s} {'AVEbsld':>9s} {'gpu jobs':>9s}")
    for plat_name, platform in platforms.items():
        for policy_name in ("FCFS", "F1"):
            result = hetero_simulate(jobs, get_policy(policy_name), platform)
            print(
                f"{plat_name:>10s} {policy_name:>7s} {result.ave_bsld:>9.2f} "
                f"{result.dispatch_counts.get('gpu', 0):>9d}"
            )
    print(
        "\nThe hybrid platform absorbs load through the accelerator pool;"
        "\nF1's queue ordering still improves on FCFS in both settings."
    )


if __name__ == "__main__":
    main()
