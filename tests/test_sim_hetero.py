"""Tests for the heterogeneous-platform prototype (paper future work)."""

import numpy as np
import pytest

from oracle_hetero import oracle_hetero_simulate
from repro.policies.classic import FCFS, SPT
from repro.policies.registry import get_policy
from repro.sim.engine import simulate
from repro.sim.hetero import (
    HeteroJob,
    HeteroPlatform,
    Variant,
    hetero_simulate,
)
from repro.sim.job import Workload


def cpu_job(job_id, submit, runtime, size, gpu=None):
    variants = {"cpu": Variant(runtime=runtime, size=size)}
    if gpu is not None:
        variants["gpu"] = Variant(runtime=gpu[0], size=gpu[1])
    return HeteroJob(job_id=job_id, submit=submit, variants=variants)


class TestDataTypes:
    def test_variant_validation(self):
        with pytest.raises(ValueError):
            Variant(runtime=0.0, size=1)
        with pytest.raises(ValueError):
            Variant(runtime=1.0, size=0)

    def test_job_needs_variants(self):
        with pytest.raises(ValueError):
            HeteroJob(job_id=1, submit=0.0, variants={})

    def test_job_reference_must_exist(self):
        with pytest.raises(ValueError, match="reference"):
            HeteroJob(
                job_id=1,
                submit=0.0,
                variants={"gpu": Variant(1.0, 1)},
                reference="cpu",
            )

    def test_platform_needs_pools(self):
        with pytest.raises(ValueError):
            HeteroPlatform({})

    def test_validate_rejects_unrunnable(self):
        platform = HeteroPlatform({"cpu": 4})
        job = cpu_job(1, 0.0, 10.0, 8)  # needs 8 CPU cores, pool has 4
        with pytest.raises(ValueError, match="no variant fits"):
            platform.validate([job])


class TestDispatch:
    def test_single_job_picks_faster_arch(self):
        job = HeteroJob(
            job_id=0,
            submit=0.0,
            variants={"cpu": Variant(100.0, 4), "gpu": Variant(10.0, 1)},
        )
        result = hetero_simulate([job], FCFS(), HeteroPlatform({"cpu": 8, "gpu": 2}))
        assert result.chosen_arch == ["gpu"]
        assert result.executed_runtime[0] == 10.0
        assert result.ave_bsld == 1.0

    def test_falls_back_when_fast_pool_busy(self):
        jobs = [
            HeteroJob(
                job_id=i,
                submit=0.0,
                variants={"cpu": Variant(50.0, 4), "gpu": Variant(10.0, 2)},
            )
            for i in range(2)
        ]
        result = hetero_simulate(jobs, FCFS(), HeteroPlatform({"cpu": 4, "gpu": 2}))
        # first job takes the GPU (finishes at 10); second compares
        # cpu finish (0+50) vs waiting — it dispatches to cpu now.
        assert sorted(result.chosen_arch) == ["cpu", "gpu"]
        assert np.all(result.start == 0.0)

    def test_earliest_finish_not_greedy_speed(self):
        """Variant choice minimises finish time, not raw runtime."""
        job = HeteroJob(
            job_id=0,
            submit=0.0,
            variants={"cpu": Variant(10.0, 1), "gpu": Variant(10.0, 1)},
        )
        result = hetero_simulate([job], FCFS(), HeteroPlatform({"cpu": 1, "gpu": 1}))
        # tie on finish time -> deterministic alphabetical pick
        assert result.chosen_arch == ["cpu"]

    def test_head_blocking(self):
        # head needs the whole cpu pool; a later gpu-capable job waits.
        jobs = [
            cpu_job(0, 0.0, 10.0, 4),
            cpu_job(1, 1.0, 10.0, 4),
            HeteroJob(
                job_id=2,
                submit=2.0,
                variants={"cpu": Variant(5.0, 1), "gpu": Variant(1.0, 1)},
            ),
        ]
        result = hetero_simulate(jobs, FCFS(), HeteroPlatform({"cpu": 4, "gpu": 1}))
        # J1 blocks at t=1..10; J2 behind it despite free GPU until J1 starts
        assert result.start[1] == 10.0
        assert result.start[2] == 10.0
        assert result.chosen_arch[2] == "gpu"

    def test_dispatch_counts(self):
        jobs = [cpu_job(i, float(i), 5.0, 1) for i in range(4)]
        result = hetero_simulate(jobs, FCFS(), HeteroPlatform({"cpu": 4, "gpu": 2}))
        assert result.dispatch_counts == {"cpu": 4, "gpu": 0}

    def test_empty(self):
        result = hetero_simulate([], FCFS(), HeteroPlatform({"cpu": 4}))
        assert len(result.start) == 0


class TestEquivalenceWithHomogeneousEngine:
    def test_single_pool_matches_engine(self, rng):
        """cpu-only hetero == homogeneous engine without backfilling."""
        n, nmax = 40, 8
        submit = np.sort(rng.uniform(0, 200, n))
        runtime = rng.uniform(1, 50, n)
        size = rng.integers(1, nmax + 1, n)

        hjobs = [
            cpu_job(i, float(submit[i]), float(runtime[i]), int(size[i]))
            for i in range(n)
        ]
        hres = hetero_simulate(hjobs, SPT(), HeteroPlatform({"cpu": nmax}))

        wl = Workload.from_arrays(submit, runtime, size, nmax=nmax)
        eres = simulate(wl, SPT(), nmax)
        np.testing.assert_allclose(hres.start, eres.start)

    def test_policy_ordering_respected(self):
        # both jobs queued behind a blocker; SPT runs the short one first
        jobs = [
            cpu_job(0, 0.0, 20.0, 2),
            cpu_job(1, 1.0, 50.0, 2),
            cpu_job(2, 1.0, 5.0, 2),
        ]
        result = hetero_simulate(jobs, SPT(), HeteroPlatform({"cpu": 2}))
        assert result.start[2] < result.start[1]


class TestHeteroSpeedup:
    def test_gpu_pool_reduces_slowdown(self, rng):
        """Adding a GPU pool with faster variants must help a congested
        CPU platform — the motivation of the future-work direction."""
        n = 60
        submit = np.sort(rng.uniform(0, 100, n))
        jobs_cpu_only = []
        jobs_hybrid = []
        for i in range(n):
            runtime = float(rng.uniform(20, 60))
            size = int(rng.integers(1, 4))
            jobs_cpu_only.append(cpu_job(i, float(submit[i]), runtime, size))
            jobs_hybrid.append(
                cpu_job(
                    i, float(submit[i]), runtime, size, gpu=(runtime / 5.0, 1)
                )
            )
        base = hetero_simulate(jobs_cpu_only, FCFS(), HeteroPlatform({"cpu": 4}))
        hybrid = hetero_simulate(
            jobs_hybrid, FCFS(), HeteroPlatform({"cpu": 4, "gpu": 2})
        )
        assert hybrid.ave_bsld < base.ave_bsld
        assert hybrid.dispatch_counts["gpu"] > 0


class TestPlatformReuse:
    def test_two_runs_on_one_platform_are_identical(self):
        """A platform is a capacity description: a run leaves no cores
        allocated on it, so a second run sees the same idle machine."""
        platform = HeteroPlatform({"cpu": 4})
        jobs = [cpu_job(i, float(i), 5.0, 4) for i in range(4)]
        first = hetero_simulate(jobs, FCFS(), platform)
        second = hetero_simulate(jobs, FCFS(), platform)
        assert first.start.tolist() == [0.0, 5.0, 10.0, 15.0]
        assert second.start.tobytes() == first.start.tobytes()
        assert second.chosen_arch == first.chosen_arch
        assert second.dispatch_counts == first.dispatch_counts


# static and dynamic queue orders
PARITY_POLICIES = ["FCFS", "SPT", "LAF", "F1", "F2", "WFP3", "UNICEF"]
ARCHS = ("cpu", "gpu", "mic")


def _random_case(rng: np.random.Generator):
    """1-3 pools; jobs whose variants may be missing from some pools or
    name an architecture the platform does not have."""
    n_pools = int(rng.integers(1, 4))
    capacity = {a: int(rng.integers(1, 9)) for a in ARCHS[:n_pools]}
    n = int(rng.integers(1, 40))
    # coarse grids make equal submits and equal finish times common
    submit = np.round(rng.uniform(0.0, 2.0 * n, n))
    jobs = []
    for i in range(n):
        runtime = float(rng.integers(1, 30))
        variants = {"cpu": Variant(runtime, int(rng.integers(1, capacity["cpu"] + 1)))}
        for arch in ARCHS[1:] + ("fpga",):
            if rng.random() < 0.5:
                size = int(rng.integers(1, capacity.get(arch, 4) + 1))
                variants[arch] = Variant(runtime / float(rng.integers(1, 5)), size)
        jobs.append(HeteroJob(job_id=i, submit=float(submit[i]), variants=variants))
    return jobs, capacity


class TestFrozenLoopParity:
    """The kernel-hosted dispatcher reproduces the frozen pre-kernel
    loop (``tests/oracle_hetero.py``) bit for bit."""

    @pytest.mark.parametrize("policy_name", PARITY_POLICIES)
    def test_randomized_cases_match_oracle(self, policy_name):
        policy = get_policy(policy_name)
        rng = np.random.default_rng(sum(map(ord, policy_name)))
        for _ in range(40):
            jobs, capacity = _random_case(rng)
            got = hetero_simulate(jobs, policy, HeteroPlatform(capacity))
            start, chosen, dispatch = oracle_hetero_simulate(jobs, policy, capacity)
            assert got.start.tobytes() == start.tobytes()
            assert got.chosen_arch == chosen
            assert list(got.dispatch_counts.items()) == list(dispatch.items())
