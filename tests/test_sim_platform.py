"""Platform abstraction: flat parity, partitioned semantics, identities.

The refactor's acceptance bar is bitwise: a product-1 topology runs the
partitioned machinery yet must reproduce the flat kernel byte for byte
(every policy x backfill x estimates cell, every backend), flat runs
must not change at all, and the platform axes must enter fingerprints
and cache keys only when they can change results.
"""

from __future__ import annotations

import zlib

import numpy as np
import pytest

from repro.api import run
from repro.eval.report import matrix_to_json
from repro.policies.registry import get_policy
from repro.sim import _cbackend
from repro.sim.engine import simulate
from repro.sim.job import Workload
from repro.sim.platform import (
    DISTRIBUTIONS,
    PartitionedPlatform,
    distribute_jobs,
    normalize_distribution,
    normalize_topology,
    platform_identity,
    simulate_partitioned,
    topology_label,
)
from repro.specs import EvaluateSpec, SimulateSpec
from repro.specs.base import SpecError
from repro.specs.fingerprint import (
    eval_cell_fingerprint,
    simulate_cell_fingerprint,
)

HAVE_C = _cbackend.load() is not None
BACKENDS = ["python"] + (["c"] if HAVE_C else [])

POLICIES = ["fcfs", "f2", "wfp3", "unicef"]  # 2 static, 2 dynamic
MODES = ["none", "easy", "conservative", "hybrid"]


def _workload(rng: np.random.Generator, n: int, max_size: int) -> Workload:
    """Bursty random workload whose jobs all fit *max_size* cores."""
    submit = np.sort(np.round(rng.uniform(0.0, n * 1.5, size=n), 1))
    runtime = np.round(rng.uniform(0.5, 60.0, size=n), 3)
    size = rng.integers(1, max_size + 1, size=n)
    estimate = runtime * rng.uniform(1.0, 4.0, size=n)
    return Workload.from_arrays(
        submit=submit, runtime=runtime, size=size, estimate=estimate
    )


# ----------------------------------------------------------------------
# canonicalisation and identity
# ----------------------------------------------------------------------
class TestNormalization:
    def test_topology_spellings(self):
        assert normalize_topology(None) is None
        assert normalize_topology(()) is None
        assert normalize_topology(4) == (4,)
        assert normalize_topology([2, 4]) == (2, 4)
        assert normalize_topology((1, 1)) == (1, 1)

    def test_topology_rejects_bad_values(self):
        with pytest.raises(ValueError, match=">= 1"):
            normalize_topology((2, 0))
        with pytest.raises(ValueError, match="topology"):
            normalize_topology(object())

    def test_distribution_default_and_rejection(self):
        assert normalize_distribution(None) == "round_robin"
        for name in DISTRIBUTIONS:
            assert normalize_distribution(name) == name
        with pytest.raises(ValueError, match="unknown distribution"):
            normalize_distribution("hash")

    def test_topology_label(self):
        assert topology_label((2, 4)) == "2x4"
        assert topology_label((8,)) == "8"

    def test_platform_identity_flat_is_none(self):
        assert platform_identity(None) is None
        assert platform_identity((1,)) is None
        assert platform_identity((1, 1), "by_size", 7) is None

    def test_platform_identity_partitioned(self):
        doc = platform_identity((2, 4), "by_size", seed=9)
        assert doc == {"topology": [2, 4], "distribution": "by_size"}
        # The seed is result-relevant only under the random strategy.
        rand = platform_identity((2, 4), "random", seed=9)
        assert rand == {"topology": [2, 4], "distribution": "random", "seed": 9}


class TestPartitionedPlatform:
    def test_leaf_layout(self):
        platform = PartitionedPlatform(64, (2, 2))
        assert platform.n_leaves == 4
        assert platform.leaf_cores == 16
        assert platform.leaf_labels == ("0.0", "0.1", "1.0", "1.1")
        assert platform.nmax == 64

    def test_uneven_division_rejected(self):
        with pytest.raises(ValueError, match="does not divide evenly"):
            PartitionedPlatform(10, (3,))

    def test_oversized_job_named(self):
        platform = PartitionedPlatform(16, (4,))
        with pytest.raises(ValueError, match="job 1 wants 7"):
            platform.validate_sizes(np.array([2, 7, 1]))


# ----------------------------------------------------------------------
# distribution strategies
# ----------------------------------------------------------------------
class TestDistribution:
    def _platform(self) -> PartitionedPlatform:
        return PartitionedPlatform(16, (4,))

    def test_round_robin_deals_in_arrival_order(self):
        submit = np.array([3.0, 1.0, 2.0, 0.0, 4.0])
        assign = distribute_jobs(
            self._platform(),
            submit,
            np.ones(5),
            np.ones(5, dtype=np.int64),
        )
        # arrival order is 3,1,2,0,4 -> leaves 0,1,2,3,0
        assert assign.tolist() == [3, 1, 2, 0, 0]

    def test_by_size_balances_work_deterministically(self):
        platform = self._platform()
        submit = np.arange(8.0)
        size = np.array([4, 4, 1, 1, 1, 1, 1, 1], dtype=np.int64)
        proc = np.array([10.0, 10.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0])
        a = distribute_jobs(platform, submit, proc, size, distribution="by_size")
        b = distribute_jobs(platform, submit, proc, size, distribution="by_size")
        assert a.tolist() == b.tolist()
        # The two heavy jobs land on distinct leaves; the first on leaf 0.
        assert a[0] == 0 and a[1] == 1

    @staticmethod
    def _by_size_scan(n_leaves, submit, proc, size):
        """The per-job least-loaded scan ``by_size`` used before its heap."""
        order = np.argsort(np.asarray(submit, dtype=np.float64), kind="stable")
        assign = np.empty(len(submit), dtype=np.int64)
        load = [0.0] * n_leaves
        work = (
            np.asarray(size, dtype=np.float64) * np.asarray(proc, dtype=np.float64)
        ).tolist()
        for idx in order.tolist():
            leaf = min(range(n_leaves), key=lambda k: (load[k], k))
            assign[idx] = leaf
            load[leaf] += work[idx]
        return assign

    @pytest.mark.parametrize("n_leaves", range(1, 9))
    def test_by_size_heap_matches_the_scan(self, n_leaves):
        rng = np.random.default_rng(n_leaves)
        platform = PartitionedPlatform(8 * n_leaves, (n_leaves,))
        for case in range(40):
            n = int(rng.integers(1, 200))
            # Few distinct submits, sizes and runtimes: many arrival and
            # equal-work ties, so the lowest-leaf tie-break decides often.
            submit = rng.integers(0, 5, n).astype(float)
            size = rng.integers(1, 9, n)
            proc = rng.choice([1.0, 2.0, 0.5, 3.25], n)
            if case % 4 == 0:
                proc = rng.uniform(0.1, 1e4, n)
            got = distribute_jobs(platform, submit, proc, size, distribution="by_size")
            want = self._by_size_scan(n_leaves, submit, proc, size)
            assert got.tolist() == want.tolist(), (n_leaves, case)

    def test_random_is_a_pure_function_of_the_seed(self):
        platform = self._platform()
        rng = np.random.default_rng(0)
        w = _workload(rng, 64, 4)
        args = (platform, w.submit, w.runtime, w.size)
        one = distribute_jobs(*args, distribution="random", seed=5)
        two = distribute_jobs(*args, distribution="random", seed=5)
        other = distribute_jobs(*args, distribution="random", seed=6)
        assert one.tolist() == two.tolist()
        assert one.tolist() != other.tolist()
        assert one.min() >= 0 and one.max() < platform.n_leaves


# ----------------------------------------------------------------------
# flat parity: topology (1,) runs the partitioned machinery yet must be
# byte-identical to the bare kernel, for every cell and backend
# ----------------------------------------------------------------------
class TestProductOneParity:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("use_estimates", [False, True])
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("policy_name", POLICIES)
    def test_topology_one_matches_flat(
        self, monkeypatch, policy_name, mode, use_estimates, backend
    ):
        monkeypatch.setenv("REPRO_SIM_KERNEL", backend)
        policy = get_policy(policy_name)
        rng = np.random.default_rng(
            zlib.crc32(repr((policy_name, mode, use_estimates)).encode())
        )
        for _ in range(2):
            n = int(rng.integers(2, 40))
            w = _workload(rng, n, 16)
            flat = simulate(
                w, policy, 16, use_estimates=use_estimates, backfill=mode
            )
            one = simulate(
                w,
                policy,
                16,
                use_estimates=use_estimates,
                backfill=mode,
                topology=(1,),
            )
            assert one.start.tobytes() == flat.start.tobytes()
            assert one.backfilled.tobytes() == flat.backfilled.tobytes()
            assert one.n_events == flat.n_events
            assert flat.leaf is None
            assert one.leaf is not None and not one.leaf.any()


# ----------------------------------------------------------------------
# partitioned semantics: conservation, composition, merging
# ----------------------------------------------------------------------
def _assert_leaf_conservation(
    start: np.ndarray,
    runtime: np.ndarray,
    size: np.ndarray,
    leaf: np.ndarray,
    leaf_cores: int,
) -> None:
    """Per-leaf busy cores never exceed the leaf's capacity."""
    for leaf_id in np.unique(leaf):
        mask = leaf == leaf_id
        s, r, z = start[mask], runtime[mask], size[mask]
        events = np.unique(np.concatenate([s, s + r]))
        for t in events:
            busy = int(z[(s <= t) & (t < s + r)].sum())
            assert busy <= leaf_cores, (
                f"leaf {leaf_id} oversubscribed at t={t}: {busy} > {leaf_cores}"
            )


class TestPartitionedSemantics:
    @pytest.mark.parametrize("distribution", DISTRIBUTIONS)
    @pytest.mark.parametrize("mode", MODES)
    def test_per_leaf_conservation(self, distribution, mode):
        rng = np.random.default_rng(zlib.crc32(repr((distribution, mode)).encode()))
        w = _workload(rng, 80, 8)  # fits 32/(2,2) = 8-core leaves
        result = simulate(
            w,
            get_policy("fcfs"),
            32,
            backfill=mode,
            topology=(2, 2),
            distribution=distribution,
            platform_seed=3,
        )
        assert result.leaf is not None
        assert np.all(result.start >= w.submit)
        _assert_leaf_conservation(
            result.start, w.runtime, w.size, result.leaf, leaf_cores=8
        )

    def test_partition_composes_from_independent_leaf_runs(self):
        """Leaves share no state: the merged result must equal running
        each leaf's job subset through the flat engine at leaf_cores."""
        rng = np.random.default_rng(17)
        w = _workload(rng, 60, 8)
        policy = get_policy("f2")
        platform = PartitionedPlatform(32, (4,))
        assign = distribute_jobs(
            platform, w.submit, w.runtime, w.size, distribution="round_robin"
        )
        merged = simulate(
            w, policy, 32, backfill="easy", topology=(4,)
        )
        assert merged.leaf is not None
        assert (merged.leaf == assign).all()
        for leaf_id in range(platform.n_leaves):
            idx = np.flatnonzero(assign == leaf_id)
            sub = Workload.from_arrays(
                submit=w.submit[idx], runtime=w.runtime[idx], size=w.size[idx]
            )
            alone = simulate(sub, policy, platform.leaf_cores, backfill="easy")
            assert alone.start.tobytes() == merged.start[idx].tobytes()
            assert alone.backfilled.tobytes() == merged.backfilled[idx].tobytes()

    def test_simulate_partitioned_counters_are_summed(self):
        rng = np.random.default_rng(5)
        w = _workload(rng, 40, 4)
        platform = PartitionedPlatform(16, (2, 2))
        outcome = simulate_partitioned(
            platform,
            w.submit,
            w.runtime,
            w.runtime,
            w.size,
            static_scores=np.arange(len(w), dtype=float),
            backfill="easy",
        )
        assert np.isfinite(outcome.start).all()
        assert outcome.n_events >= len(w)
        assert outcome.leaf.shape == (len(w),)

    def test_oversized_job_rejected_end_to_end(self):
        w = Workload.from_arrays(
            submit=[0.0, 1.0], runtime=[5.0, 5.0], size=[1, 12]
        )
        with pytest.raises(ValueError, match="job 1 wants 12"):
            simulate(w, get_policy("fcfs"), 16, topology=(2,))


class TestWorkerDeterminism:
    @pytest.mark.parametrize("distribution", ["round_robin", "random"])
    def test_matrix_bytes_identical_across_worker_counts(
        self, tmp_path, distribution
    ):
        spec = EvaluateSpec(
            trace="tests/data/ctc_tiny.swf",
            nmax=1024,
            window_jobs=100,
            policies=("fcfs", "f1"),
            backfill=("easy", "hybrid"),
            topology=(2, 2),
            distribution=distribution,
            seed=11,
        )
        serial = run(spec, workers=1)
        parallel = run(spec, workers=4)
        assert matrix_to_json(serial) == matrix_to_json(parallel)


# ----------------------------------------------------------------------
# fingerprints and cache keys
# ----------------------------------------------------------------------
class TestFingerprints:
    def test_flat_simulate_spec_payload_has_no_platform_keys(self):
        payload = SimulateSpec(policy="fcfs")._fingerprint_payload()
        assert "topology" not in payload
        assert "distribution" not in payload

    def test_product_one_fingerprints_as_flat(self):
        flat = SimulateSpec(policy="fcfs").fingerprint()
        one = SimulateSpec(policy="fcfs", topology=(1,)).fingerprint()
        assert one == flat
        eflat = EvaluateSpec(trace="tests/data/ctc_tiny.swf").fingerprint()
        eone = EvaluateSpec(
            trace="tests/data/ctc_tiny.swf", topology=(1, 1)
        ).fingerprint()
        assert eone == eflat

    def test_partitioned_topology_forks_fingerprints(self):
        flat = SimulateSpec(policy="fcfs").fingerprint()
        topo = SimulateSpec(policy="fcfs", topology=(2, 4)).fingerprint()
        other = SimulateSpec(policy="fcfs", topology=(4, 2)).fingerprint()
        by_size = SimulateSpec(
            policy="fcfs", topology=(2, 4), distribution="by_size"
        ).fingerprint()
        assert len({flat, topo, other, by_size}) == 4

    def test_seed_enters_only_under_random_distribution(self):
        a = SimulateSpec(policy="fcfs", topology=(2,), seed=1).fingerprint()
        b = SimulateSpec(policy="fcfs", topology=(2,), seed=2).fingerprint()
        # The generated-model source already keys on the seed, so pin the
        # platform-level rule at the cell-fingerprint layer instead:
        assert a != b  # model seed forks regardless
        key = lambda seed, dist: simulate_cell_fingerprint(
            workload_fingerprint="w",
            policy="FCFS",
            backfill="none",
            nmax=8,
            use_estimates=False,
            tau=10.0,
            platform=platform_identity((2,), dist, seed),
        )
        assert key(1, "round_robin") == key(2, "round_robin")
        assert key(1, "random") != key(2, "random")

    def test_cell_fingerprints_without_platform_are_unchanged(self):
        """Omitting the kwarg and passing None must hash identically —
        that is what keeps every historical cache entry valid."""
        kwargs = dict(
            window_fingerprint="w",
            policy="FCFS",
            backfill="easy",
            nmax=64,
            use_estimates=False,
            tau=10.0,
            cell_format=3,
        )
        assert eval_cell_fingerprint(**kwargs) == eval_cell_fingerprint(
            platform=None, **kwargs
        )

    def test_bad_topology_and_distribution_are_spec_errors(self):
        with pytest.raises(SpecError, match=">= 1"):
            SimulateSpec(policy="fcfs", topology=(0,))
        with pytest.raises(SpecError, match="unknown distribution"):
            SimulateSpec(policy="fcfs", distribution="hash")
        with pytest.raises(SpecError, match="unknown distribution"):
            EvaluateSpec(distribution="hash")
