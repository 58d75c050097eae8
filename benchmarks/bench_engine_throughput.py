"""Substrate micro-benchmarks: simulator throughput.

Not a paper artifact — this guards the engine's performance, which bounds
every experiment above.  Reported as events/second via pytest-benchmark's
statistics (these functions run multiple rounds, unlike the one-shot
table regenerations).
"""

import pytest

from repro.policies.registry import get_policy
from repro.sim.engine import simulate
from repro.workloads.lublin import lublin_workload
from repro.workloads.tsafrir import apply_tsafrir

N_JOBS = 2000
NMAX = 256


@pytest.fixture(scope="module")
def stream():
    return apply_tsafrir(lublin_workload(N_JOBS, NMAX, seed=3), seed=4)


def bench_engine_static_policy(benchmark, stream):
    """FCFS (static queue path), no backfilling."""
    result = benchmark(simulate, stream, get_policy("FCFS"), NMAX)
    assert result.n_events > 0
    benchmark.extra_info["events"] = result.n_events
    benchmark.extra_info["jobs"] = N_JOBS


def bench_engine_dynamic_policy(benchmark, stream):
    """WFP3 (dynamic re-scoring path), no backfilling."""
    result = benchmark(simulate, stream, get_policy("WFP"), NMAX)
    benchmark.extra_info["events"] = result.n_events


def bench_engine_backfill(benchmark, stream):
    """FCFS + EASY backfilling with user estimates (the heaviest mode)."""
    result = benchmark(
        simulate, stream, get_policy("FCFS"), NMAX, use_estimates=True, backfill=True
    )
    benchmark.extra_info["backfilled"] = result.backfill_count


def bench_engine_conservative(benchmark, stream):
    """FCFS + conservative backfilling with user estimates (full replan)."""
    result = benchmark(
        simulate,
        stream,
        get_policy("FCFS"),
        NMAX,
        use_estimates=True,
        backfill="conservative",
    )
    benchmark.extra_info["backfilled"] = result.backfill_count


def bench_engine_hybrid(benchmark, stream):
    """FCFS + hybrid backfilling with user estimates (depth-limited replan)."""
    result = benchmark(
        simulate, stream, get_policy("FCFS"), NMAX, use_estimates=True, backfill="hybrid"
    )
    benchmark.extra_info["backfilled"] = result.backfill_count


def bench_trial_batch(benchmark):
    """1024 balanced permutation trials of one |S|=16, |Q|=32 tuple in
    one ``simulate_trials`` call.

    The training loop's real shape: the warm-up prefix is scheduled once
    and each trial returns its AVEbsld, so jobs/sec here bounds the
    kernel part of training throughput.  The tuple must contend (more
    than one distinct AVEbsld): an order-independent one would let the
    kernel answer every trial from the first, and this would time the
    permutation check alone.
    """
    import numpy as np

    from repro.core.taskgen import generate_tuples
    from repro.core.trials import _draw_permutations
    from repro.sim.listsched import simulate_trials

    n_trials = 1024
    tup = generate_tuples(1, seed=0)[0]
    submit = np.concatenate([tup.S.submit, tup.Q.submit])
    runtime = np.concatenate([tup.S.runtime, tup.Q.runtime])
    size = np.concatenate([tup.S.size, tup.Q.size])
    perms = _draw_permutations(
        np.random.default_rng(0), len(tup.Q), n_trials, balanced=True
    )
    out = benchmark(
        simulate_trials, submit, runtime, size, perms, 256, n_warm=len(tup.S)
    )
    assert out.shape == (n_trials,)
    assert len(np.unique(out)) > 1, "the benched tuple no longer contends"
    benchmark.extra_info["jobs"] = n_trials * len(submit)


def bench_trial_scores(benchmark):
    """One tuple's 8192 trials through ``run_trials``, end to end.

    The permutation draw, the kernel batch and the Eq. 3 scoring
    together: ``bench_trial_batch`` times only the kernel, so this is
    the bench that sees a slow draw.
    """
    from repro.core.taskgen import generate_tuples
    from repro.core.trials import run_trials

    n_trials = 8192
    tup = generate_tuples(1, seed=0)[0]
    result = benchmark(run_trials, tup, 256, n_trials, seed=0)
    assert result.n_trials == n_trials
    benchmark.extra_info["jobs"] = n_trials * (len(tup.S) + len(tup.Q))
