"""Ablation: Eq. 4's (r*n) regression weight on vs off.

Eq. 4 weights each sample by r*n on purpose: the fit must estimate the
score of big tasks well, because big tasks can block many small ones.
This bench trains two policy sets
from one score distribution — weighted and unweighted — and compares
their scheduling quality on a held-out stream.
"""

from repro.core.pipeline import PipelineConfig, build_distribution
from repro.core.regression import RegressionConfig, fit_all
from repro.experiments.dynamic import model_stream_for_span, run_dynamic_experiment
from repro.policies.learned import NonlinearPolicy

from conftest import BENCH_SEED, run_once


def _train_and_evaluate(scale):
    config = PipelineConfig(
        n_tuples=scale.n_tuples,
        trials_per_tuple=scale.trials_per_tuple,
        seed=BENCH_SEED,
        regression=RegressionConfig(max_points=scale.regression_max_points),
    )
    _, _, dist = build_distribution(config)
    policies = {}
    for label, weighted in (("weighted", True), ("unweighted", False)):
        cfg = RegressionConfig(
            weighted=weighted, max_points=scale.regression_max_points
        )
        fitted = [f for f in fit_all(dist, config=cfg) if f.rank_error < float("inf")]
        policies[label] = NonlinearPolicy(fitted[0], name=label)
    wl = model_stream_for_span(
        scale.n_sequences * scale.days * 86400.0, 256, seed=BENCH_SEED + 99
    )
    result = run_dynamic_experiment(
        wl,
        ["FCFS", policies["weighted"], policies["unweighted"]],
        256,
        n_sequences=scale.n_sequences,
        days=scale.days,
    )
    return result


def bench_ablation_regression_weighting(benchmark, record, scale):
    """Weighted vs unweighted Eq. 4 fits as scheduling policies."""
    result = run_once(benchmark, _train_and_evaluate, scale)
    med = result.medians()
    record(
        "median AVEbsld on a held-out stream:\n"
        + "\n".join(f"  {k}: {v:.2f}" for k, v in med.items()),
        extra={f"median_{k}": v for k, v in med.items()},
    )
    assert med["weighted"] < med["FCFS"], "weighted policy must beat FCFS"
