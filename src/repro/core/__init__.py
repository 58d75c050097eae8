"""The paper's contribution: simulation-driven scores + nonlinear regression."""

from repro.core.distribution import ScoreDistribution
from repro.core.functions import (
    BASE_FUNCTION_NAMES,
    OPERATOR_NAMES,
    FittedFunction,
    FunctionSpec,
    apply_base,
    enumerate_function_space,
)
from repro.core.pipeline import (
    PipelineConfig,
    PipelineResult,
    build_distribution,
    obtain_policies,
)
from repro.core.regression import RegressionConfig, fit_all, fit_function, rank_error
from repro.core.taskgen import TaskSetTuple, generate_tuples, split_tuple
from repro.core.trials import TrialScoreResult, run_trials

__all__ = [
    "BASE_FUNCTION_NAMES",
    "FittedFunction",
    "FunctionSpec",
    "OPERATOR_NAMES",
    "PipelineConfig",
    "PipelineResult",
    "RegressionConfig",
    "ScoreDistribution",
    "TaskSetTuple",
    "TrialScoreResult",
    "apply_base",
    "build_distribution",
    "enumerate_function_space",
    "fit_all",
    "fit_function",
    "generate_tuples",
    "obtain_policies",
    "rank_error",
    "run_trials",
    "split_tuple",
]
