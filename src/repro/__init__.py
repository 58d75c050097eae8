"""repro — reproduction of "Obtaining Dynamic Scheduling Policies with
Simulation and Machine Learning" (Carastan-Santos & de Camargo, SC'17).

The library has six main layers (docs/architecture.md maps every layer
and the contract it keeps):

* :mod:`repro.sim` — event-driven cluster simulator with EASY backfilling
  (the paper's SimGrid substitute) and the bounded-slowdown metrics.
* :mod:`repro.workloads` — Lublin–Feitelson workload model, Tsafrir user
  runtime-estimate model, SWF I/O, and synthetic stand-ins for the four
  Parallel Workloads Archive traces of Table 5.
* :mod:`repro.policies` — classical (FCFS/SPT/…), smart ad-hoc
  (WFP3/UNICEF) and the learned nonlinear policies F1–F4 of Table 3.
* :mod:`repro.core` — the paper's contribution: permutation-trial scoring
  (Eq. 3), the pooled score distribution, and weighted nonlinear
  regression over the 576-candidate function space (Eqs. 4–5),
  culminating in :func:`repro.core.obtain_policies`.
* :mod:`repro.runtime` — the parallel execution substrate: one
  worker-pool fan-out with per-item seeds (bit-identical to serial
  runs) and a content-addressed artifact cache.
* :mod:`repro.specs` / :mod:`repro.api` — the declarative layer: every
  experiment is a serializable spec (TOML/JSON round-trips, canonical
  fingerprints) executed through the one :func:`repro.api.run` facade;
  :class:`repro.SweepSpec` fans a parameter grid over any base spec.

Quickstart::

    import repro

    wl = repro.lublin_workload(2000, nmax=256, seed=42)
    result = repro.simulate(wl, repro.get_policy("F1"), nmax=256)
    print(result.ave_bsld)

or, declaratively::

    from repro import api
    from repro.specs import EvaluateSpec

    result = api.run(EvaluateSpec(policies=("fcfs", "f1"), window_jobs=500))
    print(result.best())
"""

from repro.core import (
    PipelineConfig,
    PipelineResult,
    ScoreDistribution,
    obtain_policies,
)
from repro.eval import MatrixResult, run_matrix, slice_windows
from repro.experiments import run_dynamic_experiment, run_row, run_rows
from repro.policies import (
    NonlinearPolicy,
    Policy,
    available_policies,
    get_policy,
    paper_policies,
)
from repro.runtime import ArtifactCache, TrialRunner
from repro.specs import (
    EvaluateSpec,
    SimulateSpec,
    Spec,
    SpecError,
    SweepSpec,
    Table4Spec,
    TrainSpec,
    load_spec,
)
from repro.sim import (
    ScheduleResult,
    Workload,
    average_bounded_slowdown,
    bounded_slowdown,
    simulate,
)
from repro.workloads import (
    apply_tsafrir,
    extract_sequences,
    lublin_workload,
    read_swf,
    synthetic_trace,
    write_swf,
)
from repro import api  # noqa: E402  (facade: imported after its dependencies)

__version__ = "1.0.0"

__all__ = [
    "ArtifactCache",
    "EvaluateSpec",
    "MatrixResult",
    "NonlinearPolicy",
    "PipelineConfig",
    "PipelineResult",
    "Policy",
    "ScheduleResult",
    "ScoreDistribution",
    "SimulateSpec",
    "Spec",
    "SpecError",
    "SweepSpec",
    "Table4Spec",
    "TrainSpec",
    "TrialRunner",
    "Workload",
    "__version__",
    "api",
    "load_spec",
    "apply_tsafrir",
    "available_policies",
    "average_bounded_slowdown",
    "bounded_slowdown",
    "extract_sequences",
    "get_policy",
    "lublin_workload",
    "obtain_policies",
    "paper_policies",
    "read_swf",
    "run_dynamic_experiment",
    "run_matrix",
    "run_row",
    "run_rows",
    "simulate",
    "slice_windows",
    "synthetic_trace",
    "write_swf",
]
