"""repro.specs — declarative, serializable experiment specifications.

Every experiment the library can run is describable as data: a *spec*.
One spec kind exists per verb — :class:`TrainSpec`,
:class:`SimulateSpec`, :class:`EvaluateSpec`, :class:`Table4Spec` — plus
the composite :class:`SweepSpec`, which expands a parameter grid over a
base spec into child specs.  Specs are frozen dataclasses with

* lossless ``to_dict()`` / ``from_dict()`` round-trips, TOML/JSON file
  loading (:func:`load_spec`), schema versioning and unknown-key
  validation (:mod:`repro.specs.base`);
* a canonical :meth:`~Spec.fingerprint` over resolved, result-relevant
  fields, derived from the same payloads as the library's artifact-cache
  keys (:mod:`repro.specs.fingerprint`) — execution knobs (workers,
  cache) never enter an identity.

Specs only *describe* experiments; :func:`repro.api.run` executes them.
The CLI is a thin adapter that builds specs from flags, so a flag
invocation and a ``repro-sched run spec.toml`` invocation of the same
experiment are byte-identical.
"""

from repro.specs.base import (
    Spec,
    SpecError,
    load_spec,
    register_spec,
    spec_class_for,
    spec_kinds,
)
from repro.specs.evaluate import EvaluateSpec
from repro.specs.fingerprint import (
    SIMULATION_SEMANTICS_VERSION,
    SPEC_SCHEMA_VERSION,
    distribution_fingerprint,
    eval_cell_fingerprint,
    simulate_cell_fingerprint,
    spec_fingerprint,
)
from repro.specs.simulate import SimulateSpec
from repro.specs.sweep import SweepSpec
from repro.specs.table4 import Table4Spec
from repro.specs.train import TrainSpec

__all__ = [
    "EvaluateSpec",
    "SIMULATION_SEMANTICS_VERSION",
    "SPEC_SCHEMA_VERSION",
    "SimulateSpec",
    "Spec",
    "SpecError",
    "SweepSpec",
    "Table4Spec",
    "TrainSpec",
    "distribution_fingerprint",
    "eval_cell_fingerprint",
    "load_spec",
    "register_spec",
    "simulate_cell_fingerprint",
    "spec_class_for",
    "spec_fingerprint",
    "spec_kinds",
]
