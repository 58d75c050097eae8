"""Tests for the declarative spec layer (repro.specs)."""

import dataclasses
import json
import math
import re
import typing

import pytest

from repro.core.pipeline import PipelineConfig, distribution_cache_key
from repro.specs import (
    SPEC_SCHEMA_VERSION,
    EvaluateSpec,
    SimulateSpec,
    Spec,
    SpecError,
    SweepSpec,
    Table4Spec,
    TrainSpec,
    load_spec,
    spec_class_for,
    spec_kinds,
)

ALL_SPECS = [
    TrainSpec(scale="smoke", seed=3),
    SimulateSpec(policy="f1", trace="curie", jobs=200, seed=1),
    EvaluateSpec(policies=("fcfs", "f1"), backfill=("none", "easy"), window_jobs=50),
    Table4Spec(rows=("ctc_sp2_actual",), scale="smoke"),
    SweepSpec(
        base=EvaluateSpec(policies=("fcfs",), backfill=("none",), window_jobs=50),
        grid={"policies": [["fcfs"], ["f1"]], "backfill": [["none"], ["easy"]]},
    ),
]


class TestRoundTrips:
    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.kind)
    def test_dict_round_trip(self, spec):
        clone = Spec.from_dict(spec.to_dict())
        assert clone == spec
        assert clone.fingerprint() == spec.fingerprint()

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.kind)
    def test_json_file_round_trip(self, spec, tmp_path):
        path = tmp_path / f"{spec.kind}.json"
        path.write_text(json.dumps(spec.to_dict()), encoding="utf-8")
        assert load_spec(path) == spec

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.kind)
    def test_dict_is_json_serializable(self, spec):
        json.dumps(spec.to_dict())  # must not raise

    def test_toml_file_loading(self, tmp_path):
        path = tmp_path / "eval.toml"
        path.write_text(
            'spec = "evaluate"\n'
            'policies = ["fcfs", "f1"]\n'
            'backfill = ["none", "easy"]\n'
            "window_jobs = 50\n",
            encoding="utf-8",
        )
        spec = load_spec(path)
        assert spec == EvaluateSpec(
            policies=("fcfs", "f1"), backfill=("none", "easy"), window_jobs=50
        )

    def test_toml_sweep_loading(self, tmp_path):
        path = tmp_path / "sweep.toml"
        path.write_text(
            'spec = "sweep"\n'
            "[base]\n"
            'spec = "evaluate"\n'
            'policies = ["fcfs"]\n'
            'backfill = ["none"]\n'
            "window_jobs = 50\n"
            "[grid]\n"
            'policies = [["fcfs"], ["f1"]]\n'
            'backfill = [["none"], ["easy"]]\n',
            encoding="utf-8",
        )
        spec = load_spec(path)
        assert isinstance(spec, SweepSpec)
        assert len(spec.expand()) == 4
        assert spec == ALL_SPECS[4]

    def test_unsuffixed_file_tries_toml_then_json(self, tmp_path):
        toml_path = tmp_path / "spec_a"
        toml_path.write_text('spec = "train"\nseed = 2\n', encoding="utf-8")
        assert load_spec(toml_path) == TrainSpec(seed=2)
        json_path = tmp_path / "spec_b"
        json_path.write_text('{"spec": "train", "seed": 2}', encoding="utf-8")
        assert load_spec(json_path) == TrainSpec(seed=2)

    def test_garbage_file_rejected_with_path(self, tmp_path):
        path = tmp_path / "junk.toml"
        path.write_text("]]not a document[[", encoding="utf-8")
        with pytest.raises(SpecError, match="junk.toml"):
            load_spec(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(SpecError, match="cannot read"):
            load_spec(tmp_path / "absent.toml")


class TestValidation:
    def test_unknown_key_rejected_with_names(self):
        with pytest.raises(SpecError, match=r"'n_tuple'") as err:
            Spec.from_dict({"spec": "train", "n_tuple": 4})
        assert "n_tuples" in str(err.value)  # valid keys are listed

    def test_future_schema_version_rejected(self):
        with pytest.raises(SpecError, match="newer"):
            Spec.from_dict(
                {"spec": "train", "schema_version": SPEC_SCHEMA_VERSION + 1}
            )

    def test_non_integer_schema_version_rejected(self):
        with pytest.raises(SpecError, match="schema_version"):
            Spec.from_dict({"spec": "train", "schema_version": "2"})

    def test_unknown_kind_rejected(self):
        with pytest.raises(SpecError, match="unknown spec kind"):
            Spec.from_dict({"spec": "banana"})

    def test_missing_kind_rejected(self):
        with pytest.raises(SpecError, match="'spec' key"):
            Spec.from_dict({"seed": 1})

    def test_kind_mismatch_on_concrete_class(self):
        with pytest.raises(SpecError, match="expected"):
            TrainSpec.from_dict({"spec": "simulate"})

    def test_registry_lists_all_kinds(self):
        assert spec_kinds() == ["evaluate", "simulate", "sweep", "table4", "train"]

    def test_bad_field_value_wrapped_as_spec_error(self):
        with pytest.raises(SpecError, match="n_tuples"):
            TrainSpec(n_tuples=0)
        with pytest.raises(SpecError, match="scale"):
            TrainSpec(scale="galactic")
        with pytest.raises(SpecError, match="tau"):
            TrainSpec(tau=-1.0)

    def test_simulate_validation(self):
        with pytest.raises(SpecError, match="at most one"):
            SimulateSpec(swf="x.swf", trace="curie")
        with pytest.raises(SpecError, match="synthetic trace"):
            SimulateSpec(trace="nope")
        with pytest.raises(SpecError, match="backfill"):
            SimulateSpec(backfill="sideways")

    def test_evaluate_validation(self):
        with pytest.raises(SpecError, match="exactly one"):
            EvaluateSpec(window_jobs=10, window_seconds=5.0)
        with pytest.raises(SpecError, match="baseline"):
            EvaluateSpec(policies=("fcfs", "f1"), baseline="spt")
        with pytest.raises(SpecError, match="bootstrap"):
            EvaluateSpec(bootstrap=-1)
        with pytest.raises(SpecError, match="ci"):
            EvaluateSpec(ci=1.5)

    def test_evaluate_synthetic_source_must_name_a_stand_in(self):
        with pytest.raises(SpecError, match="unknown synthetic trace None"):
            EvaluateSpec(synthetic=None)
        # With a trace given, the synthetic fallback is not the source.
        EvaluateSpec(trace="tests/data/ctc_tiny.swf", synthetic=None)

    @pytest.mark.parametrize("warmup", [2.5, True, -1])
    def test_evaluate_warmup_must_be_a_non_negative_integer(self, warmup):
        with pytest.raises(SpecError, match="warmup must be"):
            EvaluateSpec(warmup=warmup)

    @pytest.mark.parametrize("seed", [-1, 2.5, True, "3"], ids=repr)
    @pytest.mark.parametrize(
        "kind", [EvaluateSpec, SimulateSpec, TrainSpec, Table4Spec],
        ids=lambda cls: cls.kind,
    )
    def test_seed_must_be_a_non_negative_integer(self, kind, seed):
        with pytest.raises(
            SpecError,
            match=rf"^seed must be a non-negative integer, got {re.escape(repr(seed))}$",
        ):
            kind(seed=seed)

    def test_sweep_rejects_a_negative_seed_before_any_child_runs(self):
        base = EvaluateSpec(trace="tests/data/ctc_tiny.swf", window_jobs=50)
        with pytest.raises(
            SpecError,
            match=r"invalid grid point \(seed=-1\): seed must be a non-negative"
            " integer, got -1",
        ):
            SweepSpec(base=base, grid={"seed": [0, -1]})

    def test_table4_validation(self):
        with pytest.raises(SpecError, match="unknown Table 4 row"):
            Table4Spec(rows=("bogus",))
        with pytest.raises(SpecError, match="duplicate"):
            Table4Spec(rows=("ctc_sp2_actual", "ctc_sp2_actual"))


#: Values each bool/int/float/str/tuple[str, ...] field's declaration
#: rejects, per kind.  Every such field of every registered kind is listed
#: (checked below).
WRONG_TYPED = {
    "train": {
        "scale": [5, True, ("smoke",)],
        "n_tuples": [0, 2.5, True, "8"],
        "trials_per_tuple": [0, 1.5],
        "nmax": [None, 0, 256.0],
        "s_size": [0, True],
        "q_size": [-1, "32"],
        "seed": [-1, 2.5],
        "tau": [math.nan, math.inf, "10", True],
        "top_k": [0, None],
        "balanced_trials": ["no", 1, None],
        "regression_max_points": [0, 2.5],
    },
    "simulate": {
        "policy": [5, None, True, ("f1",)],
        "swf": [3, ["x.swf"]],
        "trace": [3, False],
        "backfill": [True, False, None, 1, ("easy",)],
        "distribution": [2, ("random",)],
        "nmax": [0, 64.0],
        "jobs": [0, True],
        "seed": [-1, "0"],
        "estimates": ["false", 0, None],
        "tau": [math.nan, math.inf, "10", -math.inf],
    },
    "evaluate": {
        "trace": [3, ["x.swf"]],
        "synthetic": [5, ("ctc_sp2",)],
        "policies": ["fcfs", "f1", ("fcfs", 5), None],
        "backfill": ["easy", "none", (True,), (False, True), None],
        "baseline": [5, ("fcfs",)],
        "distribution": [2, ("random",)],
        "jobs": [None, 0, 2.5],
        "drop_failed": ["no", None],
        "window_jobs": [0, True],
        "window_seconds": [True, math.nan, math.inf, "60"],
        "warmup": [-1, 2.5],
        "max_windows": [0, 1.0],
        "nmax": [0, 1.5],
        "estimates": ["false", 1],
        "tau": [math.nan, math.inf, "10"],
        "seed": [-1, None],
        "bootstrap": [-1, True],
        "ci": [None, math.nan, True, "0.9"],
    },
    "table4": {
        "rows": ["ctc_sp2_actual", ("ctc_sp2_actual", 1)],
        "scale": [5, ["smoke"]],
        "seed": [-1, 2.5, True, "3"],
        "policies": ["fcfs", ("fcfs", None)],
    },
    "sweep": {},
}

WRONG_TYPED_CASES = [
    (kind, name, value)
    for kind, fields in WRONG_TYPED.items()
    for name, values in fields.items()
    for value in values
]


def _case_id(case):
    kind, name, value = case
    return f"{kind}-{name}={value!r}"


class TestDeclaredFieldTypes:
    """The dataclass annotation (and its ``min``) checks every bool, int,
    float, str and tuple[str, ...] field."""

    def test_table_covers_every_scalar_field_of_every_kind(self):
        checked = (bool, int, float, str, tuple[str, ...])
        scalars = checked + tuple(t | None for t in checked)
        assert sorted(WRONG_TYPED) == spec_kinds()
        for kind in spec_kinds():
            cls = spec_class_for(kind)
            hints = typing.get_type_hints(cls)
            declared = {
                f.name for f in dataclasses.fields(cls) if hints[f.name] in scalars
            }
            assert set(WRONG_TYPED[kind]) == declared, kind

    @pytest.mark.parametrize("case", WRONG_TYPED_CASES, ids=_case_id)
    def test_constructor_names_the_field(self, case):
        kind, name, value = case
        with pytest.raises(SpecError, match=rf"^{name} must be .*, got "):
            spec_class_for(kind)(**{name: value})

    @pytest.mark.parametrize("case", WRONG_TYPED_CASES, ids=_case_id)
    def test_from_dict_names_the_field(self, case):
        kind, name, value = case
        with pytest.raises(SpecError, match=rf"^{name} must be .*, got "):
            Spec.from_dict({"spec": kind, name: value})

    @pytest.mark.parametrize("case", WRONG_TYPED_CASES, ids=_case_id)
    def test_sweep_grid_point_names_the_point_and_field(self, case):
        kind, name, value = case
        point = re.escape(f"({name}={value!r})")
        with pytest.raises(
            SpecError, match=rf"invalid grid point {point}: {name} must be "
        ):
            SweepSpec(base=spec_class_for(kind)(), grid={name: [value]})

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: TrainSpec(n_tuples=0), "n_tuples must be a positive integer, got 0"),
            (lambda: TrainSpec(seed=2.5), "seed must be a non-negative integer, got 2.5"),
            (lambda: SimulateSpec(estimates="false"), "estimates must be a boolean, got 'false'"),
            (lambda: EvaluateSpec(tau=math.inf), "tau must be a finite number, got inf"),
            (lambda: SimulateSpec(policy=5), "policy must be a string, got 5"),
            (lambda: EvaluateSpec(backfill="easy"), "backfill must be a list of strings, got 'easy'"),
            (lambda: EvaluateSpec(policies="fcfs"), "policies must be a list of strings, got 'fcfs'"),
            (lambda: EvaluateSpec(backfill=(False, True)), "backfill must be a list of strings, got (False, True)"),
        ],
    )
    def test_one_wording_per_bound(self, build, message):
        with pytest.raises(SpecError) as err:
            build()
        assert str(err.value) == message

    def test_optional_fields_still_take_none(self):
        spec = EvaluateSpec(window_jobs=None, window_seconds=60, max_windows=None)
        assert spec.window_seconds == 60
        assert TrainSpec(n_tuples=None, tau=None).tau == 10.0


class TestCanonicalisation:
    def test_policy_and_backfill_spellings(self):
        spec = SimulateSpec(policy="f1", backfill="off")
        assert spec.policy == "F1"
        assert spec.backfill == "none"
        assert spec == SimulateSpec(policy="F1", backfill="none")

    def test_evaluate_window_default(self):
        assert EvaluateSpec().window_jobs == 5000

    def test_evaluate_canonicalises_axes(self):
        spec = EvaluateSpec(policies=("FCFS", "f1"), backfill=("off", "easy"))
        assert spec.policies == ("FCFS", "F1")
        assert spec.backfill == ("none", "easy")


class TestFingerprints:
    def test_scale_preset_resolves_to_explicit_numbers(self):
        from repro.experiments.scale import SCALES

        smoke = SCALES["smoke"]
        named = TrainSpec(scale="smoke")
        explicit = TrainSpec(
            n_tuples=smoke.n_tuples,
            trials_per_tuple=smoke.trials_per_tuple,
            regression_max_points=smoke.regression_max_points,
            scale="smoke",  # same preset for any still-unset fields
        )
        assert named.fingerprint() == explicit.fingerprint()

    def test_train_distribution_key_matches_pipeline(self):
        spec = TrainSpec(scale="smoke", seed=5)
        config = spec.to_pipeline_config()
        assert spec.distribution_key() == distribution_cache_key(config)

    def test_pipeline_key_unchanged_by_refactor(self):
        # The delegation to specs.fingerprint must keep existing cache
        # directories valid: the digest is a pure function of the config.
        config = PipelineConfig(n_tuples=2, trials_per_tuple=16, nmax=32)
        assert distribution_cache_key(config) == distribution_cache_key(
            PipelineConfig(n_tuples=2, trials_per_tuple=16, nmax=32)
        )

    def test_stream_key_is_rejected(self):
        # The streaming toggle is gone (every trace file streams); it never
        # entered the fingerprint, and a document that still carries it
        # fails like any other unknown key.
        doc = EvaluateSpec(window_jobs=50).to_dict()
        assert "stream" not in doc
        with pytest.raises(SpecError, match="unknown key.*'stream'"):
            Spec.from_dict({**doc, "stream": True})

    def test_result_relevant_fields_do_fork_identity(self):
        a = EvaluateSpec(window_jobs=50)
        assert a.fingerprint() != EvaluateSpec(window_jobs=60).fingerprint()
        assert a.fingerprint() != EvaluateSpec(window_jobs=50, seed=1).fingerprint()

    def test_synthetic_fields_ignored_with_real_trace(self, tmp_path):
        a = EvaluateSpec(trace="t.swf", window_jobs=50, jobs=100)
        b = EvaluateSpec(trace="t.swf", window_jobs=50, jobs=999)
        assert a.fingerprint() == b.fingerprint()

    def test_fingerprints_differ_across_kinds(self):
        fps = {spec.fingerprint() for spec in ALL_SPECS}
        assert len(fps) == len(ALL_SPECS)


class TestSweep:
    BASE = EvaluateSpec(policies=("fcfs",), backfill=("none",), window_jobs=50)

    def test_expansion_order_last_axis_fastest(self):
        sweep = SweepSpec(
            base=self.BASE,
            grid={"warmup": [0, 5], "seed": [0, 1, 2]},
        )
        combos = [(c.warmup, c.seed) for c in sweep.expand()]
        assert combos == [(0, 0), (0, 1), (0, 2), (5, 0), (5, 1), (5, 2)]

    def test_children_are_validated_specs(self):
        sweep = SweepSpec(base=self.BASE, grid={"policies": [["f1"]]})
        (child,) = sweep.expand()
        assert isinstance(child, EvaluateSpec)
        assert child.policies == ("F1",)

    def test_invalid_grid_point_rejected_eagerly(self):
        with pytest.raises(SpecError, match="grid point"):
            SweepSpec(base=self.BASE, grid={"warmup": [0, -3]})

    def test_unknown_axis_rejected(self):
        with pytest.raises(SpecError, match="not a field"):
            SweepSpec(base=self.BASE, grid={"sharding": [1]})

    def test_empty_axis_rejected(self):
        with pytest.raises(SpecError, match="no values"):
            SweepSpec(base=self.BASE, grid={"warmup": []})

    def test_nested_sweep_rejected(self):
        inner = SweepSpec(base=self.BASE, grid={"warmup": [0]})
        with pytest.raises(SpecError, match="nest"):
            SweepSpec(base=inner, grid={"warmup": [0]})

    def test_missing_base_rejected(self):
        with pytest.raises(SpecError, match="base"):
            SweepSpec(grid={"warmup": [0]})

    def test_fingerprint_is_children_identity(self):
        a = SweepSpec(base=self.BASE, grid={"policies": [["fcfs"], ["f1"]]})
        b = SweepSpec(base=self.BASE, grid={"policies": [["FCFS"], ["F1"]]})
        assert a.fingerprint() == b.fingerprint()
        wider = SweepSpec(
            base=self.BASE, grid={"policies": [["fcfs"], ["f1"], ["spt"]]}
        )
        assert wider.fingerprint() != a.fingerprint()

    def test_overrides_labels(self):
        sweep = SweepSpec(base=self.BASE, grid={"warmup": [0, 5]})
        assert [o for o, _ in sweep.iter_grid()] == [
            {"warmup": 0},
            {"warmup": 5},
        ]


class TestSpecDataclassHygiene:
    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.kind)
    def test_frozen_and_hashable(self, spec):
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.seed = 99  # type: ignore[misc]
        hash(spec)  # tuple-typed fields keep specs hashable

    def test_base_class_refuses_unknown_dispatch(self):
        assert issubclass(SpecError, ValueError)
        with pytest.raises(SpecError):
            Spec.from_dict([1, 2, 3])
