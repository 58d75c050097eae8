"""Seeded input generation is deterministic and seed-sensitive."""

import pytest

import run
import suite


def _swf_and_spec(name, seed, tmp_path):
    workdir = tmp_path / f"{name}-{seed}-{len(list(tmp_path.iterdir()))}"
    workdir.mkdir()
    inputs = suite.PARTS[name].prepare(seed, workdir)
    (swf,) = workdir.glob("*.swf")
    spec = inputs["spec"].to_dict()
    # the SWF path differs per work directory; the rest of the spec must not
    base = spec.get("base", spec)
    base.pop("trace")
    return swf.read_bytes(), spec


@pytest.mark.parametrize("name", ["evaluate", "sweep"])
def test_trace_workloads_write_identical_swf_for_a_seed(name, tmp_path):
    first = _swf_and_spec(name, 3, tmp_path)
    assert _swf_and_spec(name, 3, tmp_path) == first
    other = _swf_and_spec(name, 4, tmp_path)
    assert other[0] != first[0] and other[1] != first[1]


@pytest.mark.parametrize("name", ["train", "table4"])
def test_config_workloads_depend_only_on_the_seed(name, tmp_path):
    prepare = suite.PARTS[name].prepare
    assert prepare(3, tmp_path) == prepare(3, tmp_path)
    assert prepare(3, tmp_path) != prepare(4, tmp_path)


def test_call_seeds_are_fixed_by_run_seed_and_never_shared():
    assert run.call_seeds(2, "paper", 36) == run.call_seeds(2, "paper", 36)
    n = len(run.TYPICAL_WALL_S)
    runs = [set(run.call_seeds(s, w, 36)) for s in range(5) for w in run.TYPICAL_WALL_S]
    by_seed = [set().union(*runs[i * n:(i + 1) * n]) for i in range(5)]
    assert all(a.isdisjoint(b) for i, a in enumerate(by_seed) for b in by_seed[i + 1:])
    assert len(run.call_seeds(0, "traces", 1)) == run.PROCESSES


def test_digest_is_canonical():
    assert suite.digest({"b": [1.5, 2], "a": (3,)}) == suite.digest({"a": [3], "b": (1.5, 2)})
    assert suite.digest([0.1]) != suite.digest([0.1 + 1e-17 + 1e-16])
