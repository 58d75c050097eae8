"""The three run knobs resolve in one place, in one order.

``REPRO_WORKERS``, ``REPRO_SCALE`` and ``REPRO_SIM_KERNEL`` are each
read by one resolver in
:mod:`repro.runtime.config`.  Every resolver applies the same order —
explicit argument, then environment, then default — and reads the
environment at call time.  A bad value fails loudly with the valid
choices and, when it came from the environment, the variable's name.
The library facade and the CLI must land on the same values.
"""

from dataclasses import fields

import pytest

from repro import api
from repro.cli import main
from repro.runtime import ExecutorConfig
from repro.runtime.config import (
    resolve_scale,
    resolve_sim_kernel,
    resolve_workers,
)

#: (resolver, variable, explicit value, environment value, default).
KNOBS = [
    (resolve_workers, "REPRO_WORKERS", 3, "2", 1),
    (resolve_scale, "REPRO_SCALE", "medium", "smoke", "small"),
    (resolve_sim_kernel, "REPRO_SIM_KERNEL", "c", "python", "auto"),
]

#: (resolver, variable, bad environment value, error type).
BAD = [
    (resolve_workers, "REPRO_WORKERS", "many", ValueError),
    (resolve_workers, "REPRO_WORKERS", "0", ValueError),
    (resolve_scale, "REPRO_SCALE", "huge", KeyError),
    (resolve_sim_kernel, "REPRO_SIM_KERNEL", "fortran", ValueError),
]


def _knob_id(case) -> str:
    return case[1]


class TestPrecedence:
    @pytest.mark.parametrize("case", KNOBS, ids=_knob_id)
    def test_default_without_argument_or_environment(self, case, monkeypatch):
        resolver, var, _, _, default = case
        monkeypatch.delenv(var, raising=False)
        assert resolver() == default
        assert resolver(None) == default

    @pytest.mark.parametrize("case", KNOBS, ids=_knob_id)
    def test_environment_beats_default(self, case, monkeypatch):
        resolver, var, _, env, _ = case
        monkeypatch.setenv(var, env)
        expected = int(env) if var == "REPRO_WORKERS" else env
        assert resolver() == expected

    @pytest.mark.parametrize("case", KNOBS, ids=_knob_id)
    def test_argument_beats_environment(self, case, monkeypatch):
        resolver, var, explicit, env, _ = case
        monkeypatch.setenv(var, env)
        assert resolver(explicit) == explicit

    @pytest.mark.parametrize("case", KNOBS, ids=_knob_id)
    def test_environment_is_read_at_call_time(self, case, monkeypatch):
        resolver, var, _, env, default = case
        monkeypatch.delenv(var, raising=False)
        before = resolver()
        monkeypatch.setenv(var, env)
        assert resolver() != before == default


class TestBadValues:
    @pytest.mark.parametrize("case", BAD, ids=lambda c: f"{c[1]}={c[2]}")
    def test_bad_environment_value_names_its_variable(self, case, monkeypatch):
        resolver, var, value, error = case
        monkeypatch.setenv(var, value)
        with pytest.raises(error, match=rf"\${var}") as info:
            resolver()
        assert value in str(info.value)

    def test_bad_argument_does_not_blame_the_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "2")
        with pytest.raises(ValueError) as info:
            resolve_workers("many")
        assert "REPRO_WORKERS" not in str(info.value)


class TestOneResolution:
    def test_executor_config_is_workers_and_chunk_size(self):
        assert [f.name for f in fields(ExecutorConfig)] == ["workers", "chunk_size"]

    def test_no_verb_takes_a_backend_flag(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["simulate", "--jobs", "20", "--backend", "local"])
        assert info.value.code != 0
        assert "--backend" in capsys.readouterr().err

    def test_executor_config_resolves_unset_fields(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        cfg = ExecutorConfig()
        assert (cfg.workers, cfg.n_workers) == (3, 3)
        assert ExecutorConfig(workers=2).workers == 2

    def test_api_and_cli_resolve_the_same_values(self, monkeypatch, capsys):
        """``api.run`` without knobs and the CLI without flags agree."""
        monkeypatch.setenv("REPRO_WORKERS", "2")
        seen = []
        real = api._RUNNERS["simulate"]

        def capture(spec, *, workers, **kwargs):
            seen.append((spec, workers))
            return real(spec, workers=workers, **kwargs)

        monkeypatch.setitem(api._RUNNERS, "simulate", capture)
        assert main(["simulate", "--jobs", "20"]) == 0
        spec = seen[0][0]
        api.run(spec)
        assert seen[0][1] == seen[1][1] == 2
