"""Tests for the static-analysis rule engine (``repro-sched lint``).

Covers: every rule against a known-bad and known-clean fixture tree
(tests/analysis_fixtures/), suppression semantics (valid / missing
reason / unknown id / marker-in-string), that a config file cannot
silence a rule, the three output formats and their JSON schema, the CLI verb, and the self-lint
gate — ``repro-sched lint src/`` must exit 0, which is also what makes
the REP009 docstring rule the successor of the old test_docstrings.py.
"""

import json
from pathlib import Path

import pytest

from repro import cli
from repro.analysis import (
    ENGINE_RULE_ID,
    JSON_SCHEMA_VERSION,
    LintEngine,
    all_rules,
    render_github,
    render_json,
    render_terminal,
    rule_ids,
    scan_suppressions,
)

FIXTURES = Path(__file__).parent / "analysis_fixtures"
SRC = Path(__file__).parents[1] / "src"

ALL_RULE_IDS = (
    "REP001", "REP002", "REP003", "REP004", "REP005",
    "REP006", "REP007", "REP008", "REP009",
)


def lint(paths, rule_id=None):
    """Lint *paths* with every rule, or with *rule_id*'s rule alone."""
    rules = None
    if rule_id is not None:
        rules = [rule for rule in all_rules() if rule.id == rule_id]
    return LintEngine(rules=rules).lint_paths(paths)


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
def test_registry_ids_complete_and_sorted():
    assert tuple(rule_ids()) == ALL_RULE_IDS
    rules = all_rules()
    assert [r.id for r in rules] == sorted(r.id for r in rules)


def test_rules_carry_contract_metadata():
    for rule in all_rules():
        assert rule.contract, rule.id
        assert rule.rationale, rule.id
        assert rule.backstop, rule.id
        assert rule.severity == "error"


def test_fresh_instances_per_call():
    assert all_rules()[0] is not all_rules()[0]


# ----------------------------------------------------------------------
# per-rule fixtures: one bad and one clean tree per rule
# ----------------------------------------------------------------------
@pytest.mark.parametrize("rule_id", ALL_RULE_IDS)
def test_rule_flags_bad_and_passes_clean(rule_id):
    tree = FIXTURES / rule_id.lower()
    assert tree.is_dir(), tree
    result = lint([tree], rule_id)
    assert result.files_scanned >= 2, "need a bad and a clean fixture"
    for finding in result.findings:
        assert finding.rule == rule_id
        assert not Path(finding.path).name.startswith("clean"), (
            f"{rule_id} flagged a clean fixture: {finding}"
        )
    # Every fixture not named clean* must be flagged.
    flagged = {Path(f.path).resolve() for f in result.findings}
    for fixture in sorted(tree.rglob("*.py")):
        if not fixture.name.startswith("clean"):
            assert fixture.resolve() in flagged, f"{rule_id} missed {fixture}"
    assert result.exit_code == 1


def test_rep001_flags_every_spelling():
    result = lint([FIXTURES / "rep001" / "bad.py"], "REP001")
    # import random, from numpy.random import shuffle, random.shuffle,
    # np.random.seed, np.random.rand, bare default_rng()
    assert len(result.findings) == 6


def test_rep003_is_path_gated():
    # The same registry read outside sim/core/eval is legal.
    result = lint([FIXTURES / "rep003"], "REP003")
    flagged = {Path(f.path).parent.name for f in result.findings}
    assert flagged == {"sim"}


def test_rep007_allows_int_literal_powers():
    result = lint([FIXTURES / "rep007" / "sim" / "clean.py"], "REP007")
    assert result.findings == []


# ----------------------------------------------------------------------
# suppressions
# ----------------------------------------------------------------------
def test_valid_suppression_silences_but_records():
    result = lint([FIXTURES / "suppress" / "valid.py"], "REP001")
    assert result.exit_code == 0
    assert result.active == []
    assert len(result.suppressed) == 1
    finding = result.suppressed[0]
    assert finding.rule == "REP001"
    assert "justified escape hatch" in finding.suppress_reason


def test_missing_reason_keeps_finding_active_and_adds_rep000():
    result = lint([FIXTURES / "suppress" / "missing_reason.py"], "REP001")
    assert result.exit_code == 1
    rules = sorted(f.rule for f in result.active)
    assert rules == [ENGINE_RULE_ID, "REP001"]
    assert result.suppressed == []
    assert any("requires a one-line" in f.message for f in result.active)


def test_unknown_rule_id_in_suppression_is_rep000():
    result = lint([FIXTURES / "suppress" / "unknown_rule.py"])
    assert result.exit_code == 1
    assert [f.rule for f in result.active] == [ENGINE_RULE_ID]
    assert "REP999" in result.active[0].message


def test_marker_inside_string_is_not_a_suppression():
    result = lint([FIXTURES / "suppress" / "in_string.py"], "REP001")
    assert result.exit_code == 1
    assert len(result.active) == 1
    assert result.suppressed == []


def test_scan_suppressions_parses_multi_rule_markers():
    source = "x = 1  # repro: allow[REP004, rep006] spans two rules\n"
    sups = scan_suppressions(source)
    assert sups[1].rules == ("REP004", "REP006")
    assert sups[1].valid


def test_syntax_error_becomes_rep000(tmp_path):
    broken = tmp_path / "broken.py"
    broken.write_text("def broken(:\n", encoding="utf-8")
    result = lint([broken])
    assert result.exit_code == 1
    assert [f.rule for f in result.findings] == [ENGINE_RULE_ID]
    assert "could not parse" in result.findings[0].message


# ----------------------------------------------------------------------
# no configuration: a config file cannot silence a rule
# ----------------------------------------------------------------------
SILENCING_TABLES = {
    "ignore": 'ignore = ["REP001"]\n',
    "select": 'select = ["REP004"]\n',
    "exclude": 'exclude = ["planted.py"]\n',
    "severity": '[tool.repro-lint.rules.REP001]\nseverity = "warning"\n',
}


@pytest.mark.parametrize("basename", ["pyproject.toml", "repro-lint.toml"])
@pytest.mark.parametrize("table", sorted(SILENCING_TABLES))
def test_config_file_cannot_silence_a_rule(
    tmp_path, monkeypatch, capsys, basename, table
):
    (tmp_path / basename).write_text(
        "[tool.repro-lint]\n" + SILENCING_TABLES[table], encoding="utf-8"
    )
    (tmp_path / "planted.py").write_text(
        '"""Planted REP001 violation."""\n'
        "import numpy as np\n\nnp.random.seed(0)\n",
        encoding="utf-8",
    )
    monkeypatch.chdir(tmp_path)
    assert cli.main(["lint", "."]) == 1
    assert "planted.py:4:0: REP001 error:" in capsys.readouterr().out


def test_rules_argument_narrows_the_registry():
    tree = FIXTURES / "rep006"
    assert lint([tree], "REP001").findings == []
    assert "REP006" in {f.rule for f in lint([tree]).findings}


def test_rep009_gates_on_contract_packages():
    rule = next(r for r in all_rules() if r.id == "REP009")
    rule.contract_packages = ()
    result = LintEngine(rules=[rule]).lint_paths(
        [FIXTURES / "rep009" / "runtime"]
    )
    # With no contract packages, the marker-less docstring passes.
    assert result.findings == []


# ----------------------------------------------------------------------
# reporters
# ----------------------------------------------------------------------
def test_json_report_schema():
    result = lint([FIXTURES / "rep006"], "REP006")
    doc = json.loads(render_json(result))
    assert doc["schema"] == JSON_SCHEMA_VERSION
    assert doc["tool"] == "repro-lint"
    assert doc["files_scanned"] == result.files_scanned
    assert set(doc["summary"]) == {"errors", "warnings", "suppressed"}
    assert doc["summary"]["errors"] == len(result.active)
    assert doc["rules"]["REP006"]["contract"]
    for finding in doc["findings"]:
        assert set(finding) == {
            "rule", "path", "line", "col", "message", "severity",
            "suppressed", "suppress_reason",
        }


def test_json_report_includes_suppressed_findings():
    result = lint([FIXTURES / "suppress" / "valid.py"], "REP001")
    doc = json.loads(render_json(result))
    assert doc["summary"]["errors"] == 0
    assert doc["summary"]["suppressed"] == 1
    assert doc["findings"][0]["suppressed"] is True
    assert doc["findings"][0]["suppress_reason"]


def test_github_format_emits_annotations():
    result = lint([FIXTURES / "rep006" / "bad.py"], "REP006")
    out = render_github(result)
    assert "::error file=" in out
    assert "title=REP006" in out


def test_terminal_format_lists_findings_and_summary():
    result = lint([FIXTURES / "rep006" / "bad.py"], "REP006")
    out = render_terminal(result)
    assert "REP006 error:" in out
    assert "error(s)" in out


# ----------------------------------------------------------------------
# CLI verb
# ----------------------------------------------------------------------
def test_cli_lint_bad_fixture_exits_nonzero(capsys):
    rc = cli.main(
        ["lint", str(FIXTURES / "rep001" / "bad.py")]
    )
    assert rc == 1
    assert "REP001" in capsys.readouterr().out


def test_cli_lint_json_format(capsys):
    rc = cli.main(
        [
            "lint",
            str(FIXTURES / "rep001" / "clean.py"),
            "--format",
            "json",
        ]
    )
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == JSON_SCHEMA_VERSION


def test_cli_lint_list_rules(capsys):
    rc = cli.main(["lint", "--list-rules"])
    assert rc == 0
    out = capsys.readouterr().out
    for rule_id in ALL_RULE_IDS:
        assert rule_id in out


def test_cli_lint_unknown_path_is_a_clean_error():
    with pytest.raises(SystemExit, match="lint path not found"):
        cli.main(["lint", "no/such/dir"])


# ----------------------------------------------------------------------
# self-lint: the repo's own source obeys its own contracts
# ----------------------------------------------------------------------
def test_src_lints_clean():
    result = lint([SRC])
    assert result.exit_code == 0, render_terminal(result)
    # Every suppression in src/ carries a justification by construction;
    # growth of this count is watched by scripts/check_lint_baseline.py.
    for finding in result.suppressed:
        assert finding.suppress_reason


def test_src_docstring_invariants_hold():
    # The REP009 successor of the old tests/test_docstrings.py gate.
    result = lint([SRC], "REP009")
    assert result.exit_code == 0, render_terminal(result)
