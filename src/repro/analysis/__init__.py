"""Static analysis: AST rules that machine-enforce the repo's contracts.

The rest of the codebase promises bit-identical results, fingerprint
purity, observation-only telemetry and atomic persistence — promises
that until now lived in docstrings and runtime test suites.  This
package turns them into lint rules (``REP001`` … ``REP009``) that run
in milliseconds over the source itself, via ``repro-sched lint``:

* :mod:`repro.analysis.base` — :class:`Rule` / :class:`Finding` /
  :class:`ModuleContext` vocabulary shared by every rule;
* :mod:`repro.analysis.rules` — the registry, one module per rule;
* :mod:`repro.analysis.suppress` — ``# repro: allow[RULE-ID] reason``
  inline escape hatch (a reason string is mandatory), the only way to
  silence a rule: lint has no configuration file or rule filter;
* :mod:`repro.analysis.engine` — discovery, one-pass dispatch,
  suppression application, exit-code policy;
* :mod:`repro.analysis.reporters` — terminal / JSON / GitHub output.

docs/invariants.md maps each contract to its rule id and the runtime
test that backstops it.
"""

from __future__ import annotations

from repro.analysis.base import Finding, ModuleContext, Rule
from repro.analysis.engine import ENGINE_RULE_ID, LintEngine, LintResult
from repro.analysis.reporters import (
    JSON_SCHEMA_VERSION,
    render_github,
    render_json,
    render_terminal,
)
from repro.analysis.rules import RULE_CLASSES, all_rules, rule_ids
from repro.analysis.suppress import Suppression, scan_suppressions

__all__ = [
    "ENGINE_RULE_ID",
    "Finding",
    "JSON_SCHEMA_VERSION",
    "LintEngine",
    "LintResult",
    "ModuleContext",
    "RULE_CLASSES",
    "Rule",
    "Suppression",
    "all_rules",
    "render_github",
    "render_json",
    "render_terminal",
    "rule_ids",
    "scan_suppressions",
]
