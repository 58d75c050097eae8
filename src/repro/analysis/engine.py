"""The lint engine: file discovery, one-pass dispatch, suppressions.

:class:`LintEngine` turns paths into a deterministic, sorted module
list, parses each module once, walks its AST once (rules subscribe to
node types via ``Rule.interests``), applies inline suppressions and
returns a :class:`LintResult`.  Determinism matters here too: the
engine's own output — finding order, JSON reports, exit codes — is
bit-identical across runs and machines, because CI diffs it and the
baseline script counts it.

Path gating resolves each file to a *package-relative* module path:
anything under a ``src/repro/`` tree is addressed relative to the
package root (``runtime/cache.py``), anything else relative to the
scanned root — which is what lets the fixture trees under
``tests/analysis_fixtures/`` exercise path-gated rules without living
inside the real package.

Engine-level problems — an unparseable file, a suppression with no
reason or an unknown rule id — are reported under the reserved id
``REP000`` and always gate the exit code.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.base import Finding, ModuleContext, Rule
from repro.analysis.rules import all_rules, rule_ids
from repro.analysis.suppress import scan_suppressions

__all__ = ["LintEngine", "LintResult"]

#: Reserved id for engine-level findings (parse errors, malformed
#: suppressions); not a rule of the registry and never suppressible.
ENGINE_RULE_ID = "REP000"


@dataclass
class LintResult:
    """Everything one lint run produced."""

    findings: list[Finding] = field(default_factory=list)
    files_scanned: int = 0
    rules: list[Rule] = field(default_factory=list)

    @property
    def active(self) -> list[Finding]:
        """Findings not silenced by a valid inline suppression."""
        return [f for f in self.findings if not f.suppressed]

    @property
    def suppressed(self) -> list[Finding]:
        """Findings silenced by a valid inline suppression."""
        return [f for f in self.findings if f.suppressed]

    @property
    def exit_code(self) -> int:
        """1 when any active finding exists, else 0."""
        return int(bool(self.active))


def module_relpath(path: Path, root: Path) -> str:
    """Package-relative posix path used for rule gating."""
    posix = path.resolve().as_posix()
    marker = "/src/repro/"
    if marker in posix:
        return posix.split(marker, 1)[1]
    try:
        rel = path.resolve().relative_to(root.resolve())
    except ValueError:
        return path.name
    return rel.as_posix() or path.name


def _display_path(path: Path) -> str:
    """Path as printed in findings: cwd-relative when possible."""
    try:
        return path.resolve().relative_to(Path.cwd()).as_posix()
    except ValueError:
        return str(path)


class LintEngine:
    """Run a rule set over modules and collect findings.

    The rule set is the whole registry; *rules* narrows it (tests run
    one rule against its fixtures that way).  There is no configuration:
    each rule's gating and severity are its class constants, so a run
    reports the same findings from any working directory, and an inline
    ``# repro: allow[RULE-ID] reason`` is the only way to silence one.
    """

    def __init__(self, rules: list[Rule] | None = None) -> None:
        self.rules = rules if rules is not None else all_rules()
        self._known_ids = set(rule_ids()) | {ENGINE_RULE_ID}

    # ------------------------------------------------------------------
    # discovery
    # ------------------------------------------------------------------
    def discover(self, paths: list[str | Path]) -> list[tuple[Path, str]]:
        """Resolve *paths* into sorted ``(file, module-relpath)`` pairs."""
        out: list[tuple[Path, str]] = []
        seen: set[Path] = set()
        for raw in paths:
            base = Path(raw)
            if base.is_dir():
                files = sorted(base.rglob("*.py"))
                root = base
            elif base.is_file():
                files = [base]
                root = base.parent
            else:
                raise FileNotFoundError(f"lint path not found: {base}")
            for file in files:
                resolved = file.resolve()
                if resolved in seen:
                    continue
                seen.add(resolved)
                out.append((file, module_relpath(file, root)))
        out.sort(key=lambda pair: (pair[1], pair[0].as_posix()))
        return out

    # ------------------------------------------------------------------
    # linting
    # ------------------------------------------------------------------
    def lint_paths(self, paths: list[str | Path]) -> LintResult:
        """Lint every ``*.py`` under *paths* (files or directories)."""
        result = LintResult(rules=self.rules)
        for file, rel in self.discover(paths):
            result.files_scanned += 1
            result.findings.extend(self._lint_file(file, rel))
        return result

    def _lint_file(self, file: Path, rel: str) -> list[Finding]:
        display = _display_path(file)
        source = file.read_text(encoding="utf-8")
        suppressions = scan_suppressions(source)
        findings: list[Finding] = []

        # Malformed suppressions are findings in their own right — an
        # unexplained escape hatch must be loud, not silent.
        for line in sorted(suppressions):
            sup = suppressions[line]
            if not sup.reason:
                findings.append(
                    Finding(
                        rule=ENGINE_RULE_ID,
                        path=display,
                        line=line,
                        col=0,
                        message=(
                            "suppression without a reason: `# repro:"
                            " allow[...]` requires a one-line"
                            " justification after the bracket"
                        ),
                        severity="error",
                    )
                )
            for rule_id in sup.rules:
                if rule_id not in self._known_ids:
                    findings.append(
                        Finding(
                            rule=ENGINE_RULE_ID,
                            path=display,
                            line=line,
                            col=0,
                            message=(
                                f"suppression names unknown rule"
                                f" {rule_id!r}"
                            ),
                            severity="error",
                        )
                    )

        try:
            tree = ast.parse(source)
        except SyntaxError as exc:
            findings.append(
                Finding(
                    rule=ENGINE_RULE_ID,
                    path=display,
                    line=exc.lineno or 1,
                    col=exc.offset or 0,
                    message=f"could not parse module: {exc.msg}",
                    severity="error",
                )
            )
            return findings

        parents: dict[ast.AST, ast.AST] = {}
        for node in ast.walk(tree):
            for child in ast.iter_child_nodes(node):
                parents[child] = node
        ctx = ModuleContext(
            path=file.resolve(),
            display_path=display,
            relpath=rel,
            source=source,
            tree=tree,
            parents=parents,
        )

        applicable = [r for r in self.rules if r.applies_to(rel)]
        if applicable:
            raw: list[tuple[Rule, ast.AST | None, str]] = []
            for rule in applicable:
                for node, message in rule.check_module(ctx):
                    raw.append((rule, node, message))
            interested = [r for r in applicable if r.interests]
            if interested:
                for node in ast.walk(tree):
                    for rule in interested:
                        if isinstance(node, rule.interests):
                            for flagged, message in rule.check(node, ctx):
                                raw.append((rule, flagged, message))
            for rule, node, message in raw:
                line = getattr(node, "lineno", 1) if node is not None else 1
                col = getattr(node, "col_offset", 0) if node is not None else 0
                sup = suppressions.get(line)
                suppressed = (
                    sup is not None and sup.valid and rule.id in sup.rules
                )
                findings.append(
                    Finding(
                        rule=rule.id,
                        path=display,
                        line=line,
                        col=col,
                        message=message,
                        severity=rule.severity,
                        suppressed=suppressed,
                        suppress_reason=sup.reason if suppressed else None,
                    )
                )

        findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule, f.message))
        return findings
