#!/usr/bin/env python3
"""Compare fresh benchmark JSON against committed baselines (warn-only).

CI's perf-smoke job runs the fast benchmarks, which emit
``results/BENCH_<name>.json`` (see ``benchmarks/conftest.py``), and then
this script compares each against the matching baseline in
``benchmarks/baselines/``.  Two ratios are checked per bench:

* median wall time — a slowdown beyond ``--threshold`` (default 1.5x)
  is flagged;
* derived jobs/sec — a drop below ``1/threshold`` of baseline is
  flagged.

Hosted runners' absolute speed varies wildly, so by default the check is
**warn-only**: regressions are reported (and annotated in the GitHub
log) but the exit status stays 0.  Pass ``--strict`` to turn
regressions into a non-zero exit for environments with stable hardware,
or ``--strict-bench PATTERN`` (repeatable, fnmatch on the bench name)
to hard-gate only selected benches against the looser
``--strict-threshold`` — the perf-smoke job uses this for the kernel
benches, where losing the compiled fast path is a 10-100x cliff that a
3x gate catches without flaking on runner noise.

Only the newest benchmark session's results are compared: each result
carries the ``session`` (start time) of the pytest run that wrote it,
and a result from an older session — a file an earlier run left in
``results/`` — is printed as "stale, skipped" and counts as missing, so
a strict-gated bench that did not run this time still fails.
"""

from __future__ import annotations

import argparse
import json
import sys
from fnmatch import fnmatch
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def _load(path: Path) -> dict | None:
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        print(f"warning: unreadable bench JSON {path}: {exc}")
        return None
    if not isinstance(doc, dict) or "schema" not in doc:
        print(f"warning: {path} is not a bench result")
        return None
    return doc


def compare(baseline: dict, result: dict, threshold: float) -> list[str]:
    """Human-readable regression findings for one bench pair (may be empty)."""
    findings = []
    base_median = (baseline.get("stats") or {}).get("median")
    new_median = (result.get("stats") or {}).get("median")
    if base_median and new_median:
        ratio = new_median / base_median
        if ratio > threshold:
            findings.append(
                f"median wall time {new_median * 1e3:.2f}ms is {ratio:.2f}x the"
                f" baseline's {base_median * 1e3:.2f}ms (threshold {threshold}x)"
            )
    base_jps = baseline.get("jobs_per_sec")
    new_jps = result.get("jobs_per_sec")
    if base_jps and new_jps:
        ratio = new_jps / base_jps
        if ratio < 1 / threshold:
            findings.append(
                f"jobs/sec {new_jps:,.0f} is {ratio:.2f}x the baseline's"
                f" {base_jps:,.0f} (floor {1 / threshold:.2f}x)"
            )
    return findings


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--results",
        type=Path,
        default=REPO_ROOT / "results",
        help="directory of freshly emitted BENCH_*.json (default: results/)",
    )
    parser.add_argument(
        "--baselines",
        type=Path,
        default=REPO_ROOT / "benchmarks" / "baselines",
        help="directory of committed baselines (default: benchmarks/baselines/)",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=1.5,
        help="slowdown ratio that counts as a regression (default 1.5)",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="exit non-zero on regressions instead of warning",
    )
    parser.add_argument(
        "--strict-bench",
        action="append",
        default=[],
        metavar="PATTERN",
        help="fnmatch pattern of bench names (e.g. 'engine_*') that are"
        " hard-gated against --strict-threshold; repeatable",
    )
    parser.add_argument(
        "--strict-threshold",
        type=float,
        default=3.0,
        help="slowdown ratio that fails a --strict-bench match (default 3.0)",
    )
    args = parser.parse_args(argv)

    baselines = sorted(args.baselines.glob("BENCH_*.json"))
    if not baselines:
        print(f"no baselines under {args.baselines}; nothing to check")
        return 0
    results = {}
    for path in sorted(args.results.glob("BENCH_*.json")):
        doc = _load(path)
        if doc is not None:
            results[path.name] = doc
    # Results written before sessions were stamped sort as the oldest.
    newest = max((str(d.get("session", "")) for d in results.values()), default="")
    n_regressions = 0
    n_strict_failures = 0
    n_compared = 0
    for base_path in baselines:
        baseline = _load(base_path)
        if baseline is None:
            continue
        bench_name = base_path.stem.removeprefix("BENCH_")
        strict_gated = any(fnmatch(bench_name, pat) for pat in args.strict_bench)
        result = results.get(base_path.name)
        if result is not None and str(result.get("session", "")) != newest:
            print(
                f"{base_path.stem}: stale, skipped (session"
                f" {result.get('session', 'unstamped')}, newest {newest})"
            )
            result = None
        if result is None:
            print(f"warning: no fresh result for {base_path.name} (bench not run?)")
            if strict_gated:
                # A gated bench that silently stops running is itself a
                # failure — otherwise the gate can be dodged by deletion.
                print(f"::error title={base_path.stem}::strict-gated bench missing")
                n_strict_failures += 1
            continue
        n_compared += 1
        findings = compare(baseline, result, args.threshold)
        base_median = (baseline.get("stats") or {}).get("median") or 0
        new_median = (result.get("stats") or {}).get("median") or 0
        status = "REGRESSION" if findings else "ok"
        gate = " [strict]" if strict_gated else ""
        print(
            f"{base_path.stem}: {status}{gate}"
            f" (median {new_median * 1e3:.2f}ms vs baseline {base_median * 1e3:.2f}ms)"
        )
        for finding in findings:
            n_regressions += 1
            # ::warning:: renders as an annotation in GitHub Actions logs
            # and as a plain line everywhere else.
            print(f"::warning title={base_path.stem}::{finding}")
        if strict_gated:
            hard = compare(baseline, result, args.strict_threshold)
            for finding in hard:
                n_strict_failures += 1
                print(f"::error title={base_path.stem}::{finding}")
    print(
        f"checked {n_compared}/{len(baselines)} baseline(s),"
        f" {n_regressions} regression finding(s),"
        f" {n_strict_failures} strict failure(s)"
    )
    if n_strict_failures:
        return 1
    if n_regressions and args.strict:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
