"""Aggregation and reporting of evaluation-matrix results.

Per-cell metrics become four artifacts:

* a long-format CSV (one row per cell — the raw material for any
  plotting tool),
* a paired-deltas CSV (one row per non-baseline series, with
  ``delta_ci_low``/``delta_ci_high`` bootstrap bounds and a significance
  column),
* a JSON document (config + cells + per-series summaries + bootstrap
  deltas, for programmatic consumers),
* a terminal report: per backfill mode, one table of per-policy
  AVEbsld statistics over windows plus *paired* per-window deltas
  against a baseline policy (both series of a pair saw the identical
  job stream, so the delta isolates the policy decision), each with
  its bootstrap confidence interval and a ``*`` significance marker.

Every statistic here is a deterministic function of the matrix result:
the bootstrap intervals are seeded from the evaluation spec's seed
(:meth:`~repro.eval.matrix.MatrixResult.delta_cis`), so reports are
bit-identical across re-runs, worker counts and the streamed/
materialised window paths.  A series with a single window degenerates
gracefully: the point estimate is reported with its CI marked n/a.

:func:`write_matrix_report` is the one writer of the CSV/JSON files;
the CLI's ``evaluate --output-dir`` and the examples call it.
"""

from __future__ import annotations

import io
import json
import math
from pathlib import Path

import numpy as np

from repro.eval.matrix import MatrixResult
from repro.policies.registry import get_policy
from repro.sim.platform import platform_identity, topology_label
from repro.specs import EvaluateSpec
from repro.util.stats import BootstrapCI

__all__ = [
    "deltas_to_csv",
    "matrix_to_csv",
    "matrix_to_json",
    "paper_comparison_doc",
    "render_matrix_report",
    "render_paper_comparison",
    "write_matrix_report",
]


def _finite_or_none(value: float) -> float | None:
    """NaN-free JSON representation of a possibly-undefined CI bound."""
    return value if math.isfinite(value) else None


def _significance_token(ci: BootstrapCI) -> str:
    """CSV/terminal spelling of the three-valued significance."""
    if ci.significant is None:
        return "n/a"
    return "yes" if ci.significant else "no"


def _platform_suffix(spec: EvaluateSpec) -> str:
    """Header suffix naming the platform, empty on the flat machine.

    Gated on :func:`repro.sim.platform.platform_identity` so flat (and
    product-1) matrices render byte-identical reports to the
    pre-platform library — the CI topology-smoke job byte-compares them.
    """
    if platform_identity(spec.topology, spec.distribution, spec.seed) is None:
        return ""
    return (
        f" topology={topology_label(spec.topology)}"
        f" distribution={spec.distribution}"
    )


def _delta_series(
    result: MatrixResult, baseline: str | None, n_boot: int, level: float
) -> tuple[str, dict[tuple[str, str], tuple[BootstrapCI, float, int]]]:
    """The baseline's name, and per non-baseline ``(policy, backfill)``
    series its paired-delta bootstrap CI, median delta and wins (windows
    where the policy beat the baseline)."""
    base = get_policy(baseline).name if baseline else result.spec.policies[0]
    deltas = result.paired_deltas(base)
    cis = result.delta_cis(base, n_boot=n_boot, level=level)
    return base, {
        key: (ci, float(np.median(deltas[key])), int((deltas[key] < 0).sum()))
        for key, ci in cis.items()
    }


def matrix_to_csv(result: MatrixResult) -> str:
    """Long-format per-cell rows: one line per (window, policy, backfill)."""
    buf = io.StringIO()
    spec = result.spec
    buf.write(
        f"# trace={result.trace_name} nmax={result.nmax}"
        f" windows={result.n_windows} warmup={spec.warmup}"
        f" estimates={spec.estimates} tau={spec.tau:g}"
        f"{_platform_suffix(spec)}\n"
    )
    buf.write(
        "window,policy,backfill,n_jobs,n_scored,ave_bsld,"
        "utilization,makespan,backfilled\n"
    )
    for c in result.cells:
        buf.write(
            f"{c.window},{c.policy},{c.backfill},{c.n_jobs},{c.n_scored},"
            f"{c.ave_bsld:.10g},{c.utilization:.10g},{c.makespan:.10g},"
            f"{c.backfilled}\n"
        )
    return buf.getvalue()


def deltas_to_csv(
    result: MatrixResult,
    *,
    baseline: str | None = None,
    n_boot: int = 1000,
    level: float = 0.95,
) -> str:
    """Per-series paired deltas vs *baseline*, with bootstrap CI columns.

    One row per (policy, backfill) series other than the baseline:
    sample statistics of the per-window deltas plus
    ``delta_ci_low``/``delta_ci_high`` (empty-valued ``nan`` when the
    series has a single window) and a ``significant`` column
    (``yes``/``no``/``n/a``).  Negative deltas mean the policy beat the
    baseline.
    """
    spec = result.spec
    base, series = _delta_series(result, baseline, n_boot, level)
    buf = io.StringIO()
    buf.write(
        f"# trace={result.trace_name} baseline={base}"
        f" bootstrap={n_boot} level={level:g} seed={spec.seed}\n"
    )
    buf.write(
        "policy,backfill,baseline,n_windows,median_delta,mean_delta,"
        "delta_ci_low,delta_ci_high,significant,wins\n"
    )
    for (p, b), (ci, median, wins) in series.items():
        buf.write(
            f"{p},{b},{base},{ci.n},{median:.10g},"
            f"{ci.point:.10g},{ci.lo:.10g},{ci.hi:.10g},"
            f"{_significance_token(ci)},{wins}\n"
        )
    return buf.getvalue()


def matrix_to_json(
    result: MatrixResult,
    *,
    baseline: str | None = None,
    n_boot: int = 1000,
    level: float = 0.95,
    paper: str | None = None,
) -> str:
    """Config + cells + per-series summaries + bootstrap deltas as JSON.

    With *paper* (a Table 4 row prefix such as ``"ctc_sp2"``) the
    document additionally carries a ``paper`` block — see
    :func:`paper_comparison_doc`."""
    spec = result.spec
    summaries = {
        f"{p}/{b}": {
            "n": s.n,
            "median": s.median,
            "mean": s.mean,
            "std": s.std,
            "min": s.min,
            "max": s.max,
        }
        for (p, b), s in result.summaries().items()
    }
    base, series = _delta_series(result, baseline, n_boot, level)
    delta_doc = {
        f"{p}/{b}": {
            "n": ci.n,
            "median": median,
            "mean": ci.point,
            "delta_ci_low": _finite_or_none(ci.lo),
            "delta_ci_high": _finite_or_none(ci.hi),
            "significant": ci.significant,
            "wins": wins,
        }
        for (p, b), (ci, median, wins) in series.items()
    }
    doc = {
        "trace": result.trace_name,
        "nmax": result.nmax,
        "n_windows": result.n_windows,
        "n_simulated": result.n_simulated,
        "n_cached": result.n_cached,
        "config": _config_doc(spec),
        "bootstrap": {"baseline": base, "n_boot": n_boot, "level": level},
        "deltas": delta_doc,
        "summaries": summaries,
        "cells": [c.to_entry() for c in result.cells],
    }
    if paper is not None:
        doc["paper"] = {
            "prefix": paper,
            "comparison": paper_comparison_doc(result, paper),
        }
    return json.dumps(doc, indent=2, sort_keys=True)


def _config_doc(spec: EvaluateSpec) -> dict:
    """The JSON ``config`` block: the spec's matrix fields under their
    historical keys; platform keys only when partitioned, so flat
    documents keep their historical bytes."""
    doc = {
        "policies": list(spec.policies),
        "backfill": list(spec.backfill),
        "use_estimates": spec.estimates,
        "tau": spec.tau,
        "window_jobs": spec.window_jobs,
        "window_seconds": spec.window_seconds,
        "warmup": spec.warmup,
        "max_windows": spec.max_windows,
        "seed": spec.seed,
    }
    if platform_identity(spec.topology, spec.distribution, spec.seed) is not None:
        doc["topology"] = list(spec.topology)
        doc["distribution"] = spec.distribution
    return doc


def paper_comparison_doc(result: MatrixResult, prefix: str) -> dict:
    """Paper-vs-measured medians as plain data (the JSON ``paper`` block).

    For each backfill mode of the matrix, the closest paper Table 4 row
    (:func:`repro.experiments.paper_data.paper_row_id`) is looked up and
    every policy present in both gets ``{"paper": …, "measured": …,
    "ratio": …}`` where *measured* is the median AVEbsld over windows.
    Modes or policies without a paper counterpart are simply absent;
    an empty dict means the paper has no rows for *prefix* at all.
    """
    from repro.experiments.paper_data import paper_row, paper_row_id

    spec = result.spec
    summaries = result.summaries()
    doc: dict = {}
    for mode in spec.backfill:
        row_id = paper_row_id(
            prefix, backfill=mode, use_estimates=spec.estimates
        )
        if row_id is None:
            continue
        published = paper_row(row_id)
        policies = {}
        for policy in spec.policies:
            if policy not in published:
                continue
            measured = summaries[(policy, mode)].median
            paper_value = published[policy]
            policies[policy] = {
                "paper": paper_value,
                "measured": measured,
                "ratio": measured / paper_value if paper_value else math.inf,
            }
        if policies:
            doc[mode] = {"row": row_id, "policies": policies}
    return doc


def render_paper_comparison(result: MatrixResult, prefix: str) -> str | None:
    """Terminal paper-vs-measured block, or ``None`` without paper rows.

    One table per backfill mode that has a paper Table 4 counterpart:
    the paper's median AVEbsld, the measured median over this run's
    windows, and their ratio.  The comparison is indicative, not exact —
    the paper replays ten 15-day sequences per trace while this run's
    windowing is whatever the spec declared — which is why the block
    names the paper row it compares against.
    """
    doc = paper_comparison_doc(result, prefix)
    if not doc:
        return None
    lines = [
        f"paper-vs-measured for {result.trace_name}"
        " (median AVEbsld; paper = Table 4, measured = this run's windows):"
    ]
    for mode, block in doc.items():
        lines.append(f"  backfill={mode}  [paper row {block['row']}]")
        lines.append(
            "    " + "policy".ljust(8) + "paper".rjust(12) + "measured".rjust(12) + "ratio".rjust(9)
        )
        for policy, cell in block["policies"].items():
            lines.append(
                "    "
                + policy.ljust(8)
                + f"{cell['paper']:.2f}".rjust(12)
                + f"{cell['measured']:.2f}".rjust(12)
                + f"{cell['ratio']:.2f}x".rjust(9)
            )
    return "\n".join(lines)


def render_matrix_report(
    result: MatrixResult,
    *,
    baseline: str | None = None,
    n_boot: int = 1000,
    level: float = 0.95,
) -> str:
    """Terminal report: per-mode policy tables + paired deltas with CIs.

    *baseline* (default: the matrix's first policy) anchors the delta
    block; negative deltas mean the policy beat the baseline in that
    window.  Each delta line carries its percentile-bootstrap interval
    (*n_boot* resamples at coverage *level*, seeded from the spec) and
    a ``*`` marker when the interval excludes zero; a single-window
    series prints its point estimate with ``CI n/a`` instead of
    crashing on the degenerate spread.
    """
    spec = result.spec
    base, series = _delta_series(result, baseline, n_boot, level)
    summaries = result.summaries()

    lines = [
        f"Evaluation matrix for {result.trace_name}"
        f" (nmax={result.nmax}, {result.n_windows} windows,"
        f" {'estimates' if spec.estimates else 'actual runtimes'}"
        f"{',' + _platform_suffix(spec) if _platform_suffix(spec) else ''})",
        f"cells: {len(result.cells)}"
        f" (simulated {result.n_simulated}, cached {result.n_cached})",
    ]
    col = max(9, *(len(p) + 2 for p in spec.policies))
    for mode in spec.backfill:
        lines.append(f"\nbackfill={mode}  AVEbsld over windows:")
        head = "".ljust(10) + "".join(p.rjust(col) for p in spec.policies)
        lines.append(head)
        for stat in ("median", "mean", "std"):
            row = stat.ljust(10) + "".join(
                f"{getattr(summaries[(p, mode)], stat):.2f}".rjust(col)
                for p in spec.policies
            )
            lines.append(row)
        util = "util".ljust(10) + "".join(
            f"{np.mean([c.utilization for c in result.cells if c.policy == p and c.backfill == mode]):.3f}".rjust(
                col
            )
            for p in spec.policies
        )
        lines.append(util)
        if series:
            lines.append(
                f"paired Δ vs {base} (negative = better),"
                f" {level:.0%} bootstrap CI (* = excludes 0):"
            )
            for p in spec.policies:
                if p == base:
                    continue
                ci, median, wins = series[(p, mode)]
                if ci.defined:
                    ci_text = (
                        f"CI [{ci.lo:+.2f}, {ci.hi:+.2f}]"
                        f"{'*' if ci.significant else ' '}"
                    )
                else:
                    ci_text = f"CI n/a ({ci.n} window{'s' if ci.n != 1 else ''})"
                lines.append(
                    f"  {p:<8s} median Δ={median:+.2f}"
                    f"  mean Δ={ci.point:+.2f}"
                    f"  {ci_text}"
                    f"  wins {wins}/{ci.n}"
                )
    lines.append(
        f"\nbest policy (lowest median AVEbsld): {result.best()}"
    )
    return "\n".join(lines)


def write_matrix_report(
    directory: str | Path,
    result: MatrixResult,
    *,
    baseline: str | None = None,
    n_boot: int = 1000,
    level: float = 0.95,
    paper: str | None = None,
) -> list[Path]:
    """Write ``eval_matrix.csv``, ``eval_matrix.json`` (and, for matrices
    with more than one policy, ``eval_matrix_deltas.csv``) into
    *directory*.  *paper* (a Table 4 row prefix) adds the
    paper-vs-measured block to the JSON."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    artifacts = [
        ("eval_matrix.csv", matrix_to_csv(result)),
        (
            "eval_matrix.json",
            matrix_to_json(
                result, baseline=baseline, n_boot=n_boot, level=level, paper=paper
            ),
        ),
    ]
    if len(result.spec.policies) > 1:
        artifacts.append(
            (
                "eval_matrix_deltas.csv",
                deltas_to_csv(result, baseline=baseline, n_boot=n_boot, level=level),
            )
        )
    paths = []
    for name, text in artifacts:
        path = directory / name
        path.write_text(text, encoding="utf-8")
        paths.append(path)
    return paths
