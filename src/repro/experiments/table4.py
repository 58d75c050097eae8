"""Table 4 regeneration: the 18 dynamic scheduling experiments.

Each row of the paper's Table 4 is one experiment: a workload source
(Lublin model at 256/1024 cores, or one of four trace stand-ins), an
information regime (actual runtimes vs user estimates) and a scheduler
mode (plain policy vs policy + EASY backfilling).  This module declares
all 18 rows and runs them at any :class:`~repro.experiments.scale.Scale`.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass

from repro.experiments.dynamic import (
    DynamicExperimentResult,
    model_stream_for_span,
    run_dynamic_experiment,
)
from repro.experiments.paper_data import PAPER_TABLE4, POLICY_COLUMNS, paper_row
from repro.experiments.scale import Scale, current_scale
from repro.runtime import TrialRunner
from repro.sim.job import Workload
from repro.workloads.traces import synthetic_trace, trace_names

__all__ = [
    "Table4Row",
    "TABLE4_ROWS",
    "row_ids",
    "resolve_rows",
    "build_row_workload",
    "run_row",
    "run_rows",
]


@dataclass(frozen=True)
class Table4Row:
    """Declarative description of one Table 4 experiment."""

    row_id: str
    label: str
    source: str  # "model" or a trace key
    nmax: int
    use_estimates: bool
    backfill: bool

    @property
    def paper_medians(self) -> dict[str, float]:
        """The published medians for this row."""
        return paper_row(self.row_id)


def _model_rows() -> list[Table4Row]:
    rows = []
    for nmax in (256, 1024):
        rows.append(
            Table4Row(
                row_id=f"model_{nmax}_actual",
                label=f"Workload model, nmax = {nmax}, actual runtimes r",
                source="model",
                nmax=nmax,
                use_estimates=False,
                backfill=False,
            )
        )
    for nmax in (256, 1024):
        rows.append(
            Table4Row(
                row_id=f"model_{nmax}_estimates",
                label=f"Workload model, nmax = {nmax}, runtime estimates e",
                source="model",
                nmax=nmax,
                use_estimates=True,
                backfill=False,
            )
        )
    for nmax in (256, 1024):
        rows.append(
            Table4Row(
                row_id=f"model_{nmax}_backfill",
                label=f"Workload model, nmax = {nmax}, aggressive backfilling",
                source="model",
                nmax=nmax,
                use_estimates=True,
                backfill=True,
            )
        )
    return rows


def _trace_rows() -> list[Table4Row]:
    display = {
        "curie": "Curie workload trace",
        "anl_intrepid": "Anl Interpid workload trace",
        "sdsc_blue": "SDSC Blue workload trace",
        "ctc_sp2": "CTC SP2 workload trace",
    }
    rows = []
    for mode, use_e, bf in (
        ("actual", False, False),
        ("estimates", True, False),
        ("backfill", True, True),
    ):
        for key in trace_names():
            suffix = {
                "actual": "actual runtimes r",
                "estimates": "runtime estimates e",
                "backfill": "aggressive backfilling",
            }[mode]
            rows.append(
                Table4Row(
                    row_id=f"{key}_{mode}",
                    label=f"{display[key]}, {suffix}",
                    source=key,
                    nmax=0,  # filled from the trace spec at run time
                    use_estimates=use_e,
                    backfill=bf,
                )
            )
    return rows


#: All 18 rows, in the paper's order (model block then trace blocks).
TABLE4_ROWS: tuple[Table4Row, ...] = tuple(
    _model_rows()[:2]
    + _model_rows()[2:4]
    + _model_rows()[4:6]
    + [r for mode in ("actual", "estimates", "backfill") for r in _trace_rows() if r.row_id.endswith(mode)]
)


def row_ids() -> list[str]:
    """All experiment ids, paper order (same keys as PAPER_TABLE4)."""
    return [r.row_id for r in TABLE4_ROWS]


def resolve_rows(rows: Sequence[Table4Row | str] | None) -> list[Table4Row]:
    """Map row ids (or row objects) to declarations, preserving order.

    ``None`` selects all 18 rows in paper order; unknown ids raise
    :class:`KeyError`.  Row objects pass through verbatim, so customised
    rows run as given.  This is the single id-resolution used by
    :func:`run_row`, the CLI and :class:`repro.specs.Table4Spec`.
    """
    if rows is None:
        return list(TABLE4_ROWS)
    by_id = {r.row_id: r for r in TABLE4_ROWS}
    resolved = []
    for row in rows:
        if isinstance(row, Table4Row):
            resolved.append(row)
        elif row in by_id:
            resolved.append(by_id[row])
        else:
            raise KeyError(
                f"unknown Table 4 row {row!r}; available: {', '.join(by_id)}"
            )
    return resolved


def build_row_workload(row: Table4Row, scale: Scale, *, seed: int = 0) -> tuple[Workload, int]:
    """Materialise the workload (and machine size) for one row.

    Model rows generate a Lublin stream spanning the row's sequence
    windows; trace rows generate the synthetic stand-in at the scale's
    job budget.  The same ``(row source, seed)`` always produces the same
    workload regardless of the information regime, so rows 1/3/5 (and
    2/4/6) share their streams exactly as in the paper.
    """
    span = scale.n_sequences * scale.days * 86400.0
    if row.source == "model":
        wl = model_stream_for_span(span, row.nmax, seed=seed)
        return wl, row.nmax
    # Trace stand-ins: the utilization calibration fixes the span per job
    # count, so grow the job budget until the sequence windows fit.
    n_jobs = scale.trace_jobs
    for _ in range(10):
        wl = synthetic_trace(row.source, seed=seed, n_jobs=n_jobs)
        if wl.span >= 1.05 * span:
            return wl, wl.nmax
        growth = (1.1 * span) / max(wl.span, 1.0)
        n_jobs = int(n_jobs * min(max(growth, 1.3), 8.0))
    raise RuntimeError(
        f"trace {row.source} never spanned {span:.0f}s (reached {wl.span:.0f}s)"
    )


def run_row(
    row: Table4Row | str,
    scale: Scale | None = None,
    *,
    seed: int = 0,
    policies: tuple[str, ...] = POLICY_COLUMNS,
) -> DynamicExperimentResult:
    """Run one Table 4 experiment and return the per-sequence samples."""
    (row,) = resolve_rows([row])
    scale = scale or current_scale()
    workload, nmax = build_row_workload(row, scale, seed=seed)
    return run_dynamic_experiment(
        workload,
        policies,
        nmax,
        name=row.row_id,
        use_estimates=row.use_estimates,
        backfill=row.backfill,
        n_sequences=scale.n_sequences,
        days=scale.days,
    )


def _row_task(
    spec: tuple[Table4Row | str, Scale, int, tuple[str, ...]],
) -> DynamicExperimentResult:
    """Picklable per-row task dispatched by :func:`run_rows`."""
    row, scale, seed, policies = spec
    return run_row(row, scale, seed=seed, policies=policies)


def run_rows(
    rows: Sequence[Table4Row | str] | None = None,
    scale: Scale | None = None,
    *,
    seed: int = 0,
    policies: tuple[str, ...] = POLICY_COLUMNS,
    workers: int | str | None = None,
    progress: Callable[[str, int, int], None] | None = None,
) -> list[DynamicExperimentResult]:
    """Run several Table 4 rows, optionally fanned over worker processes.

    Rows are independent experiments, so this is the natural unit of
    parallelism for table regeneration.  Results come back in the order
    of *rows* (default: all 18, paper order) regardless of which worker
    finished first, and each row computes exactly what a lone
    :func:`run_row` call would.
    """
    scale = scale or current_scale()
    row_list = list(rows) if rows is not None else list(TABLE4_ROWS)
    # Row objects travel through the spec verbatim (they pickle fine), so
    # custom / modified rows run as given rather than being re-resolved
    # against the registry by id.
    specs = [(r, scale, seed, tuple(policies)) for r in row_list]
    with TrialRunner(workers) as runner:
        return runner.map(_row_task, specs, phase="rows", progress=progress)


# Consistency guard: every declared row must have published numbers.
assert set(r.row_id for r in TABLE4_ROWS) == set(PAPER_TABLE4), (
    "Table 4 row declarations out of sync with paper_data.PAPER_TABLE4"
)
