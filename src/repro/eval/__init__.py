"""repro.eval — real-trace evaluation subsystem.

Turns a workload trace (SWF from the Parallel Workloads Archive, or a
synthetic stand-in) into many independent evaluation scenarios and
benchmarks scheduling policies across them at worker-pool speed:

* :mod:`repro.eval.windows` — window slicing: contiguous windows of N
  jobs or T seconds, warm-up trimming, per-window clock re-basing — by
  one slicer, :func:`stream_windows`, over job blocks from a file or an
  in-memory workload (:func:`slice_windows` lists its output), so
  content fingerprints do not depend on the source.
* :mod:`repro.eval.matrix` — the {policies × backfill × windows} matrix
  runner over :class:`repro.runtime.TrialRunner`: one loop for a
  workload or a window stream, **bit-identical for any worker count
  and source**, with per-cell content-addressed cache keys
  so re-running an unchanged :class:`~repro.specs.EvaluateSpec`
  simulates nothing.
* :mod:`repro.eval.report` — per-series summaries, paired per-window
  policy deltas with seeded percentile-bootstrap confidence intervals,
  CSV/JSON export and a terminal report.

The CLI front-end is ``repro-sched evaluate`` (a ``--trace`` file is
always streamed; ``--bootstrap``/``--ci`` set the intervals).
"""

from repro.eval.matrix import CellResult, MatrixResult, run_matrix
from repro.eval.report import (
    deltas_to_csv,
    matrix_to_csv,
    matrix_to_json,
    paper_comparison_doc,
    render_matrix_report,
    render_paper_comparison,
    write_matrix_report,
)
from repro.eval.windows import (
    Window,
    slice_windows,
    stream_windows,
    workload_fingerprint,
)

__all__ = [
    "CellResult",
    "MatrixResult",
    "Window",
    "deltas_to_csv",
    "matrix_to_csv",
    "matrix_to_json",
    "paper_comparison_doc",
    "render_matrix_report",
    "render_paper_comparison",
    "run_matrix",
    "slice_windows",
    "stream_windows",
    "workload_fingerprint",
    "write_matrix_report",
]
