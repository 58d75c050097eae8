#!/usr/bin/env python
"""CI gate: the kernel path reproduces the legacy simulation loop's bytes.

Runs the full evaluation matrix over the bundled ``tests/data/ctc_tiny.swf``
fixture twice, in one process with fresh caches:

1. through the production path — ``engine.simulate`` on the unified
   event kernel (:mod:`repro.sim.kernel`); and
2. with the engine replaced by the *frozen pre-kernel loop* kept under
   ``tests/oracle_sim.py``;

then byte-compares the resulting ``eval_matrix.json`` reports.  Any
behavioural drift in the kernel — start times, backfill flags, event
counts, seeding, window accounting — shows up as a byte difference.

When a C toolchain is available the kernel run is additionally repeated
with ``REPRO_SIM_KERNEL=c`` and ``=python`` and both must match, so the
compiled backend is held to the same bar as the pure-Python loop.  A
``hybrid`` leg then runs the same matrix under hybrid backfilling on both
backends and byte-compares C against Python: the frozen loop predates
hybrid, so the Python kernel is that leg's reference.  A
``conservative`` leg does the same for the static policies under
conservative backfilling on actual runtimes, where the C pass keeps its
plan between events instead of replanning; it also fails unless the C
run reports kept passes (``sim.replans_kept > 0``), so the leg cannot
pass while that path never runs.  A ``train`` leg
runs the policy-obtaining pipeline at the ``smoke`` scale on both
backends and byte-compares its stdout and score-distribution CSV: the
C trial batch (with its shared trials) and the C permutation draw
against the numpy references.  An ``swf`` leg reads the fixture and a
generated trace with fractional times, each plain and ``.swf.gz``, on
both backends and byte-compares the job blocks and the accounting: the
C tokeniser against ``np.loadtxt``.  It fails unless the C runs read
some lines through the C tokeniser (``workloads.swf.lines_by_line``
below the line count), so it cannot pass while that path never runs.

Usage: ``python scripts/check_kernel_parity.py`` (exit 0 on parity).
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
import tempfile
from collections.abc import Sequence
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))
sys.path.insert(0, str(REPO / "tests"))

TRACE = REPO / "tests" / "data" / "ctc_tiny.swf"
EVALUATE_ARGS = [
    "evaluate",
    "--trace",
    str(TRACE),
    "--policies",
    "fcfs,spt,f1,wfp3,unicef",
    "--backfill",
    "none,easy,conservative",
    "--window-jobs",
    "50",
    "--warmup",
    "5",
    "--workers",
    "1",  # in-process so the oracle monkeypatch reaches every cell
]


#: The hybrid leg's flags.  On the trace's 338-core header the queue
#: seldom outgrows the reservation depth; 256 cores and user estimates
#: make it do so.
HYBRID_ARGS = ["--backfill", "hybrid", "--nmax", "256", "--estimates"]


#: The conservative leg's flags: static policies on actual runtimes, so
#: every job ends where its reservation does and C keeps its plan.
CONSERVATIVE_ARGS = ["--policies", "fcfs,spt,f1", "--backfill", "conservative"]


#: The train leg's flags.  At seed 2 one smoke tuple is contended and the
#: other order-independent, so both the simulated and the shared trials
#: of the C batch are compared.
TRAIN_ARGS = ["train", "--scale", "smoke", "--seed", "2", "--workers", "1"]


def run_matrix_json(
    output_dir: Path, *, use_oracle: bool, backend: str, extra: Sequence[str] = ()
) -> bytes:
    import oracle_sim

    import repro.eval.matrix as matrix_mod
    import repro.sim.engine as engine_mod
    from repro.cli import main

    args = EVALUATE_ARGS + list(extra)
    real = engine_mod.simulate
    os.environ["REPRO_SIM_KERNEL"] = backend
    if use_oracle:
        matrix_mod.simulate = oracle_sim.oracle_schedule_result
        engine_mod.simulate = oracle_sim.oracle_schedule_result
    try:
        with tempfile.TemporaryDirectory() as cache:
            rc = main(args + ["--cache", cache, "--output-dir", str(output_dir)])
    finally:
        matrix_mod.simulate = real
        engine_mod.simulate = real
        os.environ.pop("REPRO_SIM_KERNEL", None)
    if rc not in (0, None):
        raise SystemExit(f"evaluate exited with {rc}")
    return (output_dir / "eval_matrix.json").read_bytes()


def run_train_bytes(csv: Path, *, backend: str) -> bytes:
    """``train --scale smoke`` on *backend*: its stdout (which names
    *csv*, so both legs write there in turn), then the CSV."""
    from repro.cli import main

    stdout = io.StringIO()
    os.environ["REPRO_SIM_KERNEL"] = backend
    try:
        with contextlib.redirect_stdout(stdout):
            rc = main(TRAIN_ARGS + ["--output", str(csv)])
    finally:
        os.environ.pop("REPRO_SIM_KERNEL", None)
    if rc not in (0, None):
        raise SystemExit(f"train exited with {rc}")
    data = stdout.getvalue().encode() + csv.read_bytes()
    csv.unlink()
    return data


def swf_traces(tmp_path: Path) -> list[Path]:
    """The swf leg's inputs: the fixture and a generated trace with
    fractional times (three blocks), each plain and gzip-compressed."""
    import gzip

    from repro.workloads.swf import write_swf
    from repro.workloads.traces import synthetic_trace

    fixture_gz = tmp_path / "ctc_tiny.swf.gz"
    fixture_gz.write_bytes(gzip.compress(TRACE.read_bytes(), mtime=0))
    paths = [TRACE, fixture_gz]
    trace = synthetic_trace("ctc_sp2", seed=38, n_jobs=2500)
    for name in ("generated.swf", "generated.swf.gz"):
        write_swf(trace, tmp_path / name)
        paths.append(tmp_path / name)
    return paths


def run_swf_bytes(path: Path, *, backend: str) -> tuple[bytes, int]:
    """One ``SwfStream`` pass over *path* on *backend*: its job blocks and
    accounting as bytes, and the lines it tokenised one by one."""
    from repro.obs import MetricsRegistry, use_registry
    from repro.workloads.swf import SwfStream

    registry = MetricsRegistry()
    os.environ["REPRO_SIM_KERNEL"] = backend
    try:
        with use_registry(registry):
            stream = SwfStream(path)
            blocks = list(stream.blocks())
    finally:
        os.environ.pop("REPRO_SIM_KERNEL", None)
    acc = stream.accounting
    meta = (
        [b.shape for b in blocks], acc.header, acc.dropped, acc.filtered,
        acc.zero_runtime, acc.yielded, stream.name, stream.machine_size,
    )
    data = b"".join(b.tobytes() for b in blocks) + repr(meta).encode()
    return data, int(registry.value("workloads.swf.lines_by_line"))


def main_check() -> int:
    from repro.obs import MetricsRegistry, use_registry
    from repro.sim import _cbackend
    from repro.workloads.swf import open_swf

    with tempfile.TemporaryDirectory() as tmp:
        tmp_path = Path(tmp)
        oracle = run_matrix_json(
            tmp_path / "oracle", use_oracle=True, backend="python"
        )
        runs = {"kernel[python]": run_matrix_json(
            tmp_path / "kernel-py", use_oracle=False, backend="python"
        )}
        hybrid, conservative, kept, train, swf = {}, {}, {}, {}, {}
        if _cbackend.load() is not None:
            runs["kernel[c]"] = run_matrix_json(
                tmp_path / "kernel-c", use_oracle=False, backend="c"
            )
            for backend in ("python", "c"):
                hybrid[backend] = run_matrix_json(
                    tmp_path / f"hybrid-{backend}", use_oracle=False,
                    backend=backend, extra=HYBRID_ARGS,
                )
                registry = MetricsRegistry()
                with use_registry(registry):
                    conservative[backend] = run_matrix_json(
                        tmp_path / f"conservative-{backend}", use_oracle=False,
                        backend=backend, extra=CONSERVATIVE_ARGS,
                    )
                kept[backend] = registry.value("sim.replans_kept")
                train[backend] = run_train_bytes(
                    tmp_path / "distribution.csv", backend=backend
                )
            for path in swf_traces(tmp_path):
                swf[path] = {
                    backend: run_swf_bytes(path, backend=backend)
                    for backend in ("python", "c")
                }
        else:
            print("note: no C toolchain; compiled backend not exercised")
        failed = [name for name, data in runs.items() if data != oracle]
        for name, data in runs.items():
            status = "MATCH" if data == oracle else "DIFFERS"
            print(f"{name}: {len(data)} bytes vs legacy loop -> {status}")
        if hybrid:
            same = hybrid["c"] == hybrid["python"]
            print(
                f"hybrid kernel[c]: {len(hybrid['c'])} bytes vs kernel[python]"
                f" -> {'MATCH' if same else 'DIFFERS'}"
            )
            if not same:
                failed.append("hybrid kernel[c]")
        if conservative:
            same = conservative["c"] == conservative["python"]
            print(
                f"conservative kernel[c]: {len(conservative['c'])} bytes vs"
                f" kernel[python] -> {'MATCH' if same else 'DIFFERS'}"
                f" ({kept['c']} kept-plan passes)"
            )
            if not same:
                failed.append("conservative kernel[c]")
            if kept["c"] <= 0:
                failed.append("conservative kernel[c] (no kept-plan pass)")
        if train:
            same = train["c"] == train["python"]
            print(
                f"train kernel[c]: {len(train['c'])} bytes vs kernel[python]"
                f" -> {'MATCH' if same else 'DIFFERS'}"
            )
            if not same:
                failed.append("train kernel[c]")
        for path, legs in swf.items():
            (want, _), (got, by_line) = legs["python"], legs["c"]
            with open_swf(path) as fh:
                n_lines = sum(1 for _ in fh)
            same = got == want
            name = path.name
            print(
                f"swf {name} kernel[c]: {len(got)} bytes vs kernel[python]"
                f" -> {'MATCH' if same else 'DIFFERS'}"
                f" ({by_line} of {n_lines} lines read one by one)"
            )
            if not same:
                failed.append(f"swf {name} kernel[c]")
            if by_line >= n_lines:
                failed.append(f"swf {name} kernel[c] (no block tokenised in C)")
    if failed:
        print(f"kernel parity FAILED for: {', '.join(failed)}", file=sys.stderr)
        return 1
    print(
        "kernel parity OK: eval_matrix.json byte-identical to the legacy loop"
        + (" (hybrid, conservative, train and swf: C == Python)" if hybrid else "")
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main_check())
