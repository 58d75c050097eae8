"""Frozen per-line SWF reader and writer — the oracle for the block path.

The library's SWF reader first tokenised every SWF row with a Python
``float()`` loop, classified it with scalar comparisons and yielded it
as one record, and ``write_swf`` formatted every row field by field.
The live module now tokenises blocks of lines with the C library's
tokeniser (``np.loadtxt`` when the C library is not selected),
classifies them with one vectorised function, yields job blocks
(``repro.workloads.swf.iter_swf_blocks``) and formats whole columns at
once.  ``tests/test_swf_blocks.py`` holds it to this module: the same
rows bit for bit (or the same ``ValueError`` text after the same
yielded prefix), the same header and accounting, and the same written
bytes.

``oracle_iter_swf_jobs`` and ``oracle_write_swf`` are the two functions
as they stood, verbatim apart from their names, the gzip error helper
they share, the plain ``(job_id, submit, runtime, size, estimate)``
tuple a row is yielded as, and two later rule changes: a row whose
submit, runtime, size or estimate is non-finite is dropped (``inf``
passes the sign tests; ``nan`` never did), and so is a row whose size
is not a whole number (it was truncated).  Do not "clean up" or
optimise this file — its only value is that it does not change.
"""

from __future__ import annotations

import gzip
import io
import math
import zlib
from collections.abc import Iterable, Iterator
from pathlib import Path

from repro.sim.job import Workload
from repro.workloads.swf import SwfAccounting

__all__ = ["oracle_iter_swf_jobs", "oracle_write_swf"]

_N_FIELDS = 18
ZERO_RUNTIME_EPSILON = 1.0
_STATUS_COMPLETED = 1.0
_GZIP_ERRORS = (EOFError, gzip.BadGzipFile, zlib.error)


def _parse_header_comment(line: str, header: dict[str, str]) -> None:
    body = line.lstrip("; \t")
    if ":" in body:
        key, _, value = body.partition(":")
        header[key.strip()] = value.strip()


def _gzip_error(lines: object, lineno: int, exc: Exception) -> ValueError:
    where = f"SWF file {lines.name}" if hasattr(lines, "name") else "SWF"
    return ValueError(f"{where}: truncated or corrupt gzip data after line {lineno} ({exc})")


def oracle_iter_swf_jobs(
    source: str | Iterable[str],
    *,
    keep_failed: bool = True,
    accounting: SwfAccounting | None = None,
) -> Iterator[tuple[float, float, float, float, float]]:
    acc = accounting if accounting is not None else SwfAccounting()
    lines = source.splitlines() if isinstance(source, str) else source
    lineno = 0
    try:
        for lineno, line in enumerate(lines, start=1):
            line = line.strip()
            if not line:
                continue
            if line.startswith(";"):
                _parse_header_comment(line, acc.header)
                continue
            parts = line.split()
            if len(parts) < 11:
                raise ValueError(
                    f"SWF line {lineno}: expected >= 11 fields, got {len(parts)}"
                )
            try:
                row = [float(x) for x in parts[:_N_FIELDS]]
            except ValueError as exc:
                raise ValueError(f"SWF line {lineno}: non-numeric field ({exc})") from None
            submit = row[1]
            runtime = row[3]
            alloc = row[4]
            req_procs = row[7]
            req_time = row[8]
            status = row[10]
            size = req_procs if req_procs > 0 else alloc
            if (
                runtime == 0
                and status == _STATUS_COMPLETED
                and size > 0
                and submit >= 0
            ):
                runtime = ZERO_RUNTIME_EPSILON
                acc.zero_runtime += 1
            estimate = req_time if req_time > 0 else runtime
            if not (
                runtime > 0
                and size > 0
                and submit >= 0
                and all(map(math.isfinite, (submit, runtime, size, estimate)))
                and size.is_integer()
            ):
                acc.dropped += 1
                continue
            if not keep_failed and status in (0.0, 5.0):
                acc.filtered += 1
                continue
            acc.yielded += 1
            yield (row[0], submit, runtime, size, max(estimate, 1.0))
    except _GZIP_ERRORS as exc:
        raise _gzip_error(lines, lineno, exc) from None


def oracle_write_swf(
    workload: Workload,
    path: str | Path | None = None,
    *,
    header: dict[str, str] | None = None,
) -> str:
    buf = io.StringIO()
    meta = {"Computer": workload.name}
    if workload.nmax:
        meta["MaxProcs"] = str(workload.nmax)
    meta.update(header or {})
    for key, value in meta.items():
        buf.write(f"; {key}: {value}\n")
    for i in range(len(workload)):
        fields = [-1.0] * _N_FIELDS
        fields[0] = float(workload.job_ids[i])
        fields[1] = float(workload.submit[i])
        fields[3] = float(workload.runtime[i])
        fields[4] = float(workload.size[i])
        fields[7] = float(workload.size[i])
        fields[8] = float(workload.estimate[i])
        fields[10] = 1.0  # status: completed
        buf.write(
            " ".join(
                str(int(f)) if float(f).is_integer() else repr(float(f))
                for f in fields
            )
            + "\n"
        )
    text = buf.getvalue()
    if path is not None:
        path = Path(path)
        if path.suffix == ".gz":
            path.write_bytes(
                gzip.compress(text.encode("utf-8"), mtime=0)
            )
        else:
            path.write_text(text, encoding="utf-8")
    return text
