"""Standard Workload Format (SWF) reader/writer — batch and streaming.

The SWF (Feitelson, Tsafrir & Krakov 2014) is the lingua franca of the
Parallel Workloads Archive: one job per line, 18 whitespace-separated
fields, ``;`` comment lines carrying header metadata.  The paper's traces
(Curie, ANL Intrepid, SDSC Blue, CTC SP2) are all distributed in SWF.

Field map (1-based, per the PWA definition):

====  =========================  =================================
 #    field                      use here
====  =========================  =================================
 1    job number                 ``job_ids``
 2    submit time                ``submit`` (s)
 3    wait time                  ignored (an *outcome*, not an input)
 4    run time                   ``runtime`` (s)
 5    allocated processors       fallback for size
 6    average CPU time           ignored
 7    used memory                ignored
 8    requested processors       ``size`` (falls back to field 5)
 9    requested time             ``estimate`` (falls back to runtime)
10    requested memory           ignored
11    status                     jobs with status 0/5 (failed/cancelled)
                                 are dropped when ``keep_failed=False``
12-18 user/group/app/queue/...   preserved in ``extra['columns']``
====  =========================  =================================

Jobs with non-positive runtime or size are always dropped (they cannot be
scheduled); the count is reported in ``extra['dropped']``.  One carve-out
matches how raw PWA files actually look: a *completed* row (status 1)
whose recorded runtime is exactly 0 is a sub-second job truncated by the
SWF's one-second resolution, not an unschedulable row — its runtime is
clamped to :data:`ZERO_RUNTIME_EPSILON` (1.0 s, the format's time
quantum, matching the estimate floor) and the row is kept, counted in
``extra['zero_runtime']``.  Zero-runtime rows with any other status stay
dropped.  Jobs excluded *deliberately* — schedulable rows removed because
``keep_failed=False`` and their status is 0/5 — are counted separately in
``extra['filtered']``.

Gzip-compressed files (``.swf.gz``, the archive's native distribution
form) are opened transparently: :func:`open_swf` sniffs the gzip magic
bytes, so every reader — batch and streaming — accepts raw archive
downloads while keeping O(1) memory.

Two entry points share one row classifier, so their accounting can never
diverge:

* :func:`parse_swf_text` / :func:`read_swf` — batch: materialise a whole
  :class:`~repro.sim.job.Workload` (built on top of the iterator below);
* :func:`iter_swf_jobs` / :class:`SwfStream` — streaming: yield one
  :class:`SwfJob` at a time with O(1) memory, so a multi-million-job
  archive trace can feed :func:`repro.eval.windows.stream_windows`
  without ever being resident in full.
"""

from __future__ import annotations

import gzip
import io
import zlib
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple, TextIO

import numpy as np

from repro.sim.job import Workload

__all__ = [
    "SwfAccounting",
    "SwfJob",
    "SwfStream",
    "ZERO_RUNTIME_EPSILON",
    "iter_swf_jobs",
    "open_swf",
    "parse_swf_text",
    "read_swf",
    "write_swf",
]

_N_FIELDS = 18
_GZIP_MAGIC = b"\x1f\x8b"

#: Runtime assigned to status-completed rows recorded with runtime 0
#: (sub-second jobs truncated by the SWF's one-second resolution): the
#: format's time quantum, matching the estimate floor, so such jobs stay
#: schedulable instead of vanishing into the dropped count.
ZERO_RUNTIME_EPSILON = 1.0

#: SWF status code of a completed job (0 = failed, 5 = cancelled).
_STATUS_COMPLETED = 1.0


def open_swf(path: str | Path) -> TextIO:
    """Open an SWF file for text reading, gzip-decompressing transparently.

    The Parallel Workloads Archive distributes traces as ``.swf.gz``;
    this sniffs the gzip magic bytes (never trusting the extension) and
    returns a line-iterable text handle either way, so the streaming
    readers keep O(1) memory on compressed files too.
    """
    path = Path(path)
    with path.open("rb") as probe:
        magic = probe.read(2)
    if magic == _GZIP_MAGIC:
        return gzip.open(path, "rt", encoding="utf-8", errors="replace")
    return path.open(encoding="utf-8", errors="replace")


def _swf_stem(path: Path) -> str:
    """File stem with both ``.gz`` and ``.swf`` suffixes stripped."""
    stem = path.name
    for suffix in (".gz", ".swf"):
        if stem.endswith(suffix):
            stem = stem[: -len(suffix)]
    return stem or path.stem


class SwfJob(NamedTuple):
    """One schedulable SWF row, reduced to the fields a simulation consumes.

    Values are kept as the raw parsed floats (``size`` included), so a
    batch of them converts to :class:`~repro.sim.job.Workload` arrays
    bit-identically to the historical matrix-based parser; ``estimate``
    already carries the ``max(·, 1.0)`` floor the simulator requires.
    """

    job_id: float
    submit: float
    runtime: float
    size: float
    estimate: float


@dataclass
class SwfAccounting:
    """Mutable side-channel of an :func:`iter_swf_jobs` pass.

    Filled in-place while the iterator is consumed: ``header`` grows as
    ``;``-comment lines are encountered, ``dropped`` counts unschedulable
    rows, ``filtered`` counts schedulable rows removed by
    ``keep_failed=False``, ``zero_runtime`` counts completed rows whose
    runtime was clamped up from 0 (see :data:`ZERO_RUNTIME_EPSILON`),
    ``yielded`` counts jobs actually produced.  The same object can be
    shared between a header pre-scan and the job pass (header updates
    are idempotent).
    """

    header: dict[str, str] = field(default_factory=dict)
    dropped: int = 0
    filtered: int = 0
    zero_runtime: int = 0
    yielded: int = 0

    def machine_size(self) -> int:
        """``MaxProcs`` (or ``MaxNodes``) from the header, 0 if unknown."""
        for key in ("MaxProcs", "MaxNodes"):
            if key in self.header:
                try:
                    return int(float(self.header[key]))
                except ValueError:
                    pass
        return 0

    def trace_name(self, fallback: str) -> str:
        """The header's ``Computer`` field, or *fallback*."""
        return self.header.get("Computer", fallback)


def _parse_header_comment(line: str, header: dict[str, str]) -> None:
    body = line.lstrip("; \t")
    if ":" in body:
        key, _, value = body.partition(":")
        header[key.strip()] = value.strip()


#: What a truncated or corrupt ``.swf.gz`` raises mid-iteration.
_GZIP_ERRORS = (EOFError, gzip.BadGzipFile, zlib.error)


def _gzip_error(lines: object, lineno: int, exc: Exception) -> ValueError:
    """Name a broken gzip stream: the last line read and, for a file, the file."""
    where = f"SWF file {lines.name}" if hasattr(lines, "name") else "SWF"
    return ValueError(f"{where}: truncated or corrupt gzip data after line {lineno} ({exc})")


def iter_swf_jobs(
    source: str | Iterable[str],
    *,
    keep_failed: bool = True,
    accounting: SwfAccounting | None = None,
) -> Iterator[SwfJob]:
    """Incrementally parse SWF content, yielding one :class:`SwfJob` per row.

    *source* is SWF text or any iterable of lines (an open file object
    streams the trace with O(1) memory).  Rows are classified exactly as
    :func:`parse_swf_text` does — that function is built on this
    iterator — and the running dropped/filtered/header state is exposed
    through *accounting* (pass your own :class:`SwfAccounting` to read
    it; counts are only final once the iterator is exhausted).

    Malformed rows (fewer than 11 fields, non-numeric values) raise
    :class:`ValueError` naming the offending line number, identically to
    the batch parser; so does a truncated or corrupt gzip stream.
    """
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
                # A *completed* job recorded at 0 s is a sub-second job
                # truncated by the SWF's one-second resolution (common in
                # raw PWA traces), not an unschedulable row: clamp it to the
                # format's time quantum and keep it, counted separately.
                runtime = ZERO_RUNTIME_EPSILON
                acc.zero_runtime += 1
            estimate = req_time if req_time > 0 else runtime
            if not (runtime > 0 and size > 0 and submit >= 0):
                acc.dropped += 1
                continue
            if not keep_failed and status in (0.0, 5.0):
                acc.filtered += 1
                continue
            acc.yielded += 1
            yield SwfJob(row[0], submit, runtime, size, max(estimate, 1.0))
    except _GZIP_ERRORS as exc:
        raise _gzip_error(lines, lineno, exc) from None


def _workload_from_jobs(
    jobs: list[SwfJob], acc: SwfAccounting, fallback_name: str
) -> Workload:
    """Assemble the batch :class:`Workload` both batch readers share."""
    if jobs:
        mat = np.asarray(jobs, dtype=float)
    else:
        mat = np.empty((0, 5), dtype=float)
    return Workload(
        submit=mat[:, 1],
        runtime=mat[:, 2],
        size=mat[:, 3].astype(np.int64),
        estimate=mat[:, 4],
        job_ids=mat[:, 0].astype(np.int64),
        name=acc.trace_name(fallback_name),
        nmax=acc.machine_size(),
        extra={
            "header": acc.header,
            "dropped": acc.dropped,
            "filtered": acc.filtered,
            "zero_runtime": acc.zero_runtime,
        },
    )


def parse_swf_text(
    text: str,
    *,
    name: str = "swf",
    keep_failed: bool = True,
) -> Workload:
    """Parse SWF content from a string.  See module docstring for field use."""
    acc = SwfAccounting()
    jobs = list(iter_swf_jobs(text, keep_failed=keep_failed, accounting=acc))
    return _workload_from_jobs(jobs, acc, name)


def read_swf(path: str | Path, *, keep_failed: bool = True) -> Workload:
    """Read an SWF file from disk (gzip-compressed files open transparently)."""
    path = Path(path)
    acc = SwfAccounting()
    with open_swf(path) as fh:
        jobs = list(iter_swf_jobs(fh, keep_failed=keep_failed, accounting=acc))
    return _workload_from_jobs(jobs, acc, _swf_stem(path))


class SwfStream:
    """An SWF file opened for incremental reading.

    Splits the two things a streaming evaluation needs at different
    times: the *header metadata* (machine size, trace name — read
    eagerly from the leading comment block without touching job rows)
    and the *job stream* (:meth:`jobs`, a fresh O(1)-memory iterator per
    call).  ``accounting`` carries the shared dropped/filtered counters,
    final once a :meth:`jobs` pass is exhausted.
    """

    def __init__(self, path: str | Path, *, keep_failed: bool = True) -> None:
        self.path = Path(path)
        self.keep_failed = keep_failed
        self.accounting = SwfAccounting()
        self._read_leading_header()

    def _read_leading_header(self) -> None:
        # Only the comment block before the first job row is scanned here;
        # standard SWF puts all metadata there.  Comments interleaved with
        # job rows are still collected during a jobs() pass.
        with open_swf(self.path) as fh:
            lineno = 0
            try:
                for lineno, line in enumerate(fh, start=1):
                    line = line.strip()
                    if not line:
                        continue
                    if not line.startswith(";"):
                        break
                    _parse_header_comment(line, self.accounting.header)
            except _GZIP_ERRORS as exc:
                raise _gzip_error(fh, lineno, exc) from None

    @property
    def header(self) -> dict[str, str]:
        """Header metadata from the leading comment block."""
        return self.accounting.header

    @property
    def name(self) -> str:
        """Trace name: the header's ``Computer`` field or the file stem."""
        return self.accounting.trace_name(_swf_stem(self.path))

    @property
    def machine_size(self) -> int:
        """``MaxProcs``/``MaxNodes`` from the header, 0 if unknown."""
        return self.accounting.machine_size()

    def jobs(self) -> Iterator[SwfJob]:
        """Stream the file's schedulable jobs without materialising it.

        Each call starts a fresh pass: the dropped/filtered/zero-runtime/
        yielded counters are reset (eagerly, before the first job is pulled) so
        re-reading the file — e.g. a cached streaming re-run — reports
        single-pass counts instead of accumulating across passes.  The
        header survives resets.
        """
        acc = self.accounting
        acc.dropped = acc.filtered = acc.zero_runtime = acc.yielded = 0

        def generate() -> Iterator[SwfJob]:
            with open_swf(self.path) as fh:
                yield from iter_swf_jobs(
                    fh, keep_failed=self.keep_failed, accounting=acc
                )

        return generate()


def write_swf(
    workload: Workload,
    path: str | Path | None = None,
    *,
    header: dict[str, str] | None = None,
) -> str:
    """Serialise *workload* to SWF text (and optionally write it to *path*).

    Only the fields the library consumes are populated; the rest carry the
    SWF "unknown" marker ``-1``.  Non-integer values are written with
    ``repr`` (the shortest decimal that round-trips the float exactly), so
    reading the output back yields a bit-identical workload (round-trip
    tested, including fractional submit/runtime values).  A *path* ending
    in ``.gz`` is written gzip-compressed — the readers sniff the magic
    bytes, so the round-trip holds for compressed files too.
    """
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
            # mtime=0 keeps the compressed bytes a pure function of the
            # workload (reproducible archives, content-addressable).
            path.write_bytes(
                gzip.compress(text.encode("utf-8"), mtime=0)
            )
        else:
            path.write_text(text, encoding="utf-8")
    return text
