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

Jobs with non-positive runtime or size, a non-finite submit, runtime,
size or estimate, or a size that is not a whole number are always
dropped (they cannot be scheduled); the count is reported in
``extra['dropped']``.  One carve-out
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
downloads while keeping O(block) memory.

Every reader runs on one block path, so their accounting can never
diverge.  The file is read :data:`_BLOCK_LINES` lines at a time.  Lines
up to a block's last ``;`` comment (a file's header block) go through
the line-by-line tokeniser; the rest of the block, when it is made only
of 18-field data rows, is tokenised by one call of the C library's
tokeniser (``repro_swf_rows`` in :mod:`repro.sim._cbackend`, which takes
a number only where its double is ``float``'s bit for bit), or of
``np.loadtxt`` when the C library is not selected, and otherwise (other
field counts, garbled or non-ASCII values) line by line too, which
names the first bad line.  The ``workloads.swf.lines_by_line`` counter
counts the lines that went one by one.  One vectorised classifier then
applies the rules above to the block's matrix and yields its kept jobs
as a job block (:data:`repro.sim.job.BLOCK_COLUMNS`, which
:class:`SwfJob` follows field for field).  Rows before a
bad line, or before a gzip stream breaks, are yielded before the
:class:`ValueError` is raised, so a consumer that stops early never
sees an error from a row it did not need.

* :func:`parse_swf_text` / :func:`read_swf` — batch: materialise a whole
  :class:`~repro.sim.job.Workload` from the blocks;
* :class:`SwfStream` — streaming: :meth:`SwfStream.blocks` yields the job
  blocks with O(block) memory, so a multi-million-job archive trace can
  feed :func:`repro.eval.windows.stream_windows` without ever being
  resident in full;
* :func:`iter_swf_jobs` / :meth:`SwfStream.jobs` — the same blocks, one
  :class:`SwfJob` at a time.

The writer streams too: :func:`write_swf` formats :data:`_BLOCK_LINES`
rows at a time and writes each block to its file as soon as it is
formatted, plain or gzip-compressed (the bytes of
``gzip.compress(text, mtime=0)``), so writing a trace holds one block,
never the whole text.  It returns the text only when no path is given.
"""

from __future__ import annotations

import gzip
import math
import struct
import zlib
from collections.abc import Iterable, Iterator
from itertools import islice
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple, TextIO

import numpy as np

from repro.obs.metrics import current_registry
from repro.sim import _cbackend
from repro.sim.job import BLOCK_COLUMNS, Workload, job_block

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
#: Leading fields the classifier reads (through field 11, the status).
_N_USED = 11
_GZIP_MAGIC = b"\x1f\x8b"

#: Runtime assigned to status-completed rows recorded with runtime 0
#: (sub-second jobs truncated by the SWF's one-second resolution): the
#: format's time quantum, matching the estimate floor, so such jobs stay
#: schedulable instead of vanishing into the dropped count.
ZERO_RUNTIME_EPSILON = 1.0

#: SWF status code of a completed job (0 = failed, 5 = cancelled).
_STATUS_COMPLETED = 1.0

#: Lines read per block: the readers' working set, whatever the file size.
_BLOCK_LINES = 1024


def open_swf(path: str | Path) -> TextIO:
    """Open an SWF file for text reading, gzip-decompressing transparently.

    The Parallel Workloads Archive distributes traces as ``.swf.gz``;
    this sniffs the gzip magic bytes (never trusting the extension) and
    returns a line-iterable text handle either way, so the streaming
    readers keep O(block) memory on compressed files too.
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
        """``MaxProcs`` (or ``MaxNodes``) from the header, 0 if unknown.

        A value that is unparsable, non-finite or below 1 is unknown too,
        so the next key (then 0) is used instead.
        """
        for key in ("MaxProcs", "MaxNodes"):
            try:
                value = float(self.header[key])
            except (KeyError, ValueError):
                continue
            if math.isfinite(value) and value >= 1:
                return int(value)
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


def _tokenise_lines(
    lines: list[str], lineno: int, header: dict[str, str]
) -> tuple[np.ndarray, ValueError | None]:
    """Line-by-line tokeniser: the rows before the first bad line, and its error.

    *lineno* is the number of the first line.  Comment lines update
    *header*; the rows come back as an ``(k, 11)`` matrix of the fields
    the classifier reads.
    """
    current_registry().inc("workloads.swf.lines_by_line", len(lines))
    rows: list[list[float]] = []
    error = None
    for lineno, line in enumerate(lines, start=lineno):
        line = line.strip()
        if not line:
            continue
        if line.startswith(";"):
            _parse_header_comment(line, header)
            continue
        parts = line.split()
        if len(parts) < _N_USED:
            error = ValueError(
                f"SWF line {lineno}: expected >= 11 fields, got {len(parts)}"
            )
            break
        try:
            row = [float(x) for x in parts[:_N_FIELDS]]
        except ValueError as exc:
            error = ValueError(f"SWF line {lineno}: non-numeric field ({exc})")
            break
        rows.append(row[:_N_USED])
    return np.array(rows, dtype=float).reshape(-1, _N_USED), error


def _loadtxt_block(lines: list[str]) -> np.ndarray | None:
    """The rows of comment-free lines if all are 18-field data rows, else ``None``.

    The path without the C library, and the C tokeniser's reference.
    ``np.loadtxt`` parses numbers exactly as ``float`` does wherever it
    accepts them; it rejects the few spellings ``float`` also takes
    (``1_0``, non-ASCII digits), and those lines go one by one.
    """
    text = "".join(lines)
    if not text or text.isspace() or not text.isascii():
        return None
    try:
        mat = np.loadtxt(lines, dtype=float, comments=None, ndmin=2)
    except ValueError:
        return None
    return mat if mat.shape[1] == _N_FIELDS else None


def _c_block(lines: list[str], kernel: _cbackend.CKernel) -> np.ndarray | None:
    """:func:`_loadtxt_block` by the C tokeniser (``repro_swf_rows``).

    It accepts a token only where its double is ``float``'s, bit for bit;
    any other line (``1_0``, hex, another field count) makes it return
    ``None``, and so does a non-ASCII character: it encodes to bytes of
    0x80 and up, which no token takes.  Lines are joined by ``\\0``, not
    ``\\n``, so a line holding a newline stays one line, as it is for the
    line-by-line tokeniser; C refuses a block with a NUL inside a line,
    which would split it.
    """
    buf = "\0".join(lines).encode("utf-8", "surrogatepass")
    return kernel.swf_rows(buf, len(lines))


def _tokenise(
    lines: list[str], lineno: int, header: dict[str, str]
) -> tuple[np.ndarray, ValueError | None]:
    """Tokenise one block: its raw rows, and the error of its first bad line.

    Lines up to the block's last ``;`` comment (a file's header block)
    go line by line; the rest is tried with one call of the C tokeniser,
    or of ``np.loadtxt`` when the C library is not selected.
    """
    cut = 0
    if ";" in "".join(lines):
        cut = max(i for i, line in enumerate(lines) if ";" in line) + 1
    head, error = _tokenise_lines(lines[:cut], lineno, header)
    if error is not None:
        return head, error
    kernel = _cbackend.selected()
    body = lines[cut:]
    tail = _loadtxt_block(body) if kernel is None else _c_block(body, kernel)
    if tail is None:
        tail, error = _tokenise_lines(body, lineno + cut, header)
    if cut:
        tail = np.concatenate((head, tail[:, :_N_USED]))
    return tail, error


def _classify(raw: np.ndarray, keep_failed: bool, acc: SwfAccounting) -> np.ndarray:
    """Apply the SWF row rules to raw rows; the kept jobs as a job block.

    The size fallback, the completed-zero-runtime clamp, the drop rule
    (which also drops a non-finite submit, runtime, size or estimate,
    and a size that is not a whole number),
    the ``keep_failed`` filter and the estimate floor, over a whole
    block at once; *acc*'s counters grow by the block's counts.
    """
    submit, runtime, status = raw[:, 1], raw[:, 3], raw[:, 10]
    req_procs, req_time = raw[:, 7], raw[:, 8]
    size = np.where(req_procs > 0, req_procs, raw[:, 4])
    placed = (size > 0) & (submit >= 0)
    # A *completed* job recorded at 0 s is a sub-second job truncated by
    # the SWF's one-second resolution (common in raw PWA traces), not an
    # unschedulable row: clamp it to the format's time quantum and keep
    # it, counted separately.
    clamped = (runtime == 0) & (status == _STATUS_COMPLETED) & placed
    runtime = np.where(clamped, ZERO_RUNTIME_EPSILON, runtime)
    estimate = np.where(req_time > 0, req_time, runtime)
    # An infinite submit, runtime, size or estimate passes the sign
    # tests above; drop it like a NaN.
    finite = (
        np.isfinite(submit) & np.isfinite(runtime) & np.isfinite(size) & np.isfinite(estimate)
    )
    # A job holds a whole number of processors: a fractional size is a
    # malformed row, not one to truncate.
    whole = size == np.floor(size)
    schedulable = placed & (runtime > 0) & finite & whole
    keep = schedulable
    if not keep_failed:
        keep = schedulable & (status != 0.0) & (status != 5.0)
    n_kept = int(keep.sum())
    n_schedulable = int(schedulable.sum())
    acc.zero_runtime += int(clamped.sum())
    acc.dropped += len(raw) - n_schedulable
    acc.filtered += n_schedulable - n_kept
    acc.yielded += n_kept
    return job_block(
        raw[keep, 0], submit[keep], runtime[keep], size[keep],
        np.maximum(estimate[keep], 1.0),
    )


def _job_blocks(
    source: str | Iterable[str], *, keep_failed: bool, acc: SwfAccounting
) -> Iterator[np.ndarray]:
    """The block path under every reader: kept jobs, ``(k, 5)`` per block.

    Reads :data:`_BLOCK_LINES` lines at a time.  A bad line, or a gzip
    stream that breaks mid-block, raises its named :class:`ValueError`
    only after the rows before it have been yielded.
    """
    lines = source.splitlines() if isinstance(source, str) else source
    it = iter(lines)
    lineno = 0  # lines read so far
    while True:
        block: list[str] = []
        broken = None
        try:
            for line in islice(it, _BLOCK_LINES):
                block.append(line)
        except _GZIP_ERRORS as exc:
            broken = exc
        if not block and broken is None:
            return
        raw, error = _tokenise(block, lineno + 1, acc.header)
        lineno += len(block)
        jobs = _classify(raw, keep_failed, acc)
        if len(jobs):
            yield jobs
        if error is not None:
            raise error
        if broken is not None:
            raise _gzip_error(lines, lineno, broken) from None


def iter_swf_jobs(
    source: str | Iterable[str],
    *,
    keep_failed: bool = True,
    accounting: SwfAccounting | None = None,
) -> Iterator[SwfJob]:
    """Incrementally parse SWF content, yielding one :class:`SwfJob` per row.

    *source* is SWF text or any iterable of lines (an open file object
    streams the trace with O(block) memory).  Rows are classified by the
    block path every reader shares, and the running dropped/filtered/
    header state is exposed through *accounting* (pass your own
    :class:`SwfAccounting` to read it; counts cover whole blocks, so they
    are only final once the iterator is exhausted).

    Malformed rows (fewer than 11 fields, non-numeric values) raise
    :class:`ValueError` naming the offending line number, identically to
    the batch parser; so does a truncated or corrupt gzip stream.
    """
    acc = accounting if accounting is not None else SwfAccounting()
    for block in _job_blocks(source, keep_failed=keep_failed, acc=acc):
        yield from map(SwfJob._make, block.tolist())


def _workload_from_blocks(
    blocks: Iterable[np.ndarray], acc: SwfAccounting, fallback_name: str
) -> Workload:
    """Assemble the batch :class:`Workload` both batch readers share."""
    mat = np.concatenate([np.empty((0, len(BLOCK_COLUMNS))), *blocks])
    return Workload.from_block(
        mat,
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
    blocks = _job_blocks(text, keep_failed=keep_failed, acc=acc)
    return _workload_from_blocks(list(blocks), acc, name)


def read_swf(path: str | Path, *, keep_failed: bool = True) -> Workload:
    """Read an SWF file from disk (gzip-compressed files open transparently)."""
    path = Path(path)
    acc = SwfAccounting()
    with open_swf(path) as fh:
        blocks = list(_job_blocks(fh, keep_failed=keep_failed, acc=acc))
    return _workload_from_blocks(blocks, acc, _swf_stem(path))


class SwfStream:
    """An SWF file opened for incremental reading.

    Splits the two things a streaming evaluation needs at different
    times: the *header metadata* (machine size, trace name — read
    eagerly from the leading comment block without touching job rows)
    and the *job stream* (:meth:`blocks`, or :meth:`jobs` one job at a
    time: a fresh O(block)-memory pass per call).  ``accounting``
    carries the shared dropped/filtered counters, final once a pass is
    exhausted.
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

    def blocks(self) -> Iterator[np.ndarray]:
        """Stream the file's schedulable jobs as job blocks.

        Columns follow :data:`~repro.sim.job.BLOCK_COLUMNS` (and
        :class:`SwfJob`); the file is never resident in
        full.  Each call starts a fresh pass: the dropped/filtered/
        zero-runtime/yielded counters are reset (eagerly, before the
        first block is pulled) so re-reading the file — e.g. a cached
        streaming re-run — reports single-pass counts instead of
        accumulating across passes.  The header survives resets.
        """
        acc = self.accounting
        acc.dropped = acc.filtered = acc.zero_runtime = acc.yielded = 0

        def generate() -> Iterator[np.ndarray]:
            with open_swf(self.path) as fh:
                yield from _job_blocks(fh, keep_failed=self.keep_failed, acc=acc)

        return generate()

    def jobs(self) -> Iterator[SwfJob]:
        """The jobs of a fresh :meth:`blocks` pass, one :class:`SwfJob` at a time."""
        blocks = self.blocks()
        return (SwfJob._make(row) for block in blocks for row in block.tolist())


def _format_column(values: np.ndarray) -> list[str]:
    """SWF spelling of a column: integer-valued floats as ints, others by ``repr``."""
    return [
        str(int(x)) if x.is_integer() else repr(x)
        for x in np.asarray(values, dtype=np.float64).tolist()
    ]


def _swf_chunks(workload: Workload, header: dict[str, str] | None) -> Iterator[str]:
    """The SWF text of *workload*: the header lines, then one chunk per block.

    Every chunk covers at most :data:`_BLOCK_LINES` rows, so the text,
    the plain file and the gzip file are all formatted here and none of
    them needs more than one block of strings at a time.
    """
    meta = {"Computer": workload.name}
    if workload.nmax:
        meta["MaxProcs"] = str(workload.nmax)
    meta.update(header or {})
    yield "".join(f"; {key}: {value}\n" for key, value in meta.items())
    columns = (
        workload.job_ids,
        workload.submit,
        workload.runtime,
        workload.size,
        workload.estimate,
    )
    for lo in range(0, len(workload), _BLOCK_LINES):
        job_ids, submit, runtime, size, estimate = (
            _format_column(col[lo : lo + _BLOCK_LINES]) for col in columns
        )
        # status 1 (completed); every other field is the "unknown" marker -1
        yield "".join([
            f"{j} {s} -1 {r} {p} -1 -1 {p} {e} -1 1 -1 -1 -1 -1 -1 -1 -1\n"
            for j, s, r, p, e in zip(job_ids, submit, runtime, size, estimate)
        ])


def _write_gzip(path: Path, chunks: Iterable[str]) -> None:
    """Write the UTF-8 encoding of *chunks* as ``gzip.compress(text, mtime=0)`` would.

    That file is a 10-byte header, the raw level-9 deflate stream of the
    text, then its CRC-32 and length.  Deflate fed one chunk at a time,
    with no flush between chunks, emits the same stream as one call over
    the whole text, so the bytes equal the one-shot ones while only one
    chunk is held.  The header is taken from ``gzip.compress`` itself,
    so it matches whatever header the running Python writes;
    ``gzip.GzipFile`` writes another one (OS byte ``0xff``).
    """
    deflate = zlib.compressobj(9, zlib.DEFLATED, -zlib.MAX_WBITS)
    crc = size = 0
    with path.open("wb") as fh:
        fh.write(gzip.compress(b"", mtime=0)[:10])
        for chunk in chunks:
            data = chunk.encode("utf-8")
            crc = zlib.crc32(data, crc)
            size += len(data)
            fh.write(deflate.compress(data))
        fh.write(deflate.flush())
        fh.write(struct.pack("<LL", crc, size & 0xFFFFFFFF))


def write_swf(
    workload: Workload,
    path: str | Path | None = None,
    *,
    header: dict[str, str] | None = None,
) -> str | None:
    """Serialise *workload* to SWF: the text, or a file at *path*.

    Without *path* the SWF text is returned.  With a *path* the file is
    written one :data:`_BLOCK_LINES`-row block at a time, so writing a
    trace of any length holds one block of text (and, for gzip, of
    compressed bytes), never the whole file; ``None`` is returned then,
    and the text can be read back from the file.

    Only the fields the library consumes are populated; the rest carry the
    SWF "unknown" marker ``-1``.  Non-integer values are written with
    ``repr`` (the shortest decimal that round-trips the float exactly), so
    reading the output back yields a bit-identical workload (round-trip
    tested, including fractional submit/runtime values).  A *path* ending
    in ``.gz`` is written gzip-compressed with the bytes of
    ``gzip.compress(text, mtime=0)`` — a pure function of the workload
    (reproducible archives, content-addressable).  The readers sniff the
    magic bytes, so the round-trip holds for compressed files too.
    """
    chunks = _swf_chunks(workload, header)
    if path is None:
        return "".join(chunks)
    path = Path(path)
    if path.suffix == ".gz":
        _write_gzip(path, chunks)
    else:
        with path.open("w", encoding="utf-8") as fh:
            fh.writelines(chunks)
    return None
