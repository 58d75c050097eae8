"""The SWF block path against the frozen per-line reader and writer.

``repro.workloads.swf`` tokenises blocks of lines with the C library's
tokeniser (``np.loadtxt`` when the C library is not selected) and
classifies each block with one vectorised function;
``tests/oracle_swf.py`` keeps the per-line loop it replaced.  A seeded,
dependency-free fuzzer feeds both the same garbled, commented,
blank-lined and CRLF-ended SWF content at several block sizes, through
either tokeniser, and requires the same rows bit for bit, or the same
``ValueError`` text after the same yielded prefix, with the same header
and accounting.  The C tokeniser is also held to ``float`` token by
token: a table of awkward spellings, 100k random doubles written by
``repr``, and the spellings it must hand back to the line-by-line path.
The laziness tests pin that ``stream_windows`` never reports a fault
from a row past a reached ``max_windows`` quota, even when that row was
read in the same block.
"""

from __future__ import annotations

import gzip
import random
import struct
import tracemalloc

import numpy as np
import pytest

from oracle_swf import oracle_iter_swf_jobs, oracle_write_swf
from repro.eval.windows import stream_windows, workload_fingerprint
from repro.obs import MetricsRegistry, use_registry
from repro.sim import _cbackend
from repro.sim.job import Workload
from repro.workloads import swf
from repro.workloads.swf import (
    SwfAccounting,
    SwfStream,
    iter_swf_blocks,
    open_swf,
    parse_swf_text,
    write_swf,
)
from repro.workloads.traces import synthetic_trace

FIXTURE = "tests/data/ctc_tiny.swf"

_SPECIAL = ["-1", "0", "-0", "nan", "inf", "-inf", "1e400", "+5", "1.", ".5"]
_GARBLED = ["1_0", "0x10", "abc", "١٢", "５", "1e", "5;"]
_HEADER = ["; MaxProcs: 64", ";Computer: fuzz", "; note", "  ; MaxNodes: 8", ";"]


def _token(rng, garble: float) -> str:
    """One field: mostly numbers, some specials, rarely garbage."""
    u = rng.random()
    if u < garble:
        return rng.choice(_GARBLED)
    if u < 0.2:
        return rng.choice(_SPECIAL)
    if u < 0.6:
        return str(rng.randint(-2, 300))
    return repr(rng.uniform(-1.0, 1e5))


def _row(rng, submit: float, garble: float) -> str:
    """A data row whose classifier fields hit every rule's branches."""
    fields = [_token(rng, garble) for _ in range(18)]
    fields[1] = (
        repr(submit) if rng.random() < 0.9 else rng.choice(["-1", "-0", "nan", "inf", "-inf"])
    )
    fields[3] = rng.choice(["0", "-0", "5", "-1", "2.5", "nan", "1e400"])
    fields[4] = rng.choice(["-1", "0", "2", "7", "inf", "-inf", "nan"])
    fields[7] = rng.choice(["-1", "0", "4", "nan", "3", "inf", "-inf"])
    fields[8] = rng.choice(["-1", "0", "0.5", "100", "inf"])
    fields[10] = rng.choice(["0", "1", "5", "-1", "nan", "1.0"])
    if rng.random() < 0.01:  # 8-20 fields instead of 18
        n = rng.randint(8, 20)
        fields = (fields + [_token(rng, garble) for _ in range(2)])[:n]
    sep = " " if rng.random() < 0.8 else "\t "
    line = sep.join(fields)
    if rng.random() < 0.1:
        line = "  " + line + " \t"
    return line


def _case(rng) -> tuple[str, bool]:
    """One SWF document (mixed line ends) and a ``keep_failed`` setting."""
    garble = rng.choice([0.0, 0.0, 0.0, 0.001, 0.01])
    n_lines = rng.randint(0, 39)
    lines = [rng.choice(_HEADER) for _ in range(rng.randint(0, 3))]
    submit = 0.0
    for _ in range(n_lines):
        u = rng.random()
        if u < 0.05:
            lines.append("" if rng.random() < 0.5 else " \t ")
        elif u < 0.08:
            lines.append(rng.choice(_HEADER))
        else:
            submit += rng.choice([0.0, 1.0, 0.25, 17.0])
            lines.append(_row(rng, submit, garble))
    ending = rng.choice(["\n", "\r\n"])
    if rng.random() < 0.2:  # a CRLF file with some bare-LF lines
        text = "".join(line + rng.choice(["\n", "\r\n"]) for line in lines)
    else:
        text = "".join(line + ending for line in lines)
    return text, rng.random() < 0.5


def _block_rows(source, **kwargs):
    """The rows of the job blocks :func:`iter_swf_blocks` yields, in order."""
    for block in iter_swf_blocks(source, **kwargs):
        yield from block.tolist()


def _outcome(reader, source, keep_failed):
    """Rows (packed bit for bit), error text, header and counters of a pass."""
    acc = SwfAccounting()
    rows = []
    error = None
    try:
        for job in reader(source, keep_failed=keep_failed, accounting=acc):
            rows.append(struct.pack("<5d", *job))
    except ValueError as exc:
        error = str(exc)
    counts = (acc.dropped, acc.filtered, acc.zero_runtime, acc.yielded)
    return rows, error, list(acc.header.items()), counts


KERNEL = _cbackend.load()

needs_c = pytest.mark.skipif(KERNEL is None, reason="no C toolchain on this host")


def _count_hits(monkeypatch, name: str) -> list[int]:
    """Count the blocks (and their rows) the tokeniser ``swf.<name>`` accepts."""
    hits = []
    original = getattr(swf, name)

    def counted(*args):
        mat = original(*args)
        if mat is not None:
            hits.append(len(mat))
        return mat

    monkeypatch.setattr(swf, name, counted)
    return hits


@pytest.fixture
def c_hits(monkeypatch):
    """Count the blocks the C tokeniser accepted."""
    return _count_hits(monkeypatch, "_c_block")


@pytest.fixture
def loadtxt_hits(monkeypatch):
    """Count the blocks the ``np.loadtxt`` path tokenised."""
    return _count_hits(monkeypatch, "_loadtxt_block")


class TestParseFuzz:
    """Block path == per-line oracle on seeded garbled SWF content."""

    N_CASES = 2000

    def _fuzz(self, block, monkeypatch, hits):
        monkeypatch.setattr(swf, "_BLOCK_LINES", block)
        rng = random.Random(20261018 + block)
        n_errors = 0
        for case in range(self.N_CASES):
            text, keep_failed = _case(rng)
            # text (split by splitlines) and a line iterable keeping its
            # line ends, as a file handle yields them
            for source in (text, text.splitlines(keepends=True)):
                want = _outcome(oracle_iter_swf_jobs, source, keep_failed)
                got = _outcome(_block_rows, source, keep_failed)
                assert got == want, (case, keep_failed, text)
            n_errors += want[1] is not None
            rows = np.array(
                [struct.unpack("<5d", r) for r in want[0]], dtype=float
            ).reshape(-1, 5)
            if want[1] is None and np.isfinite(rows).all():
                # the batch reader runs on the same blocks
                wl = parse_swf_text(text, keep_failed=keep_failed)
                expected = _workload(
                    rows[:, 1], rows[:, 2], rows[:, 3].astype(np.int64),
                    rows[:, 4], rows[:, 0].astype(np.int64),
                )
                assert workload_fingerprint(wl) == workload_fingerprint(expected)
                assert wl.extra["dropped"] == want[3][0]
        # the fuzz reaches both outcomes and the block tokeniser
        assert 0.05 * self.N_CASES < n_errors < 0.6 * self.N_CASES
        assert len(hits) > self.N_CASES // 4

    @needs_c
    @pytest.mark.parametrize("block", [1, 3, swf._BLOCK_LINES])
    def test_seeded_fuzz(self, block, monkeypatch, c_hits):
        monkeypatch.setenv("REPRO_SIM_KERNEL", "c")
        self._fuzz(block, monkeypatch, c_hits)

    @pytest.mark.parametrize("block", [swf._BLOCK_LINES])
    def test_seeded_fuzz_without_c(self, block, monkeypatch, loadtxt_hits):
        """The ``np.loadtxt`` path, which runs when C is not selected."""
        monkeypatch.setenv("REPRO_SIM_KERNEL", "python")
        self._fuzz(block, monkeypatch, loadtxt_hits)

    def test_broken_gzip_stream_fuzz(self, tmp_path, monkeypatch):
        monkeypatch.setattr(swf, "_BLOCK_LINES", 64)
        rng = np.random.default_rng(7)
        text = open(FIXTURE, encoding="utf-8").read()
        data = gzip.compress(text.encode(), mtime=0)
        path = tmp_path / "cut.swf.gz"
        for _ in range(60):
            cut = bytearray(data[: int(rng.integers(10, len(data)))])
            if rng.random() < 0.3:
                cut = bytearray(data)
                cut[int(rng.integers(10, len(data) - 8))] ^= 0xFF
            path.write_bytes(bytes(cut))
            for keep_failed in (True, False):
                with open_swf(path) as fh:
                    want = _outcome(oracle_iter_swf_jobs, fh, keep_failed)
                with open_swf(path) as fh:
                    got = _outcome(_block_rows, fh, keep_failed)
                assert got == want


def _bits(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


def _same_outcome(source, keep_failed=True) -> None:
    """The block path reads *source* as the per-line oracle does."""
    want = _outcome(oracle_iter_swf_jobs, source, keep_failed)
    assert _outcome(_block_rows, source, keep_failed) == want


@needs_c
class TestCTokeniser:
    """``repro_swf_rows`` gives ``float``'s bits, or hands the block back
    to the line-by-line tokeniser."""

    @pytest.fixture(autouse=True)
    def _c_selected(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_KERNEL", "c")

    @staticmethod
    def _rows(tokens: list[str]) -> np.ndarray | None:
        """The C tokeniser's rows of *tokens*, 18 to a line."""
        lines = [" ".join(tokens[i : i + 18]) for i in range(0, len(tokens), 18)]
        return swf._c_block(lines, KERNEL)

    SPELLINGS = [
        "-0", "+0", "+5", "1.", ".5", "-.5e-3", "1E5", "1e+5",
        "1e400", "-1e400", "1e-400", "-1e-400", "1e99999999999999999999",
        "5e-324", "2.4703282292062328e-324", "2.2250738585072011e-308",
        "inf", "-Infinity", "+INF", "iNfInItY", "NaN", "-nan", "+nan",
        "999999999999999", "-999999999999999", "1000000000000000",
        "9007199254740993", "-9007199254740993", "0000000000000000000001",
        "123456789012345678901234567890", "0.1", "17.000000000000001",
        "1" * 63, "1e22", "1e23", "1e-22", "1e-23", "9007199254740992e-22",
        "9007199254740993e-22", "9007199254740992e22", "4.35e-7", "-0.0e5",
        "1e0000001", "123456789012345678e-5", "0.000000000000000000001",
    ]

    @pytest.mark.parametrize("token", SPELLINGS)
    def test_spellings(self, token):
        rows = self._rows([token] * 18)
        assert rows is not None and rows.shape == (1, 18)
        assert _bits(rows) == _bits([float(token)] * 18)

    def test_random_doubles_by_repr(self):
        """100k random bit patterns (NaNs, infinities and subnormals
        among them) written by ``repr``; then the short decimals of the
        ``w * 10^q`` fast path and its edges: times as ``write_swf``
        writes them, integers of 1-19 digits, and ``w`` near 2^53 with
        ``q`` near +-22."""
        rng = np.random.default_rng(38)
        n = 18 * 1000
        bits = rng.integers(0, 2**64, 18 * 5556, dtype=np.uint64)
        tokens = [repr(x) for x in bits.view(np.float64).tolist()]
        times = rng.uniform(0, 1e6, n) * rng.choice([1e-9, 1e-3, 1.0, 1e9], n)
        places = rng.integers(0, 12, n)
        tokens += [repr(round(x, k)) for x, k in zip(times.tolist(), places.tolist())]
        for d in rng.integers(1, 20, n).tolist():
            sign = int(rng.choice([-1, 1]))
            tokens.append(str(sign * int(rng.integers(0, 10**d, dtype=np.uint64))))
        w = 2**53 + rng.integers(-3, 4, n // 2)
        q = rng.integers(-25, 26, n // 2)
        tokens += [f"{a}e{b}" for a, b in zip(w.tolist(), q.tolist())]
        whole = rng.integers(0, 2**50, n // 2)
        frac = rng.integers(0, 1000, n // 2)
        tokens += [f"{a}.{b:03d}" for a, b in zip(whole.tolist(), frac.tolist())]
        step = 18 * swf._BLOCK_LINES
        for lo in range(0, len(tokens), step):
            chunk = tokens[lo : lo + step]
            rows = self._rows(chunk)
            assert rows is not None and rows.size == len(chunk)
            assert _bits(rows.ravel()) == _bits([float(t) for t in chunk])

    @pytest.mark.parametrize(
        "token",
        ["0x10", "1_0", "\uff15", "\u0661", "1\u00a0", "\ud800", "1" * 64,
         "0." + "1" * 62, "1e", "e5", ".", "+", "-", "+-1", "1.5.", "1e+", ".e1",
         "nan(1)", "infinit", "infinityy", "1,5", "5;", "1\x0b"],
    )
    def test_rejected_tokens_go_line_by_line(self, token):
        assert self._rows([token] + ["1"] * 17) is None
        row = " ".join(["2"] + ["1"] * 16 + [token])
        _same_outcome(row + "\n")
        _same_outcome([row + "\n"])

    @pytest.mark.parametrize("n_fields", [11, 17, 19])
    def test_other_field_counts_go_line_by_line(self, n_fields):
        row = " ".join(["3"] * n_fields)
        assert swf._c_block([row], KERNEL) is None
        _same_outcome(f"{row}\n{row}\n")

    @pytest.mark.parametrize("sep", ["\t", "\r", " \t", "\t\r ", " \r\n "])
    def test_tab_and_cr_separated_fields(self, sep):
        tokens = ["7", "12.5", "-1", "30.25"] + ["1"] * 14
        line = sep.join(tokens)
        rows = swf._c_block([line, "  " + line + sep], KERNEL)
        assert rows is not None and _bits(rows) == _bits([[float(t) for t in tokens]] * 2)
        _same_outcome([line + "\n", line + "\r\n"])
        _same_outcome(line + "\n" + line + "\r\n")

    def test_a_line_holding_a_newline_or_nul_stays_one_line(self):
        row = " ".join(["4"] * 18)
        for line in (row + "\n" + row, row + "\0" + row):
            assert swf._c_block([line], KERNEL) is None
            _same_outcome([line])

    def test_blank_lines_and_empty_blocks(self):
        assert swf._c_block(["", " \t", "\r\n"], KERNEL).shape == (0, 18)
        assert swf._c_block(["", " 5" * 18, ""], KERNEL).shape == (1, 18)


class TestLinesByLineCounter:
    """``workloads.swf.lines_by_line`` counts the lines that missed the
    block tokeniser, and never changes a result."""

    @staticmethod
    def _counted(text: str) -> tuple[int, str]:
        registry = MetricsRegistry()
        with use_registry(registry):
            wl = parse_swf_text(text)
        return registry.value("workloads.swf.lines_by_line"), workload_fingerprint(wl)

    def test_header_interleaved_comments_and_odd_fields(self):
        wl = synthetic_trace("ctc_sp2", seed=3, n_jobs=40)
        lines = write_swf(wl).splitlines()
        n_header = sum(line.startswith(";") for line in lines)
        clean = "\n".join(lines)
        n, fingerprint = self._counted(clean)
        assert n == n_header
        assert fingerprint == workload_fingerprint(parse_swf_text(clean))
        # a comment after row 10: the rows up to it go line by line
        commented = lines[: n_header + 10] + ["; note"] + lines[n_header + 10 :]
        assert self._counted("\n".join(commented)) == (n_header + 11, fingerprint)
        # a non-ASCII field sends its whole block line by line
        # (a job id in full-width digits, which float() reads)
        odd = lines[:-1] + ["\uff19 " + lines[-1].split(" ", 1)[1]]
        n, _ = self._counted("\n".join(odd))
        assert n == len(odd)


class TestBlockLaziness:
    """Faults past a reached ``max_windows`` quota stay unread, as they
    did when rows were read one at a time."""

    GOOD = 12  # two 5-job windows, two more jobs before the fault

    def _write(self, tmp_path, fault: str):
        wl = synthetic_trace("ctc_sp2", seed=5, n_jobs=self.GOOD + 3)
        text = write_swf(wl).splitlines()
        n_header = sum(line.startswith(";") for line in text)
        rows = text[n_header + self.GOOD :]
        if fault == "garbled":
            rows[0] = "this row is garbled"
        elif fault == "oversize":
            fields = rows[0].split()
            fields[4] = fields[7] = "100000"
            rows[0] = " ".join(fields)
        else:  # unsorted
            fields = rows[0].split()
            fields[1] = "0"
            rows[0] = " ".join(fields)
        path = tmp_path / f"{fault}.swf"
        path.write_text("\n".join(text[: n_header + self.GOOD] + rows) + "\n")
        return path, wl

    @pytest.mark.parametrize("fault", ["garbled", "oversize", "unsorted"])
    def test_job_window_quota_stops_before_the_fault(self, tmp_path, fault):
        path, wl = self._write(tmp_path, fault)
        stream = SwfStream(path)
        kwargs = {"jobs": 5, "name": stream.name, "nmax": stream.machine_size}
        windows = list(stream_windows(stream.blocks(), max_windows=2, **kwargs))
        clean = list(stream_windows(wl, jobs=5, max_windows=2))
        assert [w.fingerprint() for w in windows] == [w.fingerprint() for w in clean]
        with pytest.raises(ValueError):  # the fault is real past the quota
            list(stream_windows(SwfStream(path).blocks(), max_windows=3, **kwargs))

    @pytest.mark.parametrize("fault", ["garbled", "oversize", "unsorted"])
    def test_time_window_quota_stops_before_the_fault(self, tmp_path, fault):
        path, wl = self._write(tmp_path, fault)
        stream = SwfStream(path)
        # the first window closes when the second window's first job
        # arrives; the fault sits after that job
        seconds = float(wl.submit[1] - wl.submit[0]) + 1e-3
        kwargs = {"seconds": seconds, "min_jobs": 1, "nmax": stream.machine_size}
        (window,) = stream_windows(stream.blocks(), max_windows=1, **kwargs)
        assert window.n_jobs >= 1
        with pytest.raises(ValueError):  # the fault is real past the quota
            list(stream_windows(SwfStream(path).blocks(), **kwargs))

    def test_truncated_gz_mid_block_names_the_line(self, tmp_path):
        wl = synthetic_trace("ctc_sp2", seed=2, n_jobs=3 * swf._BLOCK_LINES)
        data = gzip.compress(write_swf(wl).encode(), mtime=0)
        path = tmp_path / "trunc.swf.gz"
        path.write_bytes(data[: len(data) // 2])
        with open_swf(path) as fh:
            want = _outcome(oracle_iter_swf_jobs, fh, True)
        assert want[1] is not None and want[0]  # it breaks mid-file
        stream = SwfStream(path)
        got_rows = []
        with pytest.raises(ValueError) as exc:
            for block in stream.blocks():
                got_rows.extend(struct.pack("<5d", *r) for r in block.tolist())
        assert str(exc.value) == want[1]
        assert got_rows == want[0]


def _workload(submit, runtime, size, estimate, job_ids, nmax=0):
    return Workload(
        submit=np.asarray(submit, dtype=float),
        runtime=np.asarray(runtime, dtype=float),
        size=np.asarray(size),
        estimate=np.asarray(estimate, dtype=float),
        job_ids=np.asarray(job_ids),
        name="pin",
        nmax=nmax,
    )


class TestWriteSwfBytes:
    """The columnar writer prints the bytes of the per-row loop."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_seeded_workloads(self, seed):
        wl = synthetic_trace("ctc_sp2", seed=seed, n_jobs=3000)
        assert write_swf(wl) == oracle_write_swf(wl)

    def test_awkward_values(self):
        wl = _workload(
            submit=[-0.0, 0.5, 1e16, 1e16, 2.5e17, 3e20],
            runtime=[1.0, 0.1, 1e16 + 2.0, 12345.678, 1e-7, 7.0],
            size=[1, 2**40, 3, 4, 5, 6],
            estimate=[1.0, 1.5, 1e22, 1.0000000000000002, 3.0, 5e-324 + 1.0],
            job_ids=[0, -1, 2**53 + 1, 3, 4, 5],
            nmax=2**41,
        )
        assert write_swf(wl, header={"Note": "x"}) == oracle_write_swf(
            wl, header={"Note": "x"}
        )

    def test_empty_workload(self):
        wl = _workload([], [], [], [], [])
        assert write_swf(wl) == oracle_write_swf(wl) == "; Computer: pin\n"

    def test_gz_path(self, tmp_path):
        wl = synthetic_trace("ctc_sp2", seed=4, n_jobs=500)
        write_swf(wl, tmp_path / "new.swf.gz")
        oracle_write_swf(wl, tmp_path / "old.swf.gz")
        new = (tmp_path / "new.swf.gz").read_bytes()
        assert new == (tmp_path / "old.swf.gz").read_bytes()

    @pytest.mark.parametrize("header", [None, {"Note": "x", "MaxProcs": "7"}])
    @pytest.mark.parametrize(
        "n_jobs",
        [0, 1, swf._BLOCK_LINES - 1, swf._BLOCK_LINES, swf._BLOCK_LINES + 1,
         2 * swf._BLOCK_LINES],
    )
    def test_block_boundaries(self, tmp_path, n_jobs, header):
        """The text, the plain file and the gzip file, at every block edge."""
        wl = synthetic_trace("ctc_sp2", seed=6, n_jobs=2 * swf._BLOCK_LINES)
        wl = wl.select(np.arange(n_jobs))
        want = oracle_write_swf(wl, header=header)
        assert write_swf(wl, header=header) == want
        for name in ("t.swf", "t.swf.gz"):
            assert write_swf(wl, tmp_path / f"new-{name}", header=header) is None
            oracle_write_swf(wl, tmp_path / f"old-{name}", header=header)
            new = (tmp_path / f"new-{name}").read_bytes()
            assert new == (tmp_path / f"old-{name}").read_bytes(), name


class TestWriteSwfMemory:
    """Writing to a file holds one block, whatever the trace length."""

    @staticmethod
    def _peak(wl: Workload, path) -> int:
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            write_swf(wl, path)
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("name", ["t.swf", "t.swf.gz"])
    def test_peak_does_not_grow_with_the_trace(self, tmp_path, name):
        wl = synthetic_trace("ctc_sp2", seed=7, n_jobs=120_000)
        half = self._peak(wl.select(np.arange(60_000)), tmp_path / name)
        full = self._peak(wl, tmp_path / name)
        # the whole 60k-job text alone is ~4.6 MB
        assert half < 2 * 2**20
        assert full < 1.1 * half


class TestMachineSize:
    """Unusable ``MaxProcs`` values fall through to ``MaxNodes``, then 0."""

    @pytest.mark.parametrize("value", ["inf", "1e400", "-64", "0", "nan", "0.5", "x"])
    def test_unusable_maxprocs_falls_through(self, value):
        assert SwfAccounting(header={"MaxProcs": value}).machine_size() == 0
        header = {"MaxProcs": value, "MaxNodes": "128"}
        assert SwfAccounting(header=header).machine_size() == 128

    def test_usable_values(self):
        assert SwfAccounting(header={"MaxProcs": "338"}).machine_size() == 338
        assert SwfAccounting(header={"MaxProcs": "64.0"}).machine_size() == 64
        assert SwfAccounting(header={"MaxNodes": "1"}).machine_size() == 1

    def test_stream_of_a_negative_header_reads_unknown(self, tmp_path):
        path = tmp_path / "neg.swf"
        path.write_text("; MaxProcs: -64\n1 0 -1 10 2 -1 -1 2 20 -1 1 -1 -1 -1 -1 -1 -1 -1\n")
        assert SwfStream(path).machine_size == 0
        assert swf.read_swf(path).nmax == 0
