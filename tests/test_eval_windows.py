"""Tests for repro.eval.windows (trace slicing invariants)."""

import dataclasses

import numpy as np
import pytest
from oracle_windows import oracle_slice_windows

from repro.eval.windows import (
    Window,
    slice_windows,
    stream_windows,
    workload_fingerprint,
)
from repro.sim.job import Workload
from repro.workloads.lublin import lublin_workload
from repro.workloads.traces import synthetic_trace


@pytest.fixture(scope="module")
def trace():
    return synthetic_trace("ctc_sp2", n_jobs=230, seed=3)


class TestJobWindows:
    def test_partition_except_short_tail(self, trace):
        ws = slice_windows(trace, jobs=50)
        # 230 jobs -> 4 full windows + a 30-job tail window (>= min_jobs)
        assert [w.n_jobs for w in ws] == [50, 50, 50, 50, 30]
        covered = np.concatenate([w.workload.job_ids for w in ws])
        assert len(covered) == len(trace)

    def test_short_tail_dropped(self, trace):
        ws = slice_windows(trace, jobs=50, min_jobs=40)
        assert [w.n_jobs for w in ws] == [50, 50, 50, 50]

    def test_windows_rebased_and_ordered(self, trace):
        ws = slice_windows(trace, jobs=50)
        for w in ws:
            assert w.workload.submit[0] == 0.0
        t0s = [w.t0 for w in ws]
        assert t0s == sorted(t0s)
        assert all(b > a for a, b in zip(t0s, t0s[1:]))

    def test_windows_disjoint_in_trace_order(self, trace):
        ws = slice_windows(trace, jobs=50)
        ids = [set(w.workload.job_ids.tolist()) for w in ws]
        for a in range(len(ids)):
            for b in range(a + 1, len(ids)):
                assert not (ids[a] & ids[b])

    def test_warmup_trimming(self, trace):
        ws = slice_windows(trace, jobs=50, warmup=10)
        assert all(w.warmup == 10 for w in ws)
        assert all(w.n_scored == w.n_jobs - 10 for w in ws)

    def test_warmup_swallows_window(self, trace):
        with pytest.raises(ValueError, match="leaves nothing after warmup"):
            slice_windows(trace, jobs=8, warmup=8)

    def test_max_windows_truncates(self, trace):
        ws = slice_windows(trace, jobs=50, max_windows=2)
        assert [w.index for w in ws] == [0, 1]

    def test_naming(self, trace):
        ws = slice_windows(trace, jobs=100)
        assert ws[0].workload.name == f"{trace.name}[w0]"
        assert ws[1].workload.name == f"{trace.name}[w1]"


class TestTimeWindows:
    def test_durations_respected(self, trace):
        seconds = trace.span / 4 + 1.0
        ws = slice_windows(trace, seconds=seconds)
        assert len(ws) >= 2
        for w in ws:
            assert w.workload.span < seconds + 1e-9

    def test_all_jobs_covered_when_dense(self):
        wl = lublin_workload(400, nmax=64, seed=1)
        ws = slice_windows(wl, seconds=wl.span / 3 + 1.0, min_jobs=1)
        covered = sum(w.n_jobs for w in ws)
        assert covered == len(wl)

    def test_sparse_epochs_skipped(self):
        # two dense bursts separated by a dead epoch
        submit = np.concatenate([np.linspace(0, 10, 20), np.linspace(1000, 1010, 20)])
        wl = lublin_workload(40, nmax=64, seed=2)
        wl = type(wl)(
            submit=submit,
            runtime=wl.runtime,
            size=wl.size,
            estimate=wl.estimate,
            job_ids=np.arange(40),
            nmax=64,
        )
        ws = slice_windows(wl, seconds=100.0)
        assert len(ws) == 2
        assert all(w.n_jobs == 20 for w in ws)


class TestValidation:
    def test_exactly_one_axis(self, trace):
        with pytest.raises(ValueError, match="exactly one"):
            slice_windows(trace, jobs=10, seconds=100.0)
        with pytest.raises(ValueError, match="exactly one"):
            slice_windows(trace)

    def test_empty_workload_rejected(self, trace):
        empty = trace.select(np.zeros(len(trace), dtype=bool))
        with pytest.raises(ValueError, match="empty"):
            slice_windows(empty, jobs=10)

    def test_negative_warmup_rejected(self, trace):
        with pytest.raises(ValueError, match="warmup"):
            slice_windows(trace, jobs=10, warmup=-1)

    @pytest.mark.parametrize(
        "warmup, error", [(2.5, TypeError), (True, TypeError), (-1, ValueError)]
    )
    def test_warmup_must_be_a_non_negative_integer(self, trace, warmup, error):
        with pytest.raises(error, match="warmup must be"):
            slice_windows(trace, jobs=10, warmup=warmup)
        with pytest.raises(error, match="warmup must be"):
            stream_windows(iter(()), seconds=10.0, warmup=warmup)

    def test_job_larger_than_the_workloads_machine_rejected(self, trace):
        # The workload's own nmax is the machine every window is checked
        # against, as for a streamed file; nmax=0 (unknown) checks nothing.
        sizes = trace.size.copy()
        sizes[7] = trace.nmax + 1
        big = dataclasses.replace(trace, size=sizes)
        with pytest.raises(
            ValueError,
            match=rf"job {int(big.job_ids[7])} needs {trace.nmax + 1} cores"
            rf" but the machine has only {trace.nmax}$",
        ):
            slice_windows(big, jobs=50)
        assert len(slice_windows(dataclasses.replace(big, nmax=0), jobs=50)) == 5

    def test_window_warmup_guard(self, trace):
        ws = slice_windows(trace, jobs=50)
        with pytest.raises(ValueError, match="no.*scored|leaves no"):
            Window(index=0, workload=ws[0].workload, warmup=50, t0=0.0)


class TestFingerprint:
    def test_depends_only_on_arrays(self, trace):
        renamed = trace.with_name("something else")
        assert workload_fingerprint(trace) == workload_fingerprint(renamed)

    def test_sensitive_to_content(self, trace):
        bumped = trace.with_estimates(trace.estimate * 2.0)
        assert workload_fingerprint(trace) != workload_fingerprint(bumped)

    def test_window_fingerprint_includes_warmup(self, trace):
        a = slice_windows(trace, jobs=50)[0]
        b = slice_windows(trace, jobs=50, warmup=5)[0]
        assert a.fingerprint() != b.fingerprint()


class TestStreamWindows:
    """Lazy slicing must cut the windows of the frozen batch slicer
    (``tests/oracle_windows.py``) — identical fingerprints mean
    identical per-cell cache keys."""

    FIXTURE = "tests/data/ctc_tiny.swf"

    @staticmethod
    def _fingerprints(windows):
        return [(w.index, w.t0, w.workload.name, w.fingerprint()) for w in windows]

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"jobs": 50},
            {"jobs": 50, "warmup": 5},
            {"jobs": 30, "max_windows": 3},
            {"jobs": 50, "min_jobs": 45},
        ],
    )
    def test_job_window_parity_with_slice(self, kwargs):
        from repro.workloads.swf import read_swf

        wl = read_swf(self.FIXTURE)
        batch = oracle_slice_windows(wl, **kwargs)
        lazy = list(stream_windows(wl, **kwargs))
        assert self._fingerprints(batch) == self._fingerprints(lazy)

    def test_time_window_parity_with_slice(self):
        from repro.workloads.swf import read_swf

        wl = read_swf(self.FIXTURE)
        seconds = wl.span / 7 + 1.0
        batch = oracle_slice_windows(wl, seconds=seconds, min_jobs=1)
        lazy = list(stream_windows(wl, seconds=seconds, min_jobs=1))
        assert self._fingerprints(batch) == self._fingerprints(lazy)

    def test_parity_from_file_stream(self):
        from repro.workloads.swf import SwfStream, read_swf

        wl = read_swf(self.FIXTURE)
        batch = oracle_slice_windows(wl, jobs=50, warmup=5)
        stream = SwfStream(self.FIXTURE)
        lazy = list(
            stream_windows(
                stream.blocks(),
                jobs=50,
                warmup=5,
                name=stream.name,
                nmax=stream.machine_size,
            )
        )
        assert self._fingerprints(batch) == self._fingerprints(lazy)
        assert all(w.workload.nmax == wl.nmax for w in lazy)

    def test_max_windows_stops_consuming_the_source(self, trace):
        seen = []

        def blocks():
            for block in trace.blocks(1):  # one job per block
                seen.append(block)
                yield block

        ws = list(stream_windows(blocks(), jobs=50, max_windows=2, name=trace.name))
        assert [w.index for w in ws] == [0, 1]
        # exactly the two windows' jobs were pulled; the rest never left disk
        assert len(seen) == 100

    @pytest.mark.parametrize("kwargs", [{"jobs": 2000}, {"seconds": 20000.0}])
    def test_workload_is_read_a_block_at_a_time(self, kwargs):
        # 60k jobs as one (n, 5) block would be 2.3 MiB on their own.
        import tracemalloc

        wl = _workload(np.cumsum(np.random.default_rng(0).uniform(0, 60, 60_000)))
        tracemalloc.start()
        try:
            n_windows = sum(1 for _ in stream_windows(wl, **kwargs))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert n_windows >= 30
        assert peak < 1 << 20

    def test_lazy_yielding(self, trace):
        gen = stream_windows(trace, jobs=50)
        first = next(gen)
        assert first.index == 0
        assert first.workload.name == f"{trace.name}[w0]"

    def test_out_of_order_stream_rejected(self):
        block = np.array([
            [0, 10.0, 5.0, 1, 5.0],
            [1, 3.0, 5.0, 1, 5.0],
        ])
        with pytest.raises(ValueError, match="submit-sorted"):
            list(stream_windows(iter([block]), jobs=2, min_jobs=1))

    def test_empty_stream_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            list(stream_windows(iter(()), jobs=10))

    def test_validation_is_eager(self, trace):
        # bad parameters raise at call time, not at first consumption
        with pytest.raises(ValueError, match="exactly one"):
            stream_windows(trace, jobs=10, seconds=100.0)
        with pytest.raises(ValueError, match="leaves nothing after warmup"):
            stream_windows(trace, jobs=8, warmup=8)

    def test_warmup_and_scoring_accounting(self, trace):
        ws = list(stream_windows(trace, jobs=50, warmup=10))
        assert all(w.warmup == 10 for w in ws)
        assert all(w.n_scored == w.n_jobs - 10 for w in ws)

    def test_oversized_job_in_dropped_tail_still_rejected(self, trace):
        # the matrix validates a whole workload before slicing; the
        # stream must catch an oversized job even when its window would
        # be dropped as a too-short tail
        bad_sizes = trace.size.copy()
        bad_sizes[-1] = 10_000  # lands in the dropped 1-job tail below
        bad = dataclasses.replace(trace, size=bad_sizes)
        gen = stream_windows(bad, jobs=len(bad) - 1, nmax=trace.nmax)
        with pytest.raises(ValueError, match="needs 10000 cores"):
            list(gen)

    def test_nmax_zero_skips_job_validation(self, trace):
        # unknown machine size: validation is the matrix's job, not ours
        ws = list(stream_windows(trace, jobs=50, nmax=0))
        assert len(ws) > 0

    def test_sparse_gap_fast_forward_matches_slice(self):
        # a huge idle gap spans ~100k empty slots; the stream must jump
        # them, and land in exactly the slots searchsorted would pick
        submit = np.concatenate(
            [np.linspace(0.0, 9.0, 20), np.linspace(1.0e5, 1.0e5 + 9.0, 20)]
        )
        wl = lublin_workload(40, nmax=64, seed=2)
        wl = type(wl)(
            submit=submit,
            runtime=wl.runtime,
            size=wl.size,
            estimate=wl.estimate,
            job_ids=np.arange(40),
            nmax=64,
        )
        batch = oracle_slice_windows(wl, seconds=1.0, min_jobs=1)
        lazy = list(stream_windows(wl, seconds=1.0, min_jobs=1))
        assert self._fingerprints(batch) == self._fingerprints(lazy)


def _workload(submit, nmax=64, seed=0):
    """A workload over *submit* with small random jobs that fit *nmax*."""
    rng = np.random.default_rng(seed)
    n = len(submit)
    runtime = rng.uniform(1.0, 500.0, n)
    return Workload(
        submit=np.asarray(submit, dtype=float),
        runtime=runtime,
        size=rng.integers(1, nmax + 1, n),
        estimate=runtime * 2.0,
        job_ids=np.arange(n),
        nmax=nmax,
    )


def _outcome(slicer):
    """``(index, t0, fingerprint)`` per window, or the ValueError text."""
    try:
        return [(w.index, w.t0, w.fingerprint()) for w in slicer()]
    except ValueError as exc:
        return f"ValueError: {exc}"


def _agree(wl, kwargs):
    batch = _outcome(lambda: oracle_slice_windows(wl, **kwargs))
    lazy = _outcome(lambda: list(stream_windows(wl, **kwargs)))
    assert batch == lazy, kwargs


class TestSlicerAgreement:
    """stream_windows must cut the windows of the frozen batch slicer
    (``tests/oracle_windows.py``), which fixes the cut rule and so every
    window fingerprint and per-cell cache key."""

    def test_arrival_on_the_last_rounded_edge(self):
        # 90724 / 3.7 rounds just below 24520, but the rounded float edge
        # t0 + 24520 * 3.7 equals the last arrival, which therefore opens
        # its own slot.
        wl = _workload([1e9, 1e9 + 90721, 1e9 + 90724])
        windows = slice_windows(wl, seconds=3.7, min_jobs=1)
        assert [w.n_jobs for w in windows] == [1, 1, 1]
        _agree(wl, {"seconds": 3.7, "min_jobs": 1})

    def test_seeded_fuzz(self):
        rng = np.random.default_rng(20241018)
        for case in range(3000):
            n = int(rng.integers(0, 40))
            t0 = float(rng.choice([0.0, rng.uniform(0, 1e4), 1e9 + rng.integers(0, 10**6)]))
            gaps = rng.choice(
                [0.0, 1e-9, float(rng.integers(1, 300)), rng.uniform(0, 300)], size=n
            )
            submit = t0 + np.cumsum(np.concatenate([[0.0], gaps[1:]])) if n else gaps
            kwargs = {
                "warmup": int(rng.integers(0, 4)),
                "min_jobs": int(rng.integers(1, 4)),
                "max_windows": None if rng.random() < 0.5 else int(rng.integers(1, 6)),
            }
            if rng.random() < 0.4:
                kwargs["jobs"] = int(rng.integers(1, 15))
            else:
                seconds = float(
                    rng.choice([rng.integers(1, 600), round(rng.uniform(0.1, 100), 1)])
                )
                span = float(submit[-1] - submit[0]) if n else 0.0
                seconds = max(seconds, span / 1e5)
                kwargs["seconds"] = seconds
                if n and rng.random() < 0.5:
                    # Snap some arrivals onto rounded slot edges t0 + k*seconds.
                    snap = rng.random(n) < 0.3
                    k = np.round((submit - submit[0]) / seconds)
                    submit = np.where(snap, submit[0] + k * seconds, submit)
            _agree(_workload(submit, seed=case), kwargs)


    @pytest.mark.parametrize("kwargs", [{"jobs": 5}, {"seconds": 100.0, "min_jobs": 1}])
    def test_non_finite_swf_rows_are_dropped_before_either_slicer(self, tmp_path, kwargs):
        """An SWF row whose submit or size is ``inf``, ``-inf`` or ``nan``
        is dropped and counted by the reader, so the streamed file cuts
        the oracle's windows of the rest instead of failing on it."""
        from repro.workloads.swf import SwfStream, read_swf, write_swf

        lines = write_swf(_workload(np.arange(30) * 40.0)).splitlines()
        rows = [i for i, line in enumerate(lines) if not line.startswith(";")]
        bad = [
            (token, columns)
            for token in ("inf", "-inf", "nan")
            for columns in ((1,), (4, 7))  # submit; allocated and requested size
        ]
        for row, (token, columns) in zip(rows[3::4], bad):
            fields = lines[row].split()
            for column in columns:
                fields[column] = token
            lines[row] = " ".join(fields)
        path = tmp_path / "non_finite.swf"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")

        whole = read_swf(path)
        assert (len(whole), whole.extra["dropped"]) == (30 - len(bad), len(bad))
        stream = SwfStream(path)
        lazy = _outcome(
            lambda: list(
                stream_windows(
                    stream.blocks(), name=stream.name, nmax=stream.machine_size, **kwargs
                )
            )
        )
        batch = _outcome(lambda: oracle_slice_windows(whole, **kwargs))
        assert not isinstance(batch, str), batch
        assert lazy == batch


class TestBlockSource:
    """``(k, 5)`` job blocks cut into the same windows however the
    stream is split into blocks, and the checks see across block edges."""

    @staticmethod
    def _matrix(wl):
        return np.column_stack((wl.job_ids, wl.submit, wl.runtime, wl.size, wl.estimate))

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"jobs": 50, "warmup": 5},
            {"jobs": 7, "max_windows": 4},
            {"seconds": 3000.0, "min_jobs": 1},
            {"seconds": 700.0, "warmup": 1, "max_windows": 3},
        ],
    )
    def test_any_block_split_gives_the_same_windows(self, trace, kwargs):
        want = _outcome(lambda: list(stream_windows(trace, **kwargs)))
        mat = self._matrix(trace)
        rng = np.random.default_rng(11)
        for _ in range(30):
            # empty and one-row blocks included
            cuts = np.sort(rng.integers(0, len(mat) + 1, int(rng.integers(0, 12))))
            blocks = np.split(mat, cuts)
            got = _outcome(
                lambda: list(
                    stream_windows(iter(blocks), name=trace.name, nmax=trace.nmax, **kwargs)
                )
            )
            assert got == want, cuts

    def test_integer_block_cuts_the_float_blocks_windows(self, trace):
        mat = np.ceil(self._matrix(trace))  # whole numbers, still sorted
        kwargs = {"jobs": 50, "warmup": 5, "name": trace.name, "nmax": trace.nmax}
        want = _outcome(lambda: list(stream_windows(iter([mat]), **kwargs)))
        got = _outcome(lambda: list(stream_windows(iter([mat.astype(np.int64)]), **kwargs)))
        assert got == want

    @pytest.mark.parametrize("width", [4, 6])
    def test_block_of_the_wrong_width_rejected(self, width):
        block = np.tile([[0.0, 1.0, 5.0, 1.0, 5.0, 9.0]], (3, 1))[:, :width]
        block[:, 0] = np.arange(3)
        with pytest.raises(
            ValueError,
            match=r"job blocks with the 5 columns \(job_id, submit, runtime, size,"
            rf" estimate\), got a block of shape \(3, {width}\)",
        ):
            list(stream_windows(iter([block]), jobs=2, min_jobs=1))

    @pytest.mark.parametrize("width", [4, 5, 6])
    def test_rows_of_the_wrong_arity_rejected(self, width):
        # A stream holds job blocks only: a row tuple of any width, five
        # fields included, is named instead of failing on ``.ndim``.
        rows = [(float(k), float(k), 5.0, 1.0, 5.0, 0.0)[:width] for k in range(5)]
        with pytest.raises(
            ValueError,
            match=r"job blocks with the 5 columns \(job_id, submit, runtime, size,"
            r" estimate\), got a tuple",
        ):
            list(stream_windows(iter(rows), jobs=5, min_jobs=1))
        block = np.array([[0.0, 0.0, 5.0, 1.0, 5.0]])
        with pytest.raises(ValueError, match="got a tuple"):  # after a good block
            list(stream_windows(iter([block, rows[0]]), jobs=5, min_jobs=1))

    def test_out_of_order_across_a_block_edge(self):
        blocks = [np.array([[0, 10.0, 5.0, 1, 5.0]]), np.array([[1, 3.0, 5.0, 1, 5.0]])]
        with pytest.raises(ValueError, match="job 1 arrives at 3.0 after a job at 10.0"):
            list(stream_windows(iter(blocks), jobs=2, min_jobs=1))

    def test_first_fault_in_a_block_is_named(self, trace):
        mat = self._matrix(trace)
        mat[40, 3] = 10_000  # oversize
        mat[60, 1] = 0.0  # out of order
        with pytest.raises(ValueError, match=f"job {int(mat[40, 0])} needs 10000 cores"):
            list(stream_windows(iter([mat]), jobs=100, nmax=trace.nmax))
        mat[40, 3] = 1
        with pytest.raises(ValueError, match=f"job {int(mat[60, 0])} arrives at 0.0"):
            list(stream_windows(iter([mat]), jobs=100, nmax=trace.nmax))
