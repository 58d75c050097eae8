"""Tests for SWF parsing and serialisation."""

import gzip

import numpy as np
import pytest

from repro.sim.job import Workload
from repro.workloads.lublin import lublin_workload
from repro.workloads.swf import (
    ZERO_RUNTIME_EPSILON,
    SwfAccounting,
    SwfStream,
    iter_swf_jobs,
    open_swf,
    parse_swf_text,
    read_swf,
    write_swf,
)

SAMPLE = """\
; Computer: Test Machine
; MaxProcs: 128
; Note: synthetic sample
1 0 5 100 4 -1 -1 8 3600 -1 1 1 1 -1 1 -1 -1 -1
2 10 0 50 2 -1 -1 -1 -1 -1 1 1 1 -1 1 -1 -1 -1
3 20 0 -1 4 -1 -1 4 600 -1 0 1 1 -1 1 -1 -1 -1
4 30 0 25 0 -1 -1 0 -1 -1 5 1 1 -1 1 -1 -1 -1
"""


class TestParse:
    def test_header_metadata(self):
        wl = parse_swf_text(SAMPLE)
        assert wl.name == "Test Machine"
        assert wl.nmax == 128
        assert wl.extra["header"]["Note"] == "synthetic sample"

    def test_field_mapping(self):
        wl = parse_swf_text(SAMPLE)
        job1 = wl.select(wl.job_ids == 1)
        assert job1.submit[0] == 0.0
        assert job1.runtime[0] == 100.0
        assert job1.size[0] == 8  # requested procs preferred
        assert job1.estimate[0] == 3600.0

    def test_fallbacks(self):
        wl = parse_swf_text(SAMPLE)
        job2 = wl.select(wl.job_ids == 2)
        assert job2.size[0] == 2  # falls back to allocated procs
        assert job2.estimate[0] == 50.0  # falls back to runtime

    def test_invalid_jobs_dropped(self):
        wl = parse_swf_text(SAMPLE)
        # job 3: runtime -1; job 4: no procs at all -> both dropped
        assert set(wl.job_ids.tolist()) == {1, 2}
        assert wl.extra["dropped"] == 2

    def test_fractional_sizes_dropped_by_every_reader(self, tmp_path):
        """A size that is not a whole number is dropped and counted, never
        truncated: by the batch readers, a stream pass and the windows."""
        from repro.eval.windows import stream_windows

        text = (
            "; MaxProcs: 16\n"
            "1 0 -1 10 2.5 -1 -1 -1 20 -1 1\n"  # allocated 2.5, no request
            "2 1 -1 10 2 -1 -1 4 20 -1 1\n"
            "3 2 -1 10 8 -1 -1 0.5 20 -1 1\n"  # requested 0.5 wins over 8
            "4 3 -1 10 2 -1 -1 3.0 20 -1 1\n"  # 3.0 is whole
        )
        path = tmp_path / "fractional.swf"
        path.write_text(text)
        for wl in (parse_swf_text(text), read_swf(path)):
            assert wl.job_ids.tolist() == [2, 4]
            assert wl.size.tolist() == [4, 3]
            assert wl.extra["dropped"] == 2
        stream = SwfStream(path)
        (block,) = stream.blocks()
        assert block[:, 3].tolist() == [4.0, 3.0]
        assert stream.accounting.dropped == 2
        (window,) = stream_windows(SwfStream(path).blocks(), jobs=2, nmax=16)
        assert window.workload.size.tolist() == [4, 3]

    def test_keep_failed_filter(self):
        text = SAMPLE.replace("2 10 0 50 2 -1 -1 -1 -1 -1 1", "2 10 0 50 2 -1 -1 -1 -1 -1 0")
        wl = parse_swf_text(text, keep_failed=False)
        assert set(wl.job_ids.tolist()) == {1}

    def test_dropped_and_filtered_reported_separately(self):
        # job 2's status becomes 0 (failed): a *schedulable* row removed
        # by deliberate filtering, not an unschedulable one.
        text = SAMPLE.replace("2 10 0 50 2 -1 -1 -1 -1 -1 1", "2 10 0 50 2 -1 -1 -1 -1 -1 0")
        wl = parse_swf_text(text, keep_failed=False)
        assert wl.extra["dropped"] == 2  # jobs 3 and 4: unschedulable rows
        assert wl.extra["filtered"] == 1  # job 2: status-filtered

    def test_keep_failed_true_filters_nothing(self):
        wl = parse_swf_text(SAMPLE, keep_failed=True)
        assert wl.extra["filtered"] == 0
        assert wl.extra["dropped"] == 2

    def test_minus_one_markers_in_request_fields(self):
        # field 8 (req procs) = -1 -> size falls back to field 5;
        # field 9 (req time) = -1 -> estimate falls back to runtime.
        wl = parse_swf_text("9 0 0 120 6 -1 -1 -1 -1 -1 1\n")
        assert wl.size[0] == 6
        assert wl.estimate[0] == 120.0

    def test_eleven_field_line_padded(self):
        # the PWA allows truncated lines; missing trailing fields read -1
        wl = parse_swf_text("5 3 0 60 2 -1 -1 4 600 -1 1\n")
        assert len(wl) == 1
        assert wl.size[0] == 4
        assert wl.estimate[0] == 600.0

    def test_maxprocs_header_parsed(self):
        wl = parse_swf_text("; MaxProcs: 4096\n1 0 0 10 1 -1 -1 1 10 -1 1\n")
        assert wl.nmax == 4096

    def test_maxnodes_fallback_and_bad_maxprocs(self):
        text = "; MaxProcs: unknown\n; MaxNodes: 64\n1 0 0 10 1 -1 -1 1 10 -1 1\n"
        assert parse_swf_text(text).nmax == 64

    def test_short_line_rejected(self):
        with pytest.raises(ValueError, match="expected >= 11"):
            parse_swf_text("1 2 3\n")

    def test_non_numeric_rejected(self):
        with pytest.raises(ValueError, match="non-numeric"):
            parse_swf_text("1 0 x 100 4 -1 -1 8 3600 -1 1\n")

    def test_empty_text(self):
        wl = parse_swf_text("; Computer: empty\n")
        assert len(wl) == 0

    def test_blank_lines_ignored(self):
        wl = parse_swf_text("\n\n" + SAMPLE + "\n\n")
        assert len(wl) == 2


class TestZeroRuntime:
    """Completed sub-second jobs (runtime recorded as 0 — common in raw
    PWA traces) must be clamped and kept, not silently dropped."""

    COMPLETED_ZERO = "7 40 3 0 4 -1 -1 4 600 -1 1 -1 -1 -1 -1 -1 -1 -1"
    FAILED_ZERO = "8 50 3 0 4 -1 -1 4 600 -1 0 -1 -1 -1 -1 -1 -1 -1"

    def test_completed_zero_runtime_kept_and_clamped(self):
        wl = parse_swf_text(self.COMPLETED_ZERO + "\n")
        assert len(wl) == 1
        assert wl.runtime[0] == ZERO_RUNTIME_EPSILON
        assert wl.extra["zero_runtime"] == 1
        assert wl.extra["dropped"] == 0

    def test_failed_zero_runtime_still_dropped(self):
        wl = parse_swf_text(self.FAILED_ZERO + "\n")
        assert len(wl) == 0
        assert wl.extra["dropped"] == 1
        assert wl.extra["zero_runtime"] == 0

    def test_negative_runtime_never_clamped(self):
        wl = parse_swf_text(self.COMPLETED_ZERO.replace(" 3 0 ", " 3 -1 ") + "\n")
        assert len(wl) == 0
        assert wl.extra["dropped"] == 1

    def test_estimate_fallback_uses_clamped_runtime(self):
        # req time -1 -> estimate falls back to the *clamped* runtime.
        line = self.COMPLETED_ZERO.replace(" 600 ", " -1 ")
        wl = parse_swf_text(line + "\n")
        assert wl.estimate[0] == max(ZERO_RUNTIME_EPSILON, 1.0)

    def test_sample_without_zero_runtime_reports_zero(self):
        assert parse_swf_text(SAMPLE).extra["zero_runtime"] == 0

    def test_stream_accounting_matches_batch(self, tmp_path):
        text = SAMPLE + self.COMPLETED_ZERO + "\n" + self.FAILED_ZERO + "\n"
        path = tmp_path / "zero.swf"
        path.write_text(text)
        stream = SwfStream(path)
        jobs = list(stream.jobs())
        wl = parse_swf_text(text)
        assert len(jobs) == len(wl) == 3
        assert stream.accounting.zero_runtime == wl.extra["zero_runtime"] == 1
        # a second pass resets instead of accumulating
        list(stream.jobs())
        assert stream.accounting.zero_runtime == 1


class TestGzip:
    """Raw PWA downloads are .swf.gz: every reader must sniff the gzip
    magic bytes and decompress transparently."""

    def test_read_swf_gz_matches_plain(self, tmp_path):
        gz = tmp_path / "sample.swf.gz"
        gz.write_bytes(gzip.compress(SAMPLE.encode()))
        plain = parse_swf_text(SAMPLE)
        back = read_swf(gz)
        assert len(back) == len(plain)
        np.testing.assert_array_equal(back.submit, plain.submit)
        np.testing.assert_array_equal(back.runtime, plain.runtime)
        assert back.nmax == plain.nmax == 128

    def test_magic_bytes_not_extension_decide(self, tmp_path):
        # gzip content behind a plain .swf name still opens
        disguised = tmp_path / "disguised.swf"
        disguised.write_bytes(gzip.compress(SAMPLE.encode()))
        assert len(read_swf(disguised)) == 2

    def test_swf_stream_on_gz(self, tmp_path):
        gz = tmp_path / "fixture.swf.gz"
        gz.write_bytes(gzip.compress(open(FIXTURE, "rb").read()))
        stream = SwfStream(gz)
        assert stream.name == "CTC SP2"
        assert stream.machine_size == 338
        jobs = list(stream.jobs())
        assert len(jobs) == len(read_swf(FIXTURE))

    @pytest.mark.parametrize("damage", ["truncated", "corrupt"])
    def test_broken_gz_is_a_named_value_error(self, damage, tmp_path):
        data = bytearray(gzip.compress(open(FIXTURE, "rb").read()))
        if damage == "truncated":
            data = data[: len(data) // 2]
        else:  # the CRC-32 trailer no longer matches the data
            data[-8] ^= 0xFF
        gz = tmp_path / f"{damage}.swf.gz"
        gz.write_bytes(bytes(data))
        named = rf"SWF file .*{damage}\.swf\.gz: truncated or corrupt gzip data after line \d+"
        with pytest.raises(ValueError, match=named):
            read_swf(gz)
        stream = SwfStream(gz)  # the header block before the damage reads fine
        assert stream.machine_size == 338
        with pytest.raises(ValueError, match=named):
            list(stream.jobs())

    def test_gz_broken_inside_the_header_block(self, tmp_path):
        gz = tmp_path / "stub.swf.gz"
        gz.write_bytes(gzip.compress(open(FIXTURE, "rb").read())[:12])
        with pytest.raises(ValueError, match="stub.swf.gz: .* after line 0"):
            SwfStream(gz)

    def test_gz_name_fallback_strips_both_suffixes(self, tmp_path):
        gz = tmp_path / "anon.swf.gz"
        gz.write_bytes(
            gzip.compress(b"1 0 -1 10 2 -1 -1 2 20 -1 1 -1 -1 -1 -1 -1 -1 -1\n")
        )
        assert SwfStream(gz).name == "anon"
        assert read_swf(gz).name == "anon"

    def test_open_swf_plain_text(self, tmp_path):
        p = tmp_path / "plain.swf"
        p.write_text(SAMPLE)
        with open_swf(p) as fh:
            assert fh.readline().startswith(";")

    def test_write_swf_gz_round_trip(self, tmp_path):
        wl = lublin_workload(50, nmax=64, seed=9)
        gz = tmp_path / "out.swf.gz"
        write_swf(wl, gz)
        assert gz.read_bytes()[:2] == b"\x1f\x8b"
        back = read_swf(gz)
        np.testing.assert_array_equal(back.submit, wl.submit)
        np.testing.assert_array_equal(back.runtime, wl.runtime)
        np.testing.assert_array_equal(back.estimate, wl.estimate)
        np.testing.assert_array_equal(back.size, wl.size)
        assert back.nmax == 64

    def test_write_swf_gz_is_deterministic(self, tmp_path):
        wl = lublin_workload(10, nmax=16, seed=3)
        a, b = tmp_path / "a.swf.gz", tmp_path / "b.swf.gz"
        write_swf(wl, a)
        write_swf(wl, b)
        assert a.read_bytes() == b.read_bytes()


class TestWrite:
    def test_roundtrip(self, tmp_path):
        wl = lublin_workload(50, nmax=64, seed=9)
        path = tmp_path / "out.swf"
        write_swf(wl, path)
        back = read_swf(path)
        assert len(back) == len(wl)
        assert back.nmax == 64
        np.testing.assert_allclose(back.submit, wl.submit, atol=0.01)
        np.testing.assert_allclose(back.runtime, wl.runtime, atol=0.01)
        np.testing.assert_array_equal(back.size, wl.size)
        np.testing.assert_allclose(back.estimate, wl.estimate, atol=0.01)

    def test_fractional_values_round_trip_exactly(self):
        """Fractional submit/runtime must survive a write/read cycle bit
        for bit — regression for the old 2-decimal truncation."""
        wl = Workload.from_arrays(
            submit=[0.0, 10.123456789012345, 20.000000953674316],
            runtime=[1.5, 7.0 / 3.0, 100.25],
            size=[1, 2, 4],
            estimate=[2.75, 2.5000001, 101.0],
            nmax=8,
        )
        back = parse_swf_text(write_swf(wl))
        np.testing.assert_array_equal(back.submit, wl.submit)
        np.testing.assert_array_equal(back.runtime, wl.runtime)
        np.testing.assert_array_equal(back.estimate, wl.estimate)
        np.testing.assert_array_equal(back.size, wl.size)

    def test_lublin_round_trip_exact(self, tmp_path):
        wl = lublin_workload(50, nmax=64, seed=9)
        path = tmp_path / "out.swf"
        write_swf(wl, path)
        back = read_swf(path)
        np.testing.assert_array_equal(back.submit, wl.submit)
        np.testing.assert_array_equal(back.runtime, wl.runtime)
        np.testing.assert_array_equal(back.estimate, wl.estimate)

    def test_custom_header(self):
        wl = lublin_workload(3, seed=0)
        text = write_swf(wl, header={"Acknowledge": "nobody"})
        assert "; Acknowledge: nobody" in text

    def test_returns_text_without_path(self):
        wl = lublin_workload(3, seed=0)
        text = write_swf(wl)
        assert text.count("\n") >= 4

    def test_read_from_disk(self, tmp_path):
        p = tmp_path / "sample.swf"
        p.write_text(SAMPLE)
        wl = read_swf(p)
        assert len(wl) == 2


FIXTURE = "tests/data/ctc_tiny.swf"


class TestIterSwfJobs:
    """The streaming parser must agree with the batch parser everywhere —
    parse_swf_text is built on iter_swf_jobs, and these tests pin the
    shared accounting contract."""

    def test_batch_parity_on_fixture(self):
        text = open(FIXTURE, encoding="utf-8").read()
        wl = parse_swf_text(text)
        acc = SwfAccounting()
        jobs = list(iter_swf_jobs(text, accounting=acc))
        assert len(jobs) == len(wl)
        np.testing.assert_array_equal([j.job_id for j in jobs], wl.job_ids)
        np.testing.assert_array_equal([j.submit for j in jobs], wl.submit)
        np.testing.assert_array_equal([j.runtime for j in jobs], wl.runtime)
        np.testing.assert_array_equal(
            np.asarray([j.size for j in jobs]).astype(np.int64), wl.size
        )
        np.testing.assert_array_equal([j.estimate for j in jobs], wl.estimate)
        assert acc.dropped == wl.extra["dropped"]
        assert acc.filtered == wl.extra["filtered"]
        assert acc.header == wl.extra["header"]
        assert acc.yielded == len(wl)

    def test_accounting_matches_batch_on_sample(self):
        # job 2's status becomes 0 (failed): schedulable but filtered.
        text = SAMPLE.replace(
            "2 10 0 50 2 -1 -1 -1 -1 -1 1", "2 10 0 50 2 -1 -1 -1 -1 -1 0"
        )
        acc = SwfAccounting()
        jobs = list(iter_swf_jobs(text, keep_failed=False, accounting=acc))
        wl = parse_swf_text(text, keep_failed=False)
        assert len(jobs) == len(wl) == 1
        assert (acc.dropped, acc.filtered) == (
            wl.extra["dropped"],
            wl.extra["filtered"],
        ) == (2, 1)

    def test_accepts_line_iterables(self):
        from_text = list(iter_swf_jobs(SAMPLE))
        from_lines = list(iter_swf_jobs(iter(SAMPLE.splitlines())))
        assert from_text == from_lines

    def test_estimate_floor_applied(self):
        line = "1 0 -1 0.25 4 -1 -1 4 0.5 -1 1 -1 -1 -1 -1 -1 -1 -1"
        (job,) = iter_swf_jobs(line)
        assert job.estimate == 1.0

    def test_short_line_names_lineno(self):
        with pytest.raises(ValueError, match="line 2"):
            list(iter_swf_jobs("; ok\n1 2 3\n"))

    def test_non_numeric_names_lineno(self):
        bad = SAMPLE.replace("1 0 5 100", "one 0 5 100", 1)
        with pytest.raises(ValueError, match="non-numeric"):
            list(iter_swf_jobs(bad))

    def test_counts_final_only_after_exhaustion(self):
        acc = SwfAccounting()
        it = iter_swf_jobs(SAMPLE, accounting=acc)
        next(it)
        partial = acc.dropped
        list(it)
        assert acc.dropped >= partial
        assert acc.dropped == 2  # jobs 3 (runtime -1) and 4 (size 0)


class TestSwfStream:
    def test_header_read_without_consuming_jobs(self):
        stream = SwfStream(FIXTURE)
        assert stream.name == "CTC SP2"
        assert stream.machine_size == 338
        assert stream.accounting.yielded == 0  # no job rows parsed yet

    def test_jobs_match_read_swf(self):
        stream = SwfStream(FIXTURE)
        jobs = list(stream.jobs())
        wl = read_swf(FIXTURE)
        assert len(jobs) == len(wl)
        np.testing.assert_array_equal([j.submit for j in jobs], wl.submit)
        assert stream.accounting.dropped == wl.extra["dropped"]

    def test_name_falls_back_to_stem(self, tmp_path):
        path = tmp_path / "anon.swf"
        path.write_text("1 0 -1 10 2 -1 -1 2 20 -1 1 -1 -1 -1 -1 -1 -1 -1\n")
        stream = SwfStream(path)
        assert stream.name == "anon"
        assert stream.machine_size == 0

    def test_keep_failed_flag_respected(self, tmp_path):
        path = tmp_path / "mixed.swf"
        path.write_text(
            SAMPLE.replace(
                "2 10 0 50 2 -1 -1 -1 -1 -1 1", "2 10 0 50 2 -1 -1 -1 -1 -1 0"
            )
        )
        assert len(list(SwfStream(path).jobs())) == 2
        assert len(list(SwfStream(path, keep_failed=False).jobs())) == 1

    def test_second_pass_does_not_double_count(self):
        stream = SwfStream(FIXTURE)
        list(stream.jobs())
        first = (
            stream.accounting.dropped,
            stream.accounting.filtered,
            stream.accounting.yielded,
        )
        list(stream.jobs())
        assert (
            stream.accounting.dropped,
            stream.accounting.filtered,
            stream.accounting.yielded,
        ) == first
        assert stream.name == "CTC SP2"  # header survives the reset
