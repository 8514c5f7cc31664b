import ast
import math
import os
import struct
import subprocess
import sys
from pathlib import Path

import pytest

import gdpipe
from gdpipe import GdError, cli, pipeline
from gdpipe.cli import main
from gdpipe.dictionary import DictionaryState
from gdpipe.traces import TraceSpec, gen_synthetic, read_trace, write_trace


def make_trace(tmp_path, name="t.gdtrace", **kwargs):
    kwargs.setdefault("seed", 11)
    kwargs.setdefault("chunk_count", 600)
    kwargs.setdefault("chunk_bits", 256)
    kwargs.setdefault("distinct_bases", 4)
    trace = gen_synthetic(TraceSpec(**kwargs))
    path = tmp_path / name
    write_trace(trace, path)
    return path, trace


def parse_report(path):
    out = {}
    for line in path.read_text().splitlines():
        key, value = line.split("=", 1)
        out[key] = value
    return out


class TestTables:
    def test_m3_matches_equivalence_table(self, capsys):
        assert main(["tables", "--m", "3"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "code (7,4) m=3 generator x^3+x+1 low_bits 0x3"
        assert out[1:] == [
            "001 -> 0", "010 -> 1", "100 -> 2", "011 -> 3",
            "110 -> 4", "111 -> 5", "101 -> 6",
        ]

    def test_m8_prints_255_entries(self, capsys):
        assert main(["tables", "--m", "8"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("code (255,247) m=8")
        assert len(lines) == 256

    def test_unsupported_m_exits_2(self, capsys):
        assert main(["tables", "--m", "99"]) == 2
        assert "registry" in capsys.readouterr().err


class TestGen:
    def test_deterministic_output(self, tmp_path, capsys):
        a, b = tmp_path / "a.gdtrace", tmp_path / "b.gdtrace"
        args = ["gen", "--seed", "5", "--count", "100", "--bases", "3"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        trace = read_trace(a)
        assert trace.chunk_count == 100 and trace.chunk_bits == 256

    def test_bad_spec_exits_2(self, tmp_path, capsys):
        rc = main(["gen", "--out", str(tmp_path / "x"), "--bases", "0"])
        assert rc == 2

    @pytest.mark.parametrize("count", [2**32, 10**13])
    def test_count_past_the_header_field_exits_2(self, tmp_path, capsys, count):
        # 10^13 chunks used to end in a numpy MemoryError traceback
        out = tmp_path / "x.gdtrace"
        assert main(["gen", "--out", str(out), "--count", str(count)]) == 2
        assert capsys.readouterr().err.startswith("error: chunk_count must be in 0..2^32-1")
        assert not out.exists()

    def test_failed_allocation_exits_2(self, tmp_path, capsys, monkeypatch):
        def no_memory(spec):
            raise MemoryError

        monkeypatch.setattr(cli, "gen_synthetic", no_memory)
        out = tmp_path / "x.gdtrace"
        assert main(["gen", "--out", str(out), "--count", "5"]) == 2
        assert capsys.readouterr().err == ("error: not enough memory for a trace of 5 chunks "
                                            "over 100 bases\n")
        assert not out.exists()

    def test_msb_flag(self, tmp_path):
        out = tmp_path / "t.gdtrace"
        assert main(["gen", "--out", str(out), "--count", "10", "--m", "3",
                     "--bases", "1", "--codeword-prob", "1", "--msb", "1"]) == 0
        trace = read_trace(out)
        assert all(c.bit(7) == 1 for c in trace.chunks())


class TestRun:
    def test_static_single_basis_exact_ratio(self, tmp_path, capsys):
        path, _ = make_trace(tmp_path, distinct_bases=1)
        report = tmp_path / "report.txt"
        rc = main(["run", str(path), "--mode", "static", "--report", str(report)])
        assert rc == 0
        fields = parse_report(report)
        assert fields["mode"] == "static"
        assert float(fields["ratio"]) == 3 / 32
        assert int(fields["encoded_bytes"]) == 600 * 3
        assert int(fields["DECODE_MISS"]) == 0
        assert int(fields["RAW_IN"]) == 600

    def test_no_table_with_padding(self, tmp_path):
        path, _ = make_trace(tmp_path)
        report = tmp_path / "report.txt"
        rc = main(["run", str(path), "--mode", "no-table", "--padding",
                   "--report", str(report)])
        assert rc == 0
        fields = parse_report(report)
        assert float(fields["ratio"]) == 33 / 32
        assert int(fields["OUT_SYN_ID"]) == 0
        assert int(fields["INSTALLS"]) == 0

    def test_dynamic_ratio_at_least_static(self, tmp_path):
        path, _ = make_trace(tmp_path, distinct_bases=6, seed=21)
        r_static = tmp_path / "static.txt"
        r_dynamic = tmp_path / "dynamic.txt"
        assert main(["run", str(path), "--mode", "static",
                     "--report", str(r_static)]) == 0
        assert main(["run", str(path), "--mode", "dynamic", "--delay", "20e-6",
                     "--gap", "1e-6", "--report", str(r_dynamic)]) == 0
        static_ratio = float(parse_report(r_static)["ratio"])
        dynamic_ratio = float(parse_report(r_dynamic)["ratio"])
        assert dynamic_ratio >= static_ratio

    def test_snapshot_roundtrip(self, tmp_path):
        path, trace = make_trace(tmp_path, distinct_bases=3, seed=31)
        snap = tmp_path / "dict.snap"
        r1 = tmp_path / "r1.txt"
        r2 = tmp_path / "r2.txt"
        assert main(["run", str(path), "--mode", "static",
                     "--snapshot-out", str(snap), "--report", str(r1)]) == 0
        lines = snap.read_text().splitlines()
        assert len(lines) == 3 and lines[0].startswith("0 ")
        assert main(["run", str(path), "--mode", "static",
                     "--snapshot-in", str(snap), "--report", str(r2)]) == 0
        assert parse_report(r1)["ratio"] == parse_report(r2)["ratio"]

    def test_snapshot_keeps_its_ids(self, tmp_path):
        path, trace = make_trace(tmp_path, chunk_count=300, distinct_bases=3, seed=32)
        bases = pipeline.compute_bases(trace, pipeline.PipelineConfig(m=8))
        snap_in, snap_out = tmp_path / "in.snap", tmp_path / "out.snap"
        snap_in.write_text("".join(f"{i} {b:062x}\n" for i, b in zip((100, 200, 300), bases)))
        plain, loaded = tmp_path / "plain.txt", tmp_path / "loaded.txt"
        assert main(["run", str(path), "--mode", "static", "--report", str(plain)]) == 0
        assert main(["run", str(path), "--mode", "static", "--snapshot-in", str(snap_in),
                     "--snapshot-out", str(snap_out), "--report", str(loaded)]) == 0
        assert snap_out.read_text() == snap_in.read_text()
        assert parse_report(loaded)["encoded_bytes"] == parse_report(plain)["encoded_bytes"]
        assert parse_report(loaded)["OUT_SYN_ID"] == "300"

    def test_gzip_bytes_included(self, tmp_path):
        path, _ = make_trace(tmp_path)
        report = tmp_path / "report.txt"
        assert main(["run", str(path), "--mode", "static",
                     "--gzip-bytes", "1234", "--report", str(report)]) == 0
        fields = parse_report(report)
        assert fields["gzip_bytes"] == "1234"
        assert "gzip_ratio" in fields

    def test_counters_on_stdout(self, tmp_path, capsys):
        path, _ = make_trace(tmp_path)
        assert main(["run", str(path), "--mode", "dynamic"]) == 0
        out = capsys.readouterr().out
        assert "RAW_IN 600" in out and "savings" in out

    def test_missing_trace_exits_2(self, tmp_path):
        assert main(["run", str(tmp_path / "nope"), "--mode", "static"]) == 2

    def test_corrupt_trace_exits_2(self, tmp_path):
        path = tmp_path / "bad.gdtrace"
        path.write_bytes(b"garbage!")
        assert main(["run", str(path), "--mode", "static"]) == 2

    @pytest.mark.parametrize("gap", ["inf", "nan", "1e-10", "-1e-10"])
    def test_bad_gap_exits_2(self, tmp_path, capsys, gap):
        # inf used to escape as an OverflowError traceback, nan as a bare
        # int() message, and 1e-10 ran silently as a zero gap
        path, _ = make_trace(tmp_path)
        report = tmp_path / "report.txt"
        rc = main(["run", str(path), "--mode", "dynamic", f"--gap={gap}",
                   "--report", str(report)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: inter-arrival gap must be")
        assert not report.exists()

    def test_bad_delay_exits_2(self, tmp_path, capsys):
        path, _ = make_trace(tmp_path)
        assert main(["run", str(path), "--mode", "dynamic", "--delay", "1e-10"]) == 2
        assert capsys.readouterr().err.startswith("error: learning_delay must be")

    # no-table mode does not use the delay, but checks it like the others
    @pytest.mark.parametrize("mode", ["no-table", "static", "dynamic"])
    @pytest.mark.parametrize("delay", ["-5", "nan", "1e-10"])
    def test_bad_delay_exits_2_in_every_mode(self, tmp_path, capsys, mode, delay):
        path, _ = make_trace(tmp_path)
        report = tmp_path / "report.txt"
        rc = main(["run", str(path), "--mode", mode, f"--delay={delay}",
                   "--report", str(report)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: learning_delay must be")
        assert not report.exists()

    def test_no_table_accepts_the_default_delay(self, tmp_path):
        path, _ = make_trace(tmp_path)
        report = tmp_path / "report.txt"
        assert main(["run", str(path), "--mode", "no-table", "--report", str(report)]) == 0
        got = parse_report(report)
        assert got["learning_delay"] == "inf" and got["INSTALLS"] == "0"

    @pytest.mark.parametrize("flag,name", [("--gap", "inter-arrival gap"),
                                           ("--delay", "learning_delay")])
    def test_time_past_the_float_range_exits_2(self, tmp_path, capsys, flag, name):
        # 1e300 s is finite, but not as nanoseconds: it used to escape as an
        # OverflowError traceback
        path, _ = make_trace(tmp_path)
        assert main(["run", str(path), "--mode", "dynamic", flag, "1e300"]) == 2
        assert capsys.readouterr().err.startswith(f"error: {name} must be")

    @pytest.mark.parametrize("claim", ["far past the file", "trailing bytes"])
    def test_header_size_mismatch_exits_2(self, tmp_path, capsys, claim):
        path, _ = make_trace(tmp_path)
        data = path.read_bytes()
        if claim == "trailing bytes":
            path.write_bytes(data + b"x")
        else:
            path.write_bytes(struct.pack("<8sII", b"GDTRACE\0", 256, 2**32 - 1) + data[16:])
        assert main(["run", str(path), "--mode", "static"]) == 2
        assert "payload bytes" in capsys.readouterr().err

    def test_corrupt_restore_exits_1(self, tmp_path, capsys, monkeypatch):
        path, _ = make_trace(tmp_path)
        real = pipeline.decode_batch

        def flip_one_bit(*args):
            out = real(*args)
            out[0, 0] ^= 0x80
            return out

        monkeypatch.setattr(pipeline, "decode_batch", flip_one_bit)
        assert main(["run", str(path), "--mode", "dynamic"]) == 1
        assert capsys.readouterr().err.startswith("invariant violation")

    @pytest.mark.parametrize("command", [
        ["run", "--mode", "static"], ["run", "--mode", "dynamic", "--delay", "5e-6"],
        ["bench"]])
    def test_decode_miss_exits_1(self, tmp_path, capsys, monkeypatch, command):
        # one dictionary makes a miss unreachable, so force one
        path, _ = make_trace(tmp_path)
        monkeypatch.setattr(DictionaryState, "lookup_basis", lambda self, id_: None)
        report = tmp_path / "report.txt"
        argv = command[:1] + [str(path)] + command[1:]
        if command[0] == "run":
            argv += ["--report", str(report)]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("invariant violation: id ")
        assert captured.err.endswith(" resolves to a basis other than the encoder's\n")
        assert captured.out == "" and not report.exists()

    def test_snapshot_in_number_save_never_writes_exits_2(self, tmp_path, capsys):
        # int() reads "1_0" as 10
        path, _ = make_trace(tmp_path)
        snap = tmp_path / "in.snap"
        snap.write_text("1_0 5\n")
        assert main(["run", str(path), "--mode", "static", "--snapshot-in", str(snap)]) == 2
        assert capsys.readouterr().err == "error: line 1: expected '<id> <basis-hex>'\n"

    def test_snapshot_in_unicode_space_exits_2(self, tmp_path, capsys):
        # \s used to read the ideographic space as a separator
        path, _ = make_trace(tmp_path)
        snap = tmp_path / "in.snap"
        snap.write_text("3 5\n 4\u3000a", encoding="utf-8")
        assert main(["run", str(path), "--mode", "static", "--snapshot-in", str(snap)]) == 2
        assert capsys.readouterr().err == "error: line 2: expected '<id> <basis-hex>'\n"

    def test_snapshot_in_line_separator_exits_2(self, tmp_path, capsys):
        # str.splitlines used to read U+2028 as a line end, loading two entries
        path, _ = make_trace(tmp_path)
        snap = tmp_path / "in.snap"
        snap.write_text("3 5\n4 6\u20285 7\n", encoding="utf-8")
        assert main(["run", str(path), "--mode", "static", "--snapshot-in", str(snap)]) == 2
        assert capsys.readouterr().err == "error: line 2: expected '<id> <basis-hex>'\n"

    @pytest.mark.parametrize("mode", ["dynamic", "no-table"])
    @pytest.mark.parametrize("snapshot", ["missing.snap", "real.snap"])
    def test_snapshot_in_outside_static_mode_exits_2(self, tmp_path, capsys, mode, snapshot):
        # the flag used to be ignored, whether or not the file existed
        path, _ = make_trace(tmp_path)
        (tmp_path / "real.snap").write_text("0 1\n")
        report = tmp_path / "report.txt"
        assert main(["run", str(path), "--mode", mode, "--snapshot-in",
                     str(tmp_path / snapshot), "--report", str(report)]) == 2
        assert capsys.readouterr().err == (
            f"error: --snapshot-in preloads static mode only, not {mode}\n")
        assert not report.exists()

    def test_negative_gzip_bytes_exits_2(self, tmp_path, capsys):
        # -5 used to go into the report as a negative gzip_ratio
        path, _ = make_trace(tmp_path)
        report = tmp_path / "report.txt"
        assert main(["run", str(path), "--mode", "static", "--gzip-bytes", "-5",
                     "--report", str(report)]) == 2
        assert capsys.readouterr().err == "error: --gzip-bytes must be >= 0, got -5\n"
        assert not report.exists()

    @pytest.mark.parametrize("flag, via", [("--report", "same path"),
                                           ("--snapshot-out", "symlink")])
    def test_output_that_is_the_input_exits_2(self, tmp_path, capsys, flag, via):
        # the run used to exit 0 and replace the trace with its output
        path, _ = make_trace(tmp_path)
        before = path.read_bytes()
        out = path
        if via == "symlink":
            out = tmp_path / "link.gdtrace"
            out.symlink_to(path)
        assert main(["run", str(path), "--mode", "static", flag, str(out)]) == 2
        # refused before the replay, which would print its summary first
        assert capsys.readouterr() == ("", f"error: output {out} is the input trace itself\n")
        assert path.read_bytes() == before

    # the snapshot used to replace the report, and the run exited 0
    @pytest.mark.parametrize("via", ["same path", "relative path", "dangling symlink",
                                     "symlink", "hard link"])
    def test_report_that_is_the_snapshot_exits_2(self, tmp_path, monkeypatch, capsys, via):
        path, _ = make_trace(tmp_path)
        report = snapshot = tmp_path / "out.txt"
        if via == "relative path":
            monkeypatch.chdir(tmp_path)
            snapshot = Path(".") / report.name
        elif via != "same path":
            if via != "dangling symlink":
                report.write_text("kept\n")
            snapshot = tmp_path / "link.txt"
            (snapshot.hardlink_to if via == "hard link" else snapshot.symlink_to)(report)
        assert main(["run", str(path), "--mode", "static", "--report", str(report),
                     "--snapshot-out", str(snapshot)]) == 2
        # refused before the replay, which would print its summary first
        assert capsys.readouterr() == (
            "", f"error: output {snapshot} is another output, {report}\n")
        if via in ("symlink", "hard link"):
            assert report.read_text() == "kept\n"
        else:
            assert not report.exists()

    # the report used to replace the snapshot, and the run exited 0
    @pytest.mark.parametrize("via", ["same path", "relative path", "symlink", "hard link"])
    def test_report_that_is_the_snapshot_in_exits_2(self, tmp_path, monkeypatch, capsys,
                                                    via):
        path, trace = make_trace(tmp_path)
        snap = tmp_path / "in.snap"
        assert main(["run", str(path), "--mode", "static", "--snapshot-out", str(snap)]) == 0
        capsys.readouterr()
        before = snap.read_bytes()
        report = snap
        if via == "relative path":
            monkeypatch.chdir(tmp_path)
            report = Path(".") / snap.name
        elif via != "same path":
            report = tmp_path / "link.snap"
            (report.hardlink_to if via == "hard link" else report.symlink_to)(snap)
        assert main(["run", str(path), "--mode", "static", "--snapshot-in", str(snap),
                     "--report", str(report)]) == 2
        # refused before the replay, which would print its summary first
        assert capsys.readouterr() == (
            "", f"error: output {report} is the input snapshot itself\n")
        assert snap.read_bytes() == before

    def test_snapshot_out_may_update_the_snapshot_in(self, tmp_path):
        path, _ = make_trace(tmp_path)
        snap = tmp_path / "in.snap"
        assert main(["run", str(path), "--mode", "static", "--snapshot-out", str(snap)]) == 0
        before = snap.read_bytes()
        assert main(["run", str(path), "--mode", "static", "--snapshot-in", str(snap),
                     "--snapshot-out", str(snap)]) == 0
        assert snap.read_bytes() == before

    # 16 bases fill the 4-bit ID space exactly; preloading 17 would evict,
    # so the run starts again from compute_bases. Each replay and each
    # compute_bases reads the file once; the replay's reads happen in its
    # forked transform process, so the passes are counted as those calls
    @pytest.mark.parametrize("bases, passes", [(16, 1), (17, 3)])
    @pytest.mark.parametrize("command", [["run", "--mode", "static"], ["bench"]],
                             ids=["run", "bench"])
    def test_static_mode_reads_the_trace_once_while_the_bases_fit(
            self, tmp_path, monkeypatch, command, bases, passes):
        path, _ = make_trace(tmp_path, seed=7, chunk_count=2000, distinct_bases=bases)
        monkeypatch.setattr(pipeline, "WINDOW_BYTES", 100 * 32)
        count = []
        for name in ("replay", "compute_bases"):
            def counted(*args, _real=getattr(pipeline, name), **kwargs):
                count.append(1)
                return _real(*args, **kwargs)
            monkeypatch.setattr(pipeline, name, counted)
        argv = command[:1] + [str(path)] + command[1:] + ["--id-width", "4"]
        assert main(argv) == 0
        assert len(count) == passes

    def test_mode_required(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["run", "whatever"])
        assert exc.value.code == 2


class TestBench:
    def test_static_totals(self, tmp_path, capsys):
        path, _ = make_trace(tmp_path, chunk_count=400)
        assert main(["bench", str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "encoded_bytes=1200" in lines[0]
        assert lines[-1] == "roundtrip_ok=1"

    def test_reports_positive_throughput(self, tmp_path, capsys):
        path, _ = make_trace(tmp_path, chunk_count=200)
        assert main(["bench", str(path)]) == 0
        fields = dict(part.split("=", 1) for part in capsys.readouterr().out.split())
        # static mode replays in one pass: there is no separate bases stage
        assert not any(key.startswith("bases") for key in fields)
        assert float(fields["replay_s"]) >= 0
        assert float(fields["replay_chunks_per_s"]) > 0
        assert float(fields["replay_gbit_per_s"]) > 0

    def test_encoded_bytes_match_static_run(self, tmp_path, capsys):
        # 40 bases against 16 IDs: the replay learns and evicts past the
        # preload, which a plain table lookup does not count
        path, _ = make_trace(tmp_path, seed=7, chunk_count=2000, distinct_bases=40)
        report = tmp_path / "report.txt"
        assert main(["run", str(path), "--mode", "static", "--id-width", "4",
                     "--report", str(report)]) == 0
        capsys.readouterr()
        assert main(["bench", str(path), "--id-width", "4"]) == 0
        first = capsys.readouterr().out.splitlines()[0]
        assert first == (f"chunks=2000 raw_bytes=64000 "
                         f"encoded_bytes={parse_report(report)['encoded_bytes']}")

    def test_corrupt_restore_exits_1(self, tmp_path, capsys, monkeypatch):
        path, _ = make_trace(tmp_path)
        real = pipeline.decode_batch

        def flip_one_bit(*args):
            out = real(*args)
            out[0, 0] ^= 0x80
            return out

        monkeypatch.setattr(pipeline, "decode_batch", flip_one_bit)
        assert main(["bench", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("invariant violation")
        assert "roundtrip_ok" not in captured.out


class TestStreamedRun:
    """run, bench and export-payloads read the trace file a window at a
    time instead of loading it; their outputs match the in-memory path."""

    @pytest.mark.parametrize("flags", [
        ["--mode", "static"],
        ["--mode", "static", "--padding"],
        ["--mode", "static", "--id-width", "3"],  # 12 bases past 8 IDs
        ["--mode", "dynamic", "--delay", "20e-6", "--gap", "1e-6"],
        ["--mode", "dynamic", "--padding", "--id-width", "3", "--delay", "5e-6"],
        ["--mode", "no-table"],
        ["--mode", "no-table", "--padding"],
    ])
    def test_matches_in_memory_run_pipeline(self, tmp_path, monkeypatch, flags):
        path, trace = make_trace(tmp_path, seed=5, chunk_count=700, distinct_bases=12)
        args = cli.build_parser().parse_args(["run", str(path), *flags])
        config = pipeline.PipelineConfig(
            m=8, id_width=args.id_width, alignment_padding=args.padding,
            learning_delay=math.inf if args.mode == "no-table" else args.delay)
        preload = pipeline.compute_bases(trace, config) if args.mode == "static" else None
        holder = []
        restored, counters, (raw, encoded) = pipeline.run_pipeline(
            trace, config, args.gap, preload=preload, state_out=holder)
        assert restored.payload == trace.payload
        want = cli.RunReport(mode=args.mode, raw_bytes=raw, encoded_bytes=encoded,
                             ratio=encoded / raw, counters=counters, chunks=700,
                             config=config, gap=args.gap)
        want_snap = tmp_path / "want.snap"
        holder[0].save(want_snap)

        # seven chunks and a bit: many windows, the last one partial
        monkeypatch.setattr(pipeline, "WINDOW_BYTES", 7 * 32 + 5)
        report, snap = tmp_path / "report.txt", tmp_path / "got.snap"
        assert main(["run", str(path), *flags, "--report", str(report),
                     "--snapshot-out", str(snap)]) == 0
        assert report.read_text() == "".join(line + "\n" for line in want.lines())
        assert snap.read_bytes() == want_snap.read_bytes()
        if args.mode == "dynamic" and args.id_width == 3:
            assert counters.evictions > 0

    @pytest.mark.parametrize("command", [
        ["run", "--mode", "static"], ["run", "--mode", "dynamic"], ["bench"],
        ["export-payloads"]])
    def test_file_truncated_after_the_header_check_exits_2(
            self, tmp_path, monkeypatch, capsys, command):
        # 64000 body bytes, cut to 32000 once the header has been checked
        path, _ = make_trace(tmp_path, chunk_count=2000)
        real = cli.TraceFile

        def open_then_truncate(p):
            source = real(p)
            os.truncate(p, 16 + 1000 * 32)
            return source

        monkeypatch.setattr(cli, "TraceFile", open_then_truncate)
        monkeypatch.setattr(pipeline, "WINDOW_BYTES", 100 * 32)
        monkeypatch.setattr(cli, "WINDOW_BYTES", 100 * 32)
        argv = command[:1] + [str(path)] + command[1:]
        if command == ["export-payloads"]:
            argv.append(str(tmp_path / "payloads.bin"))
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {path}: expected 64000 payload bytes, found 32000\n"
        assert "roundtrip_ok" not in captured.out
        # a replay reads in its forked child, which raised it and was reaped
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("mode", ["static", "dynamic"])
    def test_dev_mode_run_writes_no_warning(self, tmp_path, mode):
        # two 1 MiB windows, so the transforms run in a forked child: an
        # unclosed pipe end would warn under -X dev, and Python 3.12+ warns
        # on a fork with threads alive; -W error makes either one fail
        path, _ = make_trace(tmp_path, chunk_count=40_000, distinct_bases=20)
        env = dict(os.environ, PYTHONPATH=str(Path(gdpipe.__file__).parents[1]))
        got = subprocess.run(
            [sys.executable, "-X", "dev", "-W", "error", "-m", "gdpipe.cli", "run", str(path),
             "--mode", mode], env=env, capture_output=True, text=True, timeout=120)
        assert (got.returncode, got.stderr) == (0, "")
        assert "RAW_IN 40000" in got.stdout.splitlines()

    def test_static_run_memory_follows_the_window_not_the_trace(self, tmp_path):
        # A small launcher starts each run: a child's peak RSS counts the
        # memory of the process it was forked from, and pytest's is large.
        launcher = ("import os, subprocess, sys\n"
                    "proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)\n"
                    "_, status, usage = os.wait4(proc.pid, 0)\n"
                    "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)\n")
        env = dict(os.environ, PYTHONPATH=str(Path(gdpipe.__file__).parents[1]))

        def peak_mb(chunks):
            path, _ = make_trace(tmp_path, name=f"{chunks}.gdtrace", chunk_count=chunks,
                                 distinct_bases=100)
            out = subprocess.run(
                [sys.executable, "-c", launcher, sys.executable, "-m", "gdpipe.cli",
                 "run", str(path), "--mode", "static"],
                env=env, capture_output=True, text=True, check=True).stdout
            code, kb = map(int, out.split())
            assert code == 0
            return kb / 1024

        # 2 MiB and 16 MiB of chunks: loading the body would add 14 MiB
        small, large = peak_mb(1 << 16), peak_mb(1 << 19)
        assert large - small < 4, (small, large)


class TestExportPayloads:
    def test_export_matches_concatenation(self, tmp_path):
        path, trace = make_trace(tmp_path, chunk_count=50)
        out = tmp_path / "payloads.bin"
        assert main(["export-payloads", str(path), str(out)]) == 0
        assert out.read_bytes() == trace.payload
        assert out.stat().st_size == 50 * 32

    def test_export_streams_in_windows(self, tmp_path, monkeypatch, capsys):
        path, trace = make_trace(tmp_path, chunk_count=50)
        monkeypatch.setattr(cli, "WINDOW_BYTES", 7 * 32)
        out = tmp_path / "payloads.bin"
        assert main(["export-payloads", str(path), str(out)]) == 0
        assert out.read_bytes() == trace.payload
        assert capsys.readouterr().out == f"wrote 1600 payload bytes to {out}\n"

    # opening the output for writing used to truncate the input first
    @pytest.mark.parametrize("via", ["same path", "symlink", "relative path"])
    def test_output_that_is_the_input_is_refused(self, tmp_path, monkeypatch, capsys, via):
        path, _ = make_trace(tmp_path, chunk_count=50)
        before = path.read_bytes()
        out = path
        if via == "symlink":
            out = tmp_path / "link.gdtrace"
            out.symlink_to(path)
        elif via == "relative path":
            monkeypatch.chdir(tmp_path)
            out = Path(".") / path.name
        assert main(["export-payloads", str(path), str(out)]) == 2
        assert capsys.readouterr().err == f"error: output {out} is the input trace itself\n"
        assert path.read_bytes() == before

    def test_empty_trace_empty_file(self, tmp_path):
        path, _ = make_trace(tmp_path, chunk_count=0)
        out = tmp_path / "payloads.bin"
        assert main(["export-payloads", str(path), str(out)]) == 0
        assert out.stat().st_size == 0


def test_cli_imports_no_private_names():
    tree = ast.parse(Path(cli.__file__).read_text())
    private = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("gdpipe")):
            parts = (node.module or "").split(".") + [a.name for a in node.names]
        elif isinstance(node, ast.Import):
            parts = [p for a in node.names if a.name.startswith("gdpipe")
                     for p in a.name.split(".")]
        else:
            continue
        private += [p for p in parts if p.startswith("_")]
    assert private == []


def test_any_package_error_exits_2(capsys, monkeypatch):
    class NewError(GdError):
        pass

    def fail(path):
        raise NewError("not handled by name anywhere")

    monkeypatch.setattr(cli, "TraceFile", fail)
    assert main(["run", "whatever", "--mode", "static"]) == 2
    assert capsys.readouterr().err == "error: not handled by name anywhere\n"
