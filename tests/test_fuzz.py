"""Arbitrary bytes into every input parser: each either parses or raises a
GdError subclass, never another exception. Arbitrary flag values into the
CLI: each run exits 0, 1 or 2, never with a traceback."""

import contextlib
import io
import math
import struct

import pytest

from gdpipe.cli import main
from gdpipe.dictionary import SnapshotError, read_snapshot
from gdpipe.gdcore import GdError
from gdpipe.pipeline import (
    RAW,
    SYN_BASIS,
    SYN_ID,
    PipelineConfig,
    parse_frame,
    raw_nbytes,
    serialize_frame,
    syn_basis_nbytes,
    syn_id_nbytes,
)
from gdpipe.traces import (
    TRACE_MAGIC,
    TraceSpec,
    gen_synthetic,
    read_pcap_payloads,
    read_trace,
    write_trace,
)

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from oracles import snapshot_model  # noqa: E402

FUZZ = settings(max_examples=150, deadline=None)
SIZES = {RAW: raw_nbytes, SYN_BASIS: syn_basis_nbytes, SYN_ID: syn_id_nbytes}


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input"


@FUZZ
@given(kind=st.sampled_from([RAW, SYN_BASIS, SYN_ID, 0, 4]),
       m=st.sampled_from([3, 4, 8]), id_width=st.integers(1, 24),
       padding=st.booleans(), data=st.data())
def test_parse_frame(kind, m, id_width, padding, data):
    config = PipelineConfig(m=m, id_width=id_width, alignment_padding=padding)
    size = SIZES[kind](config) if kind in SIZES else 0
    payload = data.draw(st.one_of(st.binary(min_size=size, max_size=size),
                                  st.binary(max_size=40)))
    try:
        fields = parse_frame(kind, payload, config)
    except GdError:
        return
    assert serialize_frame(kind, fields, config) == payload


@FUZZ
@given(magic=st.one_of(st.just(TRACE_MAGIC), st.binary(min_size=8, max_size=8)),
       chunk_bits=st.one_of(st.sampled_from([0, 7, 8, 256]), st.integers(0, 2**32 - 1)),
       chunk_count=st.one_of(st.integers(0, 8), st.integers(0, 2**32 - 1)),
       body=st.binary(max_size=300), cut=st.integers(0, 16))
def test_read_trace(scratch, magic, chunk_bits, chunk_count, body, cut):
    head = struct.pack("<8sII", magic, chunk_bits, chunk_count)
    scratch.write_bytes((head + body) if body else head[:cut])
    try:
        trace = read_trace(scratch)
    except GdError:
        return
    assert (trace.chunk_bits, trace.payload) == (chunk_bits, body)


record = st.tuples(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1),
                   st.one_of(st.none(), st.integers(0, 2**32 - 1)),
                   st.binary(max_size=60))


@FUZZ
@given(chunk_bits=st.sampled_from([8, 16, 256]), records=st.lists(record, max_size=5),
       tail=st.binary(max_size=20), order=st.sampled_from("<>"),
       magic=st.sampled_from([0xA1B2C3D4, 0xA1B23C4D]))
def test_read_pcap_payloads(scratch, chunk_bits, records, tail, order, magic):
    data = struct.pack(order + "IHHiIII", magic, 2, 4, 0, 0, 65535, 1)
    for sec, usec, incl, frame in records:
        incl = len(frame) if incl is None else incl  # None: a consistent length
        data += struct.pack(order + "IIII", sec, usec, incl, len(frame)) + frame
    scratch.write_bytes(data + tail)
    try:
        trace = read_pcap_payloads(scratch, chunk_bits)
    except GdError:
        return
    assert trace.chunk_bits == chunk_bits


snapshot_line = st.builds("{} {}".format, st.integers(-2, 40),
                          st.integers(-1, 2**12).map("{:x}".format))


@FUZZ
@given(content=st.one_of(st.binary(max_size=80),
                         st.lists(snapshot_line, max_size=6).map(
                             lambda lines: "\n".join(lines).encode())),
       id_width=st.integers(1, 24), basis_bits=st.sampled_from([None, 11]))
def test_snapshot_load(scratch, content, id_width, basis_bits):
    scratch.write_bytes(content)
    try:
        state = read_snapshot(scratch, id_width, basis_bits)
    except GdError:
        return
    assert state.free_count + len(state.items()) == state.capacity


@FUZZ
@given(lines=st.lists(snapshot_line, max_size=8), id_width=st.integers(1, 6),
       basis_bits=st.sampled_from([None, 11]))
def test_read_snapshot_fails_like_learning_each_line(scratch, lines, id_width, basis_bits):
    # duplicate IDs and bases included: each fails as learning it would
    text = "\n".join(lines)
    scratch.write_text(text)
    try:
        got = read_snapshot(scratch, id_width, basis_bits).items()[::-1]
    except SnapshotError as exc:
        got = str(exc)
    assert got == snapshot_model(text, id_width, basis_bits)


# -- the CLI's flags, end to end --------------------------------------------
#
# Sizes stay small: counts, bases and m are bounded so that no drawn flag
# set allocates more than a few MB.

junk = st.text(alphabet="-.e0123456789xn", max_size=6)
small_int = st.one_of(st.integers(-3, 40), st.sampled_from([2**31, 2**64]))
seconds = st.one_of(
    st.sampled_from([0.0, 1e-9, 1e-6, 3e-6, 1.77e-3, 1e-10, -1e-6, 2e-300,
                     1e300, math.inf, -math.inf, math.nan]),
    st.floats(min_value=0.0, max_value=1e-3))


def flag(name, values):
    """Mostly [name, value], the value a drawn number or now and then junk
    text; sometimes nothing."""
    value = st.one_of(values.map(str), values.map(str), values.map(str), junk)
    return st.one_of(st.just([]), *[value.map(lambda v: [name, v])] * 3)


def exit_code(argv):
    """main's exit code, with argparse's SystemExit counted as one; any
    other exception propagates and fails the test."""
    err = io.StringIO()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:
        code = exc.code
    assert "Traceback" not in err.getvalue()
    return code


@pytest.fixture(scope="module")
def cli_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    trace = gen_synthetic(TraceSpec(seed=4, chunk_count=80, chunk_bits=256,
                                    distinct_bases=5, codeword_prob=0.3))
    write_trace(trace, root / "t.gdtrace")
    (root / "snap.txt").write_text("3 0a\n7 1b\n")
    (root / "bad.snap").write_text("0 zz\n")
    return root


def trace_arg(root):
    return st.sampled_from(["t.gdtrace", "t.gdtrace", "missing.gdtrace"]).map(
        lambda name: [str(root / name)])


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_cli_tables(data):
    argv = ["tables"] + data.draw(flag("--m", st.integers(-2, 20)))
    assert exit_code(argv) in (0, 1, 2)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_cli_gen(cli_files, data):
    draw = data.draw
    argv = (["gen", "--out", str(cli_files / draw(st.sampled_from(["g.gdtrace", ""])))]
            + draw(flag("--m", st.one_of(st.integers(-2, 10), st.just(16))))
            # always given: the default count makes a 100 MB trace
            + ["--count", draw(st.one_of(st.integers(-3, 60).map(str), junk))]
            + draw(flag("--seed", small_int))
            + draw(flag("--bases", st.integers(-2, 40)))
            + draw(flag("--codeword-prob", seconds))
            + draw(flag("--distribution", st.sampled_from(["uniform", "round-robin"])))
            + draw(flag("--msb", st.sampled_from(["0", "1", "random", "2"]))))
    assert exit_code(argv) in (0, 1, 2)


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_cli_run(cli_files, data):
    draw = data.draw
    snapshot = draw(st.sampled_from([None, "snap.txt", "bad.snap", "missing.snap"]))
    argv = (["run"] + draw(trace_arg(cli_files))
            + draw(flag("--mode", st.sampled_from(["static", "dynamic", "no-table"])))
            + draw(flag("--delay", seconds))
            + draw(flag("--gap", seconds))
            + draw(flag("--id-width", small_int))
            + draw(flag("--gzip-bytes", small_int))
            + draw(st.sampled_from([[], ["--padding"]]))
            + ([] if snapshot is None else ["--snapshot-in", str(cli_files / snapshot)])
            + draw(st.sampled_from([[], ["--snapshot-out", str(cli_files / "out.snap")],
                                    ["--report", str(cli_files / "report.txt")]])))
    assert exit_code(argv) in (0, 1, 2)


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_cli_bench(cli_files, data):
    argv = (["bench"] + data.draw(trace_arg(cli_files))
            + data.draw(flag("--id-width", small_int)))
    assert exit_code(argv) in (0, 1, 2)
