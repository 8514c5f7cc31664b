"""Arbitrary bytes into every input parser: each either parses or raises a
GdError subclass, never another exception."""

import struct

import pytest

from gdpipe.dictionary import DictionaryState
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
from gdpipe.traces import TRACE_MAGIC, read_pcap_payloads, read_trace

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

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
       tail=st.binary(max_size=20))
def test_read_pcap_payloads(scratch, chunk_bits, records, tail):
    data = struct.pack("<IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535, 1)
    for sec, usec, incl, frame in records:
        incl = len(frame) if incl is None else incl  # None: a consistent length
        data += struct.pack("<IIII", sec, usec, incl, len(frame)) + frame
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
        state = DictionaryState.load(scratch, id_width, basis_bits=basis_bits)
    except GdError:
        return
    assert state.free_count + len(state.items()) == state.capacity
