import struct

import pytest

from gdpipe.gdcore import BitChunk, GdError, build_code, gd_encode, split_chunk
from gdpipe.pipeline import RAW, Frame, write_pcap
from gdpipe.traces import (
    BadMagic,
    BadPacket,
    EmptyInput,
    InvalidSpec,
    Trace,
    TraceFile,
    TraceSpec,
    TruncatedFile,
    chunk_file,
    drawn_bases,
    gen_synthetic,
    m_for_chunk_bits,
    read_pcap_payloads,
    read_trace,
    reassemble,
    write_trace,
)


class TestTraceSpec:
    def test_defaults_mirror_experiment_scale(self):
        spec = TraceSpec(seed=0)
        assert spec.chunk_count == 3_124_000
        assert spec.chunk_bits == 256
        assert (spec.distinct_bases, spec.codeword_prob) == (100, 0.2)

    @pytest.mark.parametrize("kwargs", [
        dict(seed=-1),
        dict(seed=1 << 64),
        dict(chunk_count=-1),
        dict(chunk_count=1 << 32),  # the header field is a u32
        dict(chunk_bits=100),
        dict(chunk_bits=4),      # 2^2, no registered code
        dict(distinct_bases=0),
        dict(distinct_bases=17, chunk_bits=8),  # only 2^4 bases for m=3
        dict(codeword_prob=1.5),
        dict(basis_distribution="zipf"),
        dict(msb=2),
    ])
    def test_validation(self, kwargs):
        kwargs.setdefault("seed", 1)
        kwargs.setdefault("chunk_count", 4)
        with pytest.raises(InvalidSpec):
            gen_synthetic(TraceSpec(**kwargs))

    def test_m_for_chunk_bits(self):
        assert m_for_chunk_bits(256) == 8
        with pytest.raises(InvalidSpec):
            m_for_chunk_bits(100)


class TestGenSynthetic:
    def test_degenerate_spec_constant_trace(self):
        spec = TraceSpec(seed=9, chunk_count=20, chunk_bits=8,
                         distinct_bases=1, codeword_prob=1.0, msb=0)
        trace = gen_synthetic(spec)
        first = trace.chunk(0)
        assert all(c == first for c in trace.chunks())
        assert first.bit(7) == 0  # fixed msb

    def test_determinism(self):
        spec = TraceSpec(seed=1234, chunk_count=500, chunk_bits=256,
                         distinct_bases=7)
        assert gen_synthetic(spec).payload == gen_synthetic(spec).payload
        other = TraceSpec(seed=1235, chunk_count=500, chunk_bits=256,
                          distinct_bases=7)
        assert gen_synthetic(spec).payload != gen_synthetic(other).payload

    def test_chunks_stay_within_distance_one_of_drawn_bases(self):
        spec = TraceSpec(seed=77, chunk_count=300, chunk_bits=256,
                         distinct_bases=9, codeword_prob=0.3)
        bases = set(drawn_bases(spec))
        assert len(bases) == 9
        code = build_code(8)
        trace = gen_synthetic(spec)
        seen = set()
        for chunk in trace.chunks():
            _, body = split_chunk(chunk, code)
            _, basis = gd_encode(body, code)
            assert basis.value in bases
            seen.add(basis.value)
        assert seen <= bases

    def test_codeword_prob_one_gives_zero_syndromes(self):
        spec = TraceSpec(seed=3, chunk_count=50, chunk_bits=16,
                         distinct_bases=4, codeword_prob=1.0)
        code = build_code(4)
        for chunk in gen_synthetic(spec).chunks():
            _, body = split_chunk(chunk, code)
            s, _ = gd_encode(body, code)
            assert s == 0

    def test_round_robin_cycles_bases(self):
        spec = TraceSpec(seed=3, chunk_count=12, chunk_bits=16,
                         distinct_bases=3, codeword_prob=1.0, msb=0,
                         basis_distribution="round-robin")
        trace = gen_synthetic(spec)
        chunks = list(trace.chunks())
        for i in range(len(chunks) - 3):
            assert chunks[i] == chunks[i + 3]
        assert len({c.value for c in chunks[:3]}) == 3

    def test_empty_trace(self):
        trace = gen_synthetic(TraceSpec(seed=0, chunk_count=0, chunk_bits=256))
        assert trace.chunk_count == 0 and trace.payload == b""


class TestChunkFile:
    def test_exact_multiple(self):
        trace = chunk_file(bytes(64), 256)
        assert trace.chunk_count == 2

    def test_padding(self):
        data = bytes(range(34))
        trace = chunk_file(data, 256)
        assert trace.chunk_count == 2
        assert trace.payload == data + b"\0" * 30
        assert reassemble(trace) == data

    def test_all_zero_block(self):
        trace = chunk_file(bytes(32), 256)
        assert trace.chunk_count == 1
        assert trace.chunk(0).value == 0

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            chunk_file(b"", 256)

    def test_bad_chunk_bits(self):
        with pytest.raises(ValueError):
            chunk_file(b"xy", 12)

    def test_reassemble_without_recorded_length(self):
        trace = Trace(16, b"abcd")
        assert reassemble(trace) == b"abcd"


class TestTraceType:
    def test_size_validation(self):
        with pytest.raises(ValueError):
            Trace(256, b"short")
        with pytest.raises(ValueError):
            Trace(12, b"")

    def test_from_chunks_rejects_mixed_sizes(self):
        with pytest.raises(ValueError):
            Trace.from_chunks(16, [BitChunk(8, 1)])

    def test_chunk_accessors(self):
        trace = Trace(8, bytes([0x81, 0x00]))
        assert str(trace.chunk(0)) == "10000001"
        with pytest.raises(IndexError):
            trace.chunk(2)


class TestTraceFiles:
    def test_empty_trace_is_16_bytes(self, tmp_path):
        path = tmp_path / "t.gdtrace"
        write_trace(Trace(256, b""), path)
        assert path.stat().st_size == 16
        assert read_trace(path).chunk_count == 0

    def test_single_chunk_m8_is_48_bytes(self, tmp_path):
        path = tmp_path / "t.gdtrace"
        write_trace(Trace(256, bytes(32)), path)
        assert path.stat().st_size == 48

    def test_roundtrip(self, tmp_path):
        spec = TraceSpec(seed=8, chunk_count=64, chunk_bits=256, distinct_bases=5)
        trace = gen_synthetic(spec)
        path = tmp_path / "t.gdtrace"
        write_trace(trace, path)
        got = read_trace(path)
        assert got.chunk_bits == trace.chunk_bits
        assert got.payload == trace.payload

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "t.gdtrace"
        path.write_bytes(b"NOTMAGIC" + bytes(8))
        with pytest.raises(BadMagic):
            read_trace(path)
        path.write_bytes(b"GD")
        with pytest.raises(BadMagic):
            read_trace(path)

    def test_truncated(self, tmp_path):
        path = tmp_path / "t.gdtrace"
        write_trace(Trace(256, bytes(64)), path)
        data = path.read_bytes()
        path.write_bytes(data[:-1])
        with pytest.raises(TruncatedFile):
            read_trace(path)
        path.write_bytes(data + b"x")  # trailing garbage is also a size mismatch
        with pytest.raises(TruncatedFile):
            read_trace(path)

    @pytest.mark.parametrize("chunk_bits,chunk_count", [
        (256, 2**32 - 1),          # far more chunks than the file holds
        (2**31, 2**32 - 1),        # a body of 2^60 bytes: never read
    ])
    def test_header_claims_more_than_the_file(self, tmp_path, chunk_bits, chunk_count):
        path = tmp_path / "t.gdtrace"
        path.write_bytes(struct.pack("<8sII", b"GDTRACE\0", chunk_bits, chunk_count)
                         + bytes(32))
        with pytest.raises(TruncatedFile, match="found 32"):
            read_trace(path)


class TestStreamedTraceFile:
    """TraceFile checks the header as read_trace does, then reads the body
    a window at a time into one reused buffer."""

    @staticmethod
    def _file(tmp_path, count=50):
        trace = gen_synthetic(TraceSpec(seed=6, chunk_count=count, chunk_bits=256,
                                        distinct_bases=3))
        path = tmp_path / "t.gdtrace"
        write_trace(trace, path)
        return path, trace

    # below one chunk, one chunk, seven chunks (a partial last window), all
    @pytest.mark.parametrize("nbytes", [1, 32, 7 * 32 + 5, 50 * 32, 1 << 20])
    def test_windows_match_in_memory_windows(self, tmp_path, nbytes):
        path, trace = self._file(tmp_path)
        want = [bytes(w) for w in trace.windows(nbytes)]
        with TraceFile(path) as source:
            assert (source.chunk_bits, source.chunk_count) == (256, 50)
            for _ in range(2):  # a second pass starts at the body again
                got = [bytes(w) for w in source.windows(nbytes)]
                assert got == want
        assert b"".join(want) == trace.payload
        assert all(len(w) % 32 == 0 and 0 < len(w) <= max(nbytes, 32) for w in want)

    def test_windows_share_one_buffer(self, tmp_path):
        path, _ = self._file(tmp_path)
        with TraceFile(path) as source:
            views = source.windows(7 * 32)
            first, second = next(views), next(views)
            assert first.obj is second.obj
            assert len(first.obj) == 7 * 32

    def test_empty_body_has_no_windows(self, tmp_path):
        path, _ = self._file(tmp_path, count=0)
        with TraceFile(path) as source:
            assert list(source.windows(1 << 20)) == []

    def test_truncated_after_the_header_check(self, tmp_path):
        # past the first 8 KiB, which the header read may have buffered
        path, _ = self._file(tmp_path, count=400)
        with TraceFile(path) as source:
            path.write_bytes(path.read_bytes()[:16 + 300 * 32 + 3])
            windows = source.windows(100 * 32)
            assert [len(next(windows)) for _ in range(3)] == [100 * 32] * 3
            with pytest.raises(TruncatedFile, match="expected 12800 payload bytes, found 9603"):
                next(windows)

    @pytest.mark.parametrize("data,error", [
        (b"GD", BadMagic),
        (b"NOTMAGIC" + bytes(8), BadMagic),
        (struct.pack("<8sII", b"GDTRACE\0", 12, 1) + bytes(1), TruncatedFile),
        (struct.pack("<8sII", b"GDTRACE\0", 256, 2) + bytes(63), TruncatedFile),
        (struct.pack("<8sII", b"GDTRACE\0", 256, 2) + bytes(65), TruncatedFile),
    ])
    def test_header_checks_match_read_trace(self, tmp_path, data, error):
        path = tmp_path / "t.gdtrace"
        path.write_bytes(data)
        with pytest.raises(error) as streamed:
            TraceFile(path)
        with pytest.raises(error) as whole:
            read_trace(path)
        assert str(streamed.value) == str(whole.value)


class TestPcapImport:
    def test_roundtrip_through_pcap(self, tmp_path):
        spec = TraceSpec(seed=4, chunk_count=10, chunk_bits=256, distinct_bases=2)
        trace = gen_synthetic(spec)
        frames = [Frame(RAW, trace.payload[i * 32:(i + 1) * 32], i * 1e-6)
                  for i in range(trace.chunk_count)]
        path = tmp_path / "t.pcap"
        write_pcap(frames, path)
        got = read_pcap_payloads(path, 256)
        assert got.payload == trace.payload

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "t.pcap"
        path.write_bytes(bytes(24))
        with pytest.raises(BadMagic):
            read_pcap_payloads(path, 256)

    @staticmethod
    def _pcap(order, magic, payloads):
        """A pcap written field by field in byte order `order`."""
        data = struct.pack(order + "IHHiIII", magic, 2, 4, 0, 0, 65535, 1)
        for i, payload in enumerate(payloads):
            pkt = bytes(12) + b"\x88\xb5" + payload
            data += struct.pack(order + "IIII", i, 999_999_999, len(pkt), len(pkt)) + pkt
        return data

    @pytest.mark.parametrize("order, magic", [
        pytest.param("<", 0xA1B2C3D4, id="us-little"),
        pytest.param("<", 0xA1B23C4D, id="ns-little"),
        pytest.param(">", 0xA1B2C3D4, id="us-big"),
        pytest.param(">", 0xA1B23C4D, id="ns-big"),
    ])
    def test_every_pcap_magic(self, tmp_path, order, magic):
        trace = gen_synthetic(TraceSpec(seed=5, chunk_count=6, chunk_bits=256,
                                        distinct_bases=2))
        payloads = [trace.payload[i * 32:(i + 1) * 32] for i in range(6)]
        path = tmp_path / "t.pcap"
        path.write_bytes(self._pcap(order, magic, payloads))
        assert read_pcap_payloads(path, 256).payload == trace.payload

    @pytest.mark.parametrize("magic", [0x0A0D0D0A, 0xA1B2C3D5, 0x4D3C2B1A, 0], ids=hex)
    def test_other_magics_are_refused(self, tmp_path, magic):
        path = tmp_path / "t.pcap"
        path.write_bytes(self._pcap("<", magic, [bytes(32)]))
        with pytest.raises(BadMagic, match=f"0x{magic:08x}"):
            read_pcap_payloads(path, 256)

    @pytest.mark.parametrize("cut, message", [(10, "truncated packet record"),
                                              (20, "runs past end of file")])
    def test_truncated_byte_swapped_file(self, tmp_path, cut, message):
        data = self._pcap(">", 0xA1B23C4D, [bytes(32), bytes(32)])
        # the second record loses all but `cut` bytes of header and packet
        path = tmp_path / "t.pcap"
        path.write_bytes(data[:24 + 62 + cut])
        with pytest.raises(TruncatedFile, match=message):
            read_pcap_payloads(path, 256)

    def test_wrong_payload_size(self, tmp_path):
        path = tmp_path / "t.pcap"
        write_pcap([Frame(RAW, bytes(16), 0.0)], path)
        with pytest.raises(ValueError):
            read_pcap_payloads(path, 256)

    def test_wrong_payload_size_is_a_gd_error(self, tmp_path):
        path = tmp_path / "t.pcap"
        write_pcap([Frame(RAW, bytes(32), 0.0), Frame(RAW, bytes(33), 1e-6)], path)
        with pytest.raises(BadPacket, match="not 32 bytes") as exc:
            read_pcap_payloads(path, 256)
        assert isinstance(exc.value, GdError)
