import hashlib
import itertools
import struct
import tracemalloc

import pytest

from gdpipe import gdcore
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
        dict(seed=1.5),
        dict(seed=True),
        dict(chunk_count=2.5),
        dict(chunk_count=True),
        dict(chunk_bits=256.0),
        dict(distinct_bases=2.5),
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


def _pinned_specs(name):
    """Specs whose generated bytes are pinned: per m, counts 0 and 1 and
    every distribution, msb and codeword_prob at 64 chunks; at m=3 every
    power-of-two basis count up to the whole space; the churn-dynamic
    workload trace (perfbench/workloads.json, default seed)."""
    if name == "full":
        return [TraceSpec(seed=k, chunk_count=64, chunk_bits=8, distinct_bases=1 << k,
                          basis_distribution=dist)
                for k in range(5) for dist in ("uniform", "round-robin")]
    if name == "churn":
        return [TraceSpec(seed=20260809, chunk_count=400000, chunk_bits=256,
                          distinct_bases=65536)]
    m = name
    combos = itertools.product(("uniform", "round-robin"), (None, 0, 1), (0.0, 0.2, 1.0))
    return [TraceSpec(seed=m, chunk_count=count, chunk_bits=1 << m, distinct_bases=3)
            for count in (0, 1)] + [
        TraceSpec(seed=m * 100 + i, chunk_count=64, chunk_bits=1 << m, distinct_bases=3,
                  codeword_prob=prob, basis_distribution=dist, msb=msb)
        for i, (dist, msb, prob) in enumerate(combos)]


# sha256 of the concatenated payloads and of the drawn bases (each as a
# chunk-wide big-endian row) of _pinned_specs(name), as generated when each
# codeword came from the scalar parity_of
_GENERATOR_DIGESTS = {
    3: ("d7e8487bdf2ae876b30d97ffaccd43823223f7750783ade5277afd16aae16d2c",
        "814a04132352ac3ac6d794bf3cd8c4d24ebf5618b196c166fa2b7d1b7ffa8baf"),
    4: ("2d30f250e3cdefb9dc06e240031f907c356871d2792865cf1df148e70ae3f7fe",
        "caa8be0f15254b6ef5b22d42754ad431b59be48e1a63e61dfd163e10cc25e0c1"),
    5: ("1f3650cb28d46bf0d81ce20653af82ed6e83ad55d7917aed8016d3c53c447275",
        "32d8ad7389b6464fce08a2b2522dc8661c30892e1c1a10b6076542ddf886b3ea"),
    6: ("31549f16a5e848df28bb346e25069c26c596a46e294e7548893e9b09aee3e038",
        "0cd29aba5fa68ca44e0900d2298d4b104322e87f7b3bb781281131139429148a"),
    7: ("decc01f751203d437ee3f3f0b6bbac0a021c7fb66f6b83355cbbf60b8f633110",
        "beb3071acc5ed171e21c6a0fae716c42a5763bc27f06df9f9179b6c39789b5c6"),
    8: ("f348b7c452621677a0b00fe5136f23cf91263dd44f8782abaed0754356336f09",
        "73d7a37d0cbc38547584b1b5cbb71fd5d8933a751e3a25b7de1163dd47cae646"),
    9: ("32e449b7bd87e35c5126b4051786b37eb5001b1f84776c5f033d1aa3cbfbcb7e",
        "65e1fdf4776c19723544c1430ecc5fc5c16a54448b8e543478705967117e4494"),
    10: ("0ca5eeaef984e8bf9787ed42d169dd99f1eedbe7edb0c56aad47b558eb3446b1",
         "02394ff8b067bb722b714a506e6a6ad55f8ea79bd7fd964345b125334e2817dd"),
    11: ("d14a3f0e2fb4850c64b765e7f9e2321463a06d92e109f4fdf03eef18601a98b9",
         "07953004ca000efb5d8b29de38af54bb8cc27b0d68d1418b77521cf1cd2d655f"),
    12: ("9aa2352312022eb7610526890bd030f3db1fbb0087f2847ffe8b2f7501b3c163",
         "7476655056fddefe8f875da50935d3c6335cf9712b604a54a55957f56a9b2299"),
    13: ("9e78b3a46906ec5d0064ff232e7e981b585a19d29cef9f5e0a23f06ab4b13b1a",
         "422ae9023cc50056c9e2268c004d0e5e123cd9efe8135bda1eb9d787595bebe6"),
    14: ("17c71e32523e7b41733c48c18c96830fcb0e5878bc4e48518568728f70cdec83",
         "88dd011f3288fc1e209b2e55902453347065533401a6c672ff9ff9e89a657e05"),
    15: ("6a87bb1669e67aff0ec4a15e245ed25f9c7e1e526287751008529d41b429513b",
         "8d79834da9324b1bf82835ad31c082ceabb660427c8a125edc99a33eb9eedbf1"),
    "full": ("e7383d51b3c759670ad98588bc74699dac165c16c5fc6c8bb0e935a5ac82d70e",
             "ad84303e425e0eb379e8d8ecbeb00e1d2d7b3df850affb8179f7aea41932cacd"),
    "churn": ("f82e4a615aa17f71246e29b7997d22bf4ef97526fa4ed6bcaeaa1b2aa5e85825",
              "13a27db4bfc24602842841a6616269a0003fc425317f9344287c739696490f6c"),
}


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

    def test_empty_trace_draws_no_bases(self):
        # a million bases used to be drawn, 164 MB at peak, for no chunk
        spec = TraceSpec(seed=0, chunk_count=0, distinct_bases=10**6)
        tracemalloc.start()
        try:
            trace = gen_synthetic(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert trace.chunk_count == 0 and trace.payload == b""
        assert peak < 1 << 20

    @pytest.mark.parametrize("name", list(_GENERATOR_DIGESTS))
    def test_bytes_match_the_scalar_generator(self, name):
        payloads, bases = hashlib.sha256(), hashlib.sha256()
        for spec in _pinned_specs(name):
            payloads.update(gen_synthetic(spec).payload)
            width = spec.chunk_bits // 8
            bases.update(b"".join(b.to_bytes(width, "big") for b in drawn_bases(spec)))
        assert (payloads.hexdigest(), bases.hexdigest()) == _GENERATOR_DIGESTS[name]

    def test_codewords_need_no_scalar_parity(self, monkeypatch):
        def scalar(*args):
            raise AssertionError("scalar remainder called")

        monkeypatch.setattr(gdcore, "_poly_mod_bytes", scalar)
        spec = TraceSpec(seed=5, chunk_count=8192, chunk_bits=256, distinct_bases=4096)
        assert gen_synthetic(spec).chunk_count == 8192


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
