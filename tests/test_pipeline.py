import contextlib
import functools
import gc
import math
import os
import random
import struct
import sys
import threading
import time

import numpy as np
import pytest

from gdpipe import pipeline
from gdpipe.dictionary import DictionaryState, read_snapshot
from gdpipe.gdcore import (
    GENERATOR_REGISTRY,
    BitChunk,
    EncodedChunk,
    GdError,
    HammingCode,
    LengthMismatch,
    build_code,
    gd_decode,
    gd_encode,
    join_chunk,
    parity_of,
    split_chunk,
)
from gdpipe.pipeline import (
    RAW,
    SYN_BASIS,
    SYN_ID,
    CompressedChunk,
    ControlPlane,
    Counters,
    DecodeMiss,
    Frame,
    InvalidTime,
    InvariantViolation,
    MalformedFrame,
    Pipeline,
    PipelineConfig,
    _vector_tables,
    compute_bases,
    decode_batch,
    encode_batch,
    parse_frame,
    raw_nbytes,
    replay,
    replay_static,
    run_pipeline,
    serialize_frame,
    syn_basis_nbytes,
    syn_id_nbytes,
    write_pcap,
)
from gdpipe.traces import (
    Trace,
    TraceFile,
    TraceSpec,
    TruncatedFile,
    gen_synthetic,
    write_trace,
)
from oracles import ControlPlaneModel, remainder_of_int

CFG3 = PipelineConfig(m=3, id_width=15, learning_delay=1.77e-3)
CFG8 = PipelineConfig(m=8, id_width=15)
FOREIGN_ID = "resolves to a basis other than the encoder's"


def chunk_of(bits: str) -> BitChunk:
    return BitChunk.from_str(bits)


class TestFrameLayout:
    def test_syn_id_all_zero(self):
        assert serialize_frame(SYN_ID, CompressedChunk(0, 0, 0), CFG8) == b"\x00\x00\x00"

    def test_syn_id_all_ones_packing(self):
        data = serialize_frame(SYN_ID, CompressedChunk(0xA5, 1, 0x7FFF), CFG8)
        assert data == b"\xa5\xff\xff"
        got = parse_frame(SYN_ID, data, CFG8)
        assert got == CompressedChunk(0xA5, 1, 0x7FFF)

    def test_syn_id_wrong_length(self):
        with pytest.raises(MalformedFrame):
            parse_frame(SYN_ID, b"\xa5\xff", CFG8)

    def test_syn_id_nonzero_tail_padding(self):
        data = serialize_frame(SYN_ID, CompressedChunk(1, 0, 5), CFG3)
        corrupt = data[:-1] + bytes([data[-1] | 0x01])
        with pytest.raises(MalformedFrame):
            parse_frame(SYN_ID, corrupt, CFG3)

    def test_syn_basis_m8_layout(self):
        fields = EncodedChunk(syndrome=0xFF, msb=1, basis=BitChunk(247, 0))
        data = serialize_frame(SYN_BASIS, fields, CFG8)
        assert len(data) == 32
        assert data[0] == 0xFF and data[1] == 0x80 and not any(data[2:])

    def test_syn_basis_padding_byte(self):
        cfg = PipelineConfig(m=8, alignment_padding=True)
        fields = EncodedChunk(syndrome=0xA5, msb=0, basis=BitChunk(247, 1))
        data = serialize_frame(SYN_BASIS, fields, cfg)
        assert len(data) == 33 and data[0] == 0xA5 and data[1] == 0x00
        assert parse_frame(SYN_BASIS, data, cfg) == fields
        corrupt = bytearray(data)
        corrupt[1] = 0x01
        with pytest.raises(MalformedFrame):
            parse_frame(SYN_BASIS, bytes(corrupt), cfg)

    def test_raw_roundtrip(self):
        chunk = BitChunk(256, (1 << 255) | 0xDEADBEEF)
        data = serialize_frame(RAW, chunk, CFG8)
        assert parse_frame(RAW, data, CFG8) == chunk
        with pytest.raises(MalformedFrame):
            parse_frame(RAW, data[:-1], CFG8)

    def test_field_width_validation(self):
        with pytest.raises(MalformedFrame):
            serialize_frame(SYN_ID, CompressedChunk(0, 0, 1 << 15), CFG8)
        with pytest.raises(MalformedFrame):
            serialize_frame(SYN_ID, CompressedChunk(1 << 8, 0, 0), CFG8)
        with pytest.raises(MalformedFrame):
            serialize_frame(SYN_BASIS,
                            EncodedChunk(0, 0, BitChunk(4, 0)), CFG8)
        with pytest.raises(MalformedFrame):
            serialize_frame(9, CompressedChunk(0, 0, 0), CFG8)

    @pytest.mark.parametrize("m", [3, 4, 8])
    @pytest.mark.parametrize("id_width", [3, 15])
    @pytest.mark.parametrize("padding", [False, True])
    def test_size_law_and_roundtrip(self, m, id_width, padding):
        cfg = PipelineConfig(m=m, id_width=id_width, alignment_padding=padding)
        k = (1 << m) - 1 - m
        assert syn_id_nbytes(cfg) == (m + 1 + id_width + 7) // 8
        assert syn_basis_nbytes(cfg) == ((m + 1 + k + 7) // 8) + (1 if padding else 0)
        assert raw_nbytes(cfg) == (1 << m) // 8
        rng = random.Random(m * 100 + id_width + padding)
        for _ in range(20):
            ci = CompressedChunk(rng.getrandbits(m), rng.getrandbits(1),
                                 rng.getrandbits(id_width))
            data = serialize_frame(SYN_ID, ci, cfg)
            assert len(data) == syn_id_nbytes(cfg)
            assert parse_frame(SYN_ID, data, cfg) == ci
            cb = EncodedChunk(rng.getrandbits(m), rng.getrandbits(1),
                              BitChunk(k, rng.getrandbits(k)))
            data = serialize_frame(SYN_BASIS, cb, cfg)
            assert len(data) == syn_basis_nbytes(cfg)
            assert parse_frame(SYN_BASIS, data, cfg) == cb


class TestCounters:
    def test_report_lines(self):
        c = Counters(raw_in=2, out_syn_basis=1, out_syn_id=1)
        lines = c.report().splitlines()
        assert lines[0] == "RAW_IN 2"
        assert len(lines) == 10

    def test_names_follow_the_fields(self):
        assert list(Counters().as_dict()) == [
            "RAW_IN", "OUT_SYN_BASIS", "OUT_SYN_ID", "IN_SYN_BASIS", "IN_SYN_ID",
            "RESTORED_RAW", "DIGESTS", "INSTALLS", "EVICTIONS", "DECODE_MISS"]
        with pytest.raises(InvariantViolation, match="decode_miss went negative"):
            Counters(decode_miss=-1).verify()

    def test_verify_accepts_consistent(self):
        Counters(raw_in=3, out_syn_basis=1, out_syn_id=2, in_syn_basis=1,
                 in_syn_id=2, restored_raw=3).verify()

    def test_verify_rejects_bad_totals(self):
        with pytest.raises(InvariantViolation):
            Counters(raw_in=1).verify()
        with pytest.raises(InvariantViolation):
            Counters(in_syn_id=2, restored_raw=1).verify()
        with pytest.raises(InvariantViolation):
            Counters(raw_in=-1).verify()

    def test_verify_rejects_installs_beyond_digests(self):
        Counters(digests=2, installs=2).verify()
        with pytest.raises(InvariantViolation, match="INSTALLS > DIGESTS"):
            Counters(digests=1, installs=2).verify()

    def test_verify_rejects_evictions_beyond_digests(self):
        Counters(digests=2, evictions=2).verify()
        with pytest.raises(InvariantViolation, match="EVICTIONS > DIGESTS"):
            Counters(digests=1, evictions=2).verify()


class TestConfig:
    @pytest.mark.parametrize("kwargs", [
        dict(m=2),
        dict(m=16),
        dict(id_width=0),
        dict(id_width=25),
        dict(learning_delay=-1.0),
        dict(learning_delay=float("nan")),
    ])
    def test_rejects(self, kwargs):
        with pytest.raises(ValueError):
            PipelineConfig(**kwargs)

    @pytest.mark.parametrize("delay", [-1e-10, 1e-10, 1.5e-9, -math.inf,
                                       float("nan")])
    def test_delay_off_the_nanosecond_grid(self, delay):
        with pytest.raises(InvalidTime) as exc:
            PipelineConfig(learning_delay=delay)
        assert isinstance(exc.value, GdError)

    def test_inf_delay_allowed(self):
        PipelineConfig(learning_delay=math.inf)


class TestEncoderNode:
    def test_miss_emits_syn_basis_and_digest(self):
        pipe = Pipeline(CFG3)
        out, digest = pipe.encoder.process(Frame(RAW, chunk_of("00000100").to_bytes(), 0.0))
        assert out.kind == SYN_BASIS
        fields = parse_frame(SYN_BASIS, out.payload, CFG3)
        assert (fields.syndrome, fields.msb, str(fields.basis)) == (0b100, 0, "0000")
        assert digest is not None and str(digest.basis) == "0000"
        assert pipe.counters.out_syn_basis == 1 and pipe.counters.digests == 1

    def test_hit_emits_syn_id(self):
        pipe = Pipeline(CFG3)
        pipe.preload([0b0000])
        out, digest = pipe.encoder.process(Frame(RAW, chunk_of("00000100").to_bytes(), 0.0))
        assert out.kind == SYN_ID and digest is None
        fields = parse_frame(SYN_ID, out.payload, CFG3)
        assert (fields.syndrome, fields.msb, fields.basis_id) == (0b100, 0, 0)

    def test_codeword_chunk_zero_syndrome(self):
        pipe = Pipeline(CFG3)
        pipe.preload([0b0000, 0b1111])
        out, _ = pipe.encoder.process(Frame(RAW, chunk_of("11111111").to_bytes(), 0.0))
        fields = parse_frame(SYN_ID, out.payload, CFG3)
        assert (fields.syndrome, fields.msb, fields.basis_id) == (0, 1, 1)

    def test_digest_suppressed_while_pending(self):
        pipe = Pipeline(CFG3)
        frame = Frame(RAW, chunk_of("00000100").to_bytes(), 0.0)
        _, first = pipe.encoder.process(frame, 0.0)
        _, second = pipe.encoder.process(frame, 1e-6)
        assert first is not None and second is None
        assert pipe.counters.digests == 1

    def test_rejects_non_raw(self):
        pipe = Pipeline(CFG3)
        with pytest.raises(MalformedFrame):
            pipe.encoder.process(Frame(SYN_ID, b"\x00\x00\x00", 0.0))
        with pytest.raises(MalformedFrame):
            pipe.encoder.process(Frame(RAW, b"\x00\x00", 0.0))


class TestDecoderNode:
    def test_syn_basis_restores_chunk(self):
        pipe = Pipeline(CFG3)
        fields = EncodedChunk(0b100, 0, BitChunk(4, 0))
        frame = Frame(SYN_BASIS, serialize_frame(SYN_BASIS, fields, CFG3), 0.0)
        out = pipe.decoder.process(frame)
        assert out.kind == RAW and str(parse_frame(RAW, out.payload, CFG3)) == "00000100"

    def test_syn_id_restores_chunk(self):
        pipe = Pipeline(CFG3)
        pipe.preload([0b0000, 0b1111])
        fields = CompressedChunk(0, 1, 1)
        frame = Frame(SYN_ID, serialize_frame(SYN_ID, fields, CFG3), 0.0)
        out = pipe.decoder.process(frame)
        assert str(parse_frame(RAW, out.payload, CFG3)) == "11111111"

    def test_unknown_id_is_decode_miss(self):
        pipe = Pipeline(CFG3)
        frame = Frame(SYN_ID, serialize_frame(SYN_ID, CompressedChunk(0, 0, 7), CFG3), 0.0)
        with pytest.raises(DecodeMiss):
            pipe.decoder.process(frame)
        assert pipe.counters.decode_miss == 1
        pipe.counters.verify()

    def test_rejects_raw(self):
        pipe = Pipeline(CFG3)
        with pytest.raises(MalformedFrame):
            pipe.decoder.process(Frame(RAW, b"\x00", 0.0))


class TestControlPlane:
    def push_same(self, pipe, times):
        chunk = chunk_of("00000100")
        kinds = []
        for t in times:
            out, _ = pipe.encoder.process(Frame(RAW, chunk.to_bytes(), t), t)
            kinds.append(out.kind)
            pipe.control_plane_step(t)
        return kinds

    def test_learning_window(self):
        pipe = Pipeline(PipelineConfig(m=3, learning_delay=1.77e-3))
        kinds = self.push_same(pipe, [0.0, 1e-3, 1.77e-3, 1.771e-3, 2e-3])
        # install lands after the arrival at exactly t=delay
        assert kinds == [SYN_BASIS, SYN_BASIS, SYN_BASIS, SYN_ID, SYN_ID]
        assert pipe.counters.installs == 1

    def test_zero_delay_compresses_next_frame(self):
        pipe = Pipeline(PipelineConfig(m=3, learning_delay=0.0))
        kinds = self.push_same(pipe, [0.0, 1e-6])
        assert kinds == [SYN_BASIS, SYN_ID]

    def test_infinite_delay_never_installs(self):
        pipe = Pipeline(PipelineConfig(m=3, learning_delay=math.inf))
        kinds = self.push_same(pipe, [i * 1e-6 for i in range(5)])
        assert kinds == [SYN_BASIS] * 5
        assert pipe.counters.digests == 1 and pipe.counters.installs == 0

    def test_step_returns_installed_pairs(self):
        pipe = Pipeline(PipelineConfig(m=3, learning_delay=1e-6))
        chunk = chunk_of("00000100")
        pipe.encoder.process(Frame(RAW, chunk.to_bytes(), 0.0), 0.0)
        assert pipe.control_plane_step(0.0) == []
        assert pipe.control_plane_step(1e-6) == [(0, 0)]

    def test_full_dictionary_eviction_counts(self):
        pipe = Pipeline(PipelineConfig(m=3, id_width=1, learning_delay=0.0))
        pipe.preload([0b0001, 0b0010])
        assert pipe.counters.installs == 0  # preload is setup, not traffic
        chunk = chunk_of("00000000")  # basis 0000, not in table
        pipe.encoder.process(Frame(RAW, chunk.to_bytes(), 0.0), 0.0)
        pipe.control_plane_step(0.0)
        assert pipe.counters.installs == 1 and pipe.counters.evictions == 1
        assert pipe.state.lookup_basis(0) == 0  # id 0 recycled to basis 0000

    def test_poll_learns_every_due_digest_before_installing(self):
        # three digests fall due in one poll with two IDs: learning basis 3
        # evicts basis 1 before basis 1's install, so only 2 and 3 install
        pipe = Pipeline(PipelineConfig(m=3, id_width=1, learning_delay=1e-6))
        code = pipe.code
        for b in (1, 2, 3):
            pipe.push_chunk(join_chunk(0, gd_decode(0, BitChunk(code.k, b), code), code), 0.0)
        assert pipe.control_plane_step(1e-6) == [(2, 1), (3, 0)]
        assert (pipe.counters.installs, pipe.counters.evictions) == (2, 1)
        assert pipe.state.items() == [(0, 3), (1, 2)]
        pipe.counters.verify()

    def test_forward_view_always_subset_of_reverse(self):
        cfg = PipelineConfig(m=3, id_width=1, learning_delay=2e-6)
        pipe = Pipeline(cfg)
        rng = random.Random(2)
        for i in range(300):
            v = rng.getrandbits(8)
            pipe.push_chunk(BitChunk(8, v), i * 1e-6)
            for id_, basis in pipe.state.items():
                entry = pipe.state.entry(basis)
                assert entry is not None and entry[0] == id_
                assert pipe.state.lookup_basis(id_) == basis
        assert pipe.counters.decode_miss == 0
        pipe.counters.verify()

    def test_encoder_reads_the_control_planes_map(self):
        # a preload installs on the encoder side at once: no digest needed
        pipe = Pipeline(CFG3)
        assert pipe.preload([0b0101, 0b0000]) == 2
        assert pipe.state.items() == [(0, 0b0101), (1, 0b0000)]
        raw = Frame(RAW, chunk_of("00000100").to_bytes(), 0.0)  # basis 0000
        out, digest = pipe.encoder.process(raw, 0.0)
        assert out.kind == SYN_ID and digest is None
        assert parse_frame(SYN_ID, out.payload, CFG3).basis_id == 1
        out, digest = pipe.encoder.process(Frame(RAW, chunk_of("11111111").to_bytes(), 0.0))
        assert out.kind == SYN_BASIS and digest is not None
        assert pipe.counters.digests == 1

    def test_due_digest_for_a_preloaded_basis_is_dropped(self):
        pipe = Pipeline(PipelineConfig(m=3, id_width=1, learning_delay=1e-6))
        chunk = chunk_of("00000100")  # basis 0000
        pipe.push_chunk(chunk, 0.0)  # its digest falls due at 1 us
        assert pipe.preload([0b0000], 0.5e-6) == 1
        other = chunk_of("11111111")  # basis 1111
        assert pipe.push_chunk(other, 1e-6) == other
        assert pipe.state.entry(0b0000) == (0, 500)
        assert (pipe.counters.digests, pipe.counters.installs) == (2, 0)
        assert pipe.control.submit(0b0000, 1000)  # no longer pending
        pipe.control.poll(2000)
        assert pipe.state.items() == [(0, 0b0000), (1, 0b1111)]
        assert pipe.counters.installs == 1 and pipe.counters.evictions == 0
        pipe.counters.verify()

    @pytest.mark.parametrize("engine", ["scalar", "vector"])
    def test_evicting_basis_zero_counts(self, engine):
        # three bases, 0 among them, cycled through two IDs: every arrival
        # misses and is learned at once, and each learn past the first two
        # evicts; basis 0 is the victim of every third one
        cfg = PipelineConfig(m=3, id_width=1, learning_delay=0.0)
        code = build_code(3)
        chunks = [join_chunk(0, gd_decode(0, BitChunk(code.k, b), code), code)
                  for b in (0, 5, 9)] * 4
        trace = Trace.from_chunks(8, chunks)
        if engine == "scalar":
            pipe = Pipeline(cfg)
            _, counters, _ = pipe.replay(trace, 1e-6)
            state = pipe.state
        else:
            holder = []
            _, counters, _ = run_pipeline(trace, cfg, 1e-6, state_out=holder)
            state = holder[0]
        assert counters.digests == counters.installs == len(chunks)
        assert counters.evictions == len(chunks) - state.capacity
        assert state.entry(0) is None and len(state) == 2
        counters.verify()

    # churn-shaped traffic, 2-4x as many bases as IDs: each eviction makes
    # one victim search, the peek_victim call that learn makes. The replay
    # engine makes one lookup_id per SYN_ID frame, the scalar encoder one
    # per RAW frame; the benchmark's traced run checks the engine's counts
    @pytest.mark.parametrize("engine", ["scalar", "vector"])
    @pytest.mark.parametrize("delay", [0.0, 20e-6])
    @pytest.mark.parametrize("id_width, spread", [(3, 2), (4, 4), (5, 3), (6, 2)])
    def test_one_victim_search_per_eviction(self, dict_calls, engine, delay, id_width,
                                            spread):
        trace = gen_synthetic(TraceSpec(seed=id_width, chunk_count=1200, chunk_bits=256,
                                        distinct_bases=spread << id_width))
        cfg = PipelineConfig(m=8, id_width=id_width, learning_delay=delay)
        if engine == "scalar":
            counters = Pipeline(cfg).replay(trace, 1e-6)[1]
        else:
            counters = run_pipeline(trace, cfg, 1e-6)[1]
        assert counters.evictions > 0 and counters.out_syn_id > 0
        assert dict_calls["peek_victim"] == counters.evictions
        per_frame = counters.raw_in if engine == "scalar" else counters.out_syn_id
        assert dict_calls["lookup_id"] == per_frame


class TestAgainstControlPlaneModel:
    # churn-shaped traffic: uniform draws from 2-4x as many bases as IDs,
    # with polls skipped at random so that some polls find several digests
    # due and a later learn evicts an earlier one before its install
    @pytest.mark.parametrize("gap_ns", [0, 1, 1000])
    @pytest.mark.parametrize("id_width", [1, 2, 3, 4])
    def test_matches_linear_scan_model(self, gap_ns, id_width):
        rng = random.Random(id_width * 7 + gap_ns)
        lost = []  # learned mappings evicted before their install, per delay
        for delay_gaps in range(6):
            delay = delay_gaps * gap_ns
            cfg = PipelineConfig(m=8, id_width=id_width, learning_delay=delay * 1e-9)
            counters = Counters()
            state = DictionaryState(id_width)
            cp = ControlPlane(state, counters, cfg)
            model = ControlPlaneModel(id_width, delay)
            assert cp.delay == delay

            def next_event():
                return model.queue[0][1] + model.delay if model.queue else None

            assert cp.next_event_ns is None
            universe = rng.sample(range(1, 1 << 12), rng.randint(2, 4) << id_width) + [0]
            for i in range(250):
                t = i * gap_ns
                basis = rng.choice(universe)
                if basis not in state:
                    assert cp.submit(basis, t) == model.submit(basis, t)
                    assert cp.next_event_ns == next_event()
                else:
                    assert state.lookup_id(basis, t) == model.hit(basis, t)
                last = i == 249
                if last or rng.random() < 0.6:
                    now = t + delay if last else t  # the last poll drains the queue
                    assert cp.poll(now) == model.poll(now)
                    assert cp.next_event_ns == next_event()
                    assert (counters.digests, counters.installs, counters.evictions) == (
                        model.digests, model.installs, model.evictions)
                    assert {b: i for i, b in state.items()} == model.forward
                    assert state.items() == model.items()
                    assert all(state.entry(b) == model.entry(b) for b in universe)
            lost.append(model.digests - model.installs)
            assert model.evictions and cp.next_event_ns is None
        # at gap 0 every stamp ties, so a mapping learned early in a poll
        # can hold the smallest (last_used, id) and lose its ID in that poll
        if gap_ns == 0:
            assert all(lost)

    def test_never_due_without_learning(self):
        # learning_delay=inf: digests queue, but none ever falls due
        state, counters = DictionaryState(3), Counters()
        cp = ControlPlane(state, counters, PipelineConfig(m=8, id_width=3,
                                                          learning_delay=math.inf))
        assert cp.delay is None and cp.next_event_ns is None
        for t in range(20):
            assert cp.submit(t, t * 1000)
            assert cp.next_event_ns is None
            assert cp.poll(t * 1000 + 10**12) == []
        assert cp.next_event_ns is None and len(state) == 0
        assert (counters.digests, counters.installs) == (20, 0)


class TestRunPipeline:
    def test_thousand_identical_chunks_static(self):
        trace = Trace(256, bytes(32) * 1000)
        out, counters, (raw, enc) = run_pipeline(trace, CFG8, 1e-6, preload=[0])
        assert out.payload == trace.payload
        assert (raw, enc) == (32000, 3000)
        assert enc / raw == 3 / 32
        assert counters.out_syn_id == 1000

    def test_no_table_padding_overhead(self):
        spec = TraceSpec(seed=5, chunk_count=200, chunk_bits=256, distinct_bases=9)
        trace = gen_synthetic(spec)
        cfg = PipelineConfig(m=8, learning_delay=math.inf, alignment_padding=True)
        out, counters, (raw, enc) = run_pipeline(trace, cfg, 1e-6)
        assert out.payload == trace.payload
        assert enc / raw == 33 / 32
        assert counters.out_syn_basis == 200

    def test_single_basis_trace_static_all_compressed(self):
        spec = TraceSpec(seed=6, chunk_count=400, chunk_bits=256,
                         distinct_bases=1, codeword_prob=0.4)
        trace = gen_synthetic(spec)
        bases = compute_bases(trace, CFG8)
        assert len(bases) == 1
        out, counters, _ = run_pipeline(trace, CFG8, 1e-6, preload=bases)
        assert counters.out_syn_id == 400 and counters.out_syn_basis == 0
        assert out.payload == trace.payload

    @pytest.mark.parametrize("delay_us,gap_us", [
        (0, 1), (1, 1), (25, 10), (17, 4), (1770, 1),
    ])
    def test_learning_monotonicity(self, delay_us, gap_us):
        spec = TraceSpec(seed=2, chunk_count=2200, chunk_bits=256,
                         distinct_bases=1, codeword_prob=0.7)
        trace = gen_synthetic(spec)
        cfg = PipelineConfig(m=8, learning_delay=delay_us * 1e-6)
        _, counters, _ = run_pipeline(trace, cfg, gap_us * 1e-6)
        want = math.ceil(delay_us / gap_us) + 1 if gap_us else 1
        assert counters.out_syn_basis == want

    def test_chunk_size_mismatch(self):
        with pytest.raises(LengthMismatch):
            run_pipeline(Trace(16, bytes(2)), CFG8, 1e-6)

    @pytest.mark.parametrize("engine", ["run_pipeline", "compute_bases", "scalar"])
    def test_chunk_size_mismatch_names_both_sizes(self, engine):
        trace = Trace(16, bytes(2))
        call = {"run_pipeline": lambda: run_pipeline(trace, CFG8, 1e-6),
                "compute_bases": lambda: compute_bases(trace, CFG8),
                "scalar": lambda: Pipeline(CFG8).replay(trace, 1e-6)}[engine]
        with pytest.raises(LengthMismatch, match="16-bit chunks, config m=8 needs 256"):
            call()

    def test_state_out(self):
        trace = Trace(256, bytes(32) * 3)
        holder = []
        run_pipeline(trace, PipelineConfig(m=8, learning_delay=0.0), 1e-6,
                     state_out=holder)
        assert len(holder) == 1 and holder[0].items() == [(0, 0)]

    def test_empty_trace(self):
        out, counters, (raw, enc) = run_pipeline(Trace(256, b""), CFG8, 1e-6)
        assert out.chunk_count == 0 and (raw, enc) == (0, 0)
        counters.verify()

    def test_decode_miss_is_an_invariant_violation(self, monkeypatch):
        # one dictionary makes a miss unreachable, so force one: the scalar
        # oracle drops the frame, the replay engine refuses the run
        spec = TraceSpec(seed=9, chunk_count=60, chunk_bits=256, distinct_bases=3)
        trace = gen_synthetic(spec)
        bases = compute_bases(trace, CFG8)
        real = DictionaryState.lookup_basis
        monkeypatch.setattr(DictionaryState, "lookup_basis",
                            lambda self, id_: None if id_ == 1 else real(self, id_))
        pipe = Pipeline(CFG8)
        pipe.preload(bases)
        assert 0 < pipe.replay(trace, 1e-6)[1].decode_miss < 60
        with pytest.raises(InvariantViolation, match=FOREIGN_ID):
            run_pipeline(trace, CFG8, 1e-6, preload=bases)

    def test_decode_miss_in_a_per_chunk_window(self, monkeypatch, dict_calls):
        # the first install falls due inside the only window, so it runs
        # chunk by chunk; lookup_id runs before the check there, and the
        # eventless path checks before any lookup_id
        spec = TraceSpec(seed=9, chunk_count=60, chunk_bits=256, distinct_bases=3)
        trace = gen_synthetic(spec)
        monkeypatch.setattr(DictionaryState, "lookup_basis", lambda self, id_: None)
        with pytest.raises(InvariantViolation, match=FOREIGN_ID):
            run_pipeline(trace, PipelineConfig(m=8, learning_delay=5e-6), 1e-6)
        assert dict_calls["lookup_id"] == 1

    @pytest.mark.parametrize("engine", ["run_pipeline", "replay_static"])
    def test_engine_verifies_counters(self, monkeypatch, engine):
        # a submit that does not count its digest: INSTALLS > DIGESTS. 12
        # bases against 4 IDs, so the static replay learns past its table
        trace = gen_synthetic(TraceSpec(seed=4, chunk_count=300, chunk_bits=256,
                                        distinct_bases=12))
        cfg = PipelineConfig(m=8, id_width=2, learning_delay=5e-6)
        real = ControlPlane.submit

        def uncounted(self, basis, now_ns):
            queued = real(self, basis, now_ns)
            self._counters.digests -= queued
            return queued

        monkeypatch.setattr(ControlPlane, "submit", uncounted)
        run = {"run_pipeline": run_pipeline, "replay_static": pipeline.replay_static}[engine]
        with pytest.raises(InvariantViolation, match="INSTALLS > DIGESTS"):
            run(trace, cfg, 1e-6)

    def test_resolved_basis_must_be_the_encoders(self, monkeypatch):
        trace = Trace(256, bytes(32) * 3)
        monkeypatch.setattr(DictionaryState, "lookup_basis", lambda self, id_: 1)
        with pytest.raises(InvariantViolation):
            run_pipeline(trace, CFG8, 1e-6, preload=[0])

    def test_wide_code_scalar_fallback(self):
        # m=14 runs the bit-sliced vector transforms, as every m does
        spec = TraceSpec(seed=41, chunk_count=12, chunk_bits=1 << 14,
                         distinct_bases=2, codeword_prob=0.5)
        trace = gen_synthetic(spec)
        cfg = PipelineConfig(m=14, learning_delay=2e-6)
        holder = []
        out, counters, (raw, enc) = run_pipeline(trace, cfg, 1e-6,
                                                 state_out=holder)
        assert out.payload == trace.payload
        assert raw == 12 * 2048
        assert counters.decode_miss == 0
        counters.verify()
        assert len(holder[0].items()) == counters.installs


class TestGapValidation:
    """Both replay engines take the same gaps and reject the same gaps."""

    TRACE = Trace(8, bytes(4))

    @pytest.mark.parametrize("gap", [math.inf, -math.inf, float("nan"),
                                     1e-10, -1e-10, 2.5e-9, -1e-6])
    def test_rejected_by_both_engines(self, gap):
        with pytest.raises(InvalidTime):
            run_pipeline(self.TRACE, CFG3, gap)
        with pytest.raises(InvalidTime):
            Pipeline(CFG3).replay(self.TRACE, gap)

    @pytest.mark.parametrize("gap", [0.0, 1e-9, 3e-9, 1.77e-3, 2.5e-6])
    def test_nanosecond_gaps_accepted(self, gap):
        assert run_pipeline(self.TRACE, CFG3, gap)[1] == Pipeline(CFG3).replay(
            self.TRACE, gap)[1]


def _codes():
    return [(m, low) for m, lows in GENERATOR_REGISTRY.items() for low in lows]


class TestVectorTables:
    """The batch transforms against independent references, for every
    registered generator."""

    @pytest.mark.parametrize("m,low", _codes())
    def test_column_tables_match_long_division(self, m, low):
        # the kernel on a row holding one set bit, in the first, the last
        # and a random byte column: syn gives x^pos mod g, par x^(pos+m)
        tabs = _vector_tables(m, low)
        rng = random.Random(m * 1000 + low)
        for j in {0, tabs.width - 1, rng.randrange(tabs.width)}:
            for i in {0, 7, rng.randrange(8)}:
                pos = 8 * (tabs.width - 1 - j) + i
                row = np.zeros((1, tabs.width), dtype=np.uint8)
                row[0, j] = 1 << i
                assert pipeline._row_remainders(row, tabs.syn)[0] == remainder_of_int(
                    1 << pos, pos + 1, m, low)
                assert pipeline._row_remainders(row, tabs.par)[0] == remainder_of_int(
                    1 << (pos + m), pos + m + 1, m, low)

    @pytest.mark.parametrize("m,low", _codes())
    def test_parity_placement_matches_parity_of(self, m, low):
        code = build_code(m, low)
        width = (1 << m) // 8
        rng = random.Random(m * 1000 + low)
        bases = [0, (1 << code.k) - 1] + [rng.getrandbits(code.k) for _ in range(6)]
        rows = np.frombuffer(b"".join(b.to_bytes(width, "big") for b in bases),
                             dtype=np.uint8).reshape(len(bases), width).copy()
        zeros = np.zeros(len(bases), dtype=np.uint16)
        got = decode_batch(rows, zeros, zeros.astype(np.uint8), code).tobytes()
        want = b"".join(((parity_of(BitChunk(code.k, b), code) << code.k) | b)
                        .to_bytes(width, "big") for b in bases)
        assert got == want

    @pytest.mark.parametrize("m,low", _codes())
    def test_batch_matches_scalar_codec(self, m, low):
        code = build_code(m, low)
        width = (1 << m) // 8
        rng = random.Random(m * 1000 + low)
        payload = rng.randbytes(12 * width)
        msb, syn, rows = encode_batch(payload, code)
        for i in range(12):
            top, body = split_chunk(BitChunk.from_bytes(payload[i * width:(i + 1) * width]),
                                    code)
            s, basis = gd_encode(body, code)
            assert (msb[i], syn[i]) == (top, s)
            assert int.from_bytes(rows[i].tobytes(), "big") == basis.value
        assert decode_batch(rows, syn, msb, code).tobytes() == payload

    # the kernel transposes blocks of 2^18 / width rows: two whole blocks
    # and a partial tail, for 1-, 2-, 4- and 8-byte row words
    @pytest.mark.parametrize("m", [3, 4, 5, 8, 14, 15])
    def test_batch_spanning_kernel_blocks(self, m):
        code = build_code(m)
        width = (1 << m) // 8
        step = (1 << 18) // width
        count = 2 * step + 37
        rng = random.Random(m)
        payload = rng.randbytes(count * width)
        msb, syn, rows = encode_batch(payload, code)
        for i in {0, step - 1, step, 2 * step - 1, 2 * step, count - 1,
                  *rng.sample(range(count), 4)}:
            top, body = split_chunk(BitChunk.from_bytes(payload[i * width:(i + 1) * width]),
                                    code)
            s, basis = gd_encode(body, code)
            assert (msb[i], syn[i]) == (top, s)
            assert int.from_bytes(rows[i].tobytes(), "big") == basis.value
        assert decode_batch(rows, syn, msb, code).tobytes() == payload

    @pytest.mark.parametrize("m", [4, 8, 14])
    def test_rows_that_are_not_c_contiguous_decode_alike(self, m):
        code = build_code(m)
        width = (1 << m) // 8
        payload = random.Random(m).randbytes(50 * width)
        msb, syn, rows = encode_batch(payload, code)
        fortran, doubled = np.asfortranarray(rows), np.repeat(rows, 2, axis=0)[::2]
        assert not fortran.flags.c_contiguous and not doubled.flags.c_contiguous
        par = _vector_tables(m, code.generator.low_bits).par
        want = pipeline._row_remainders(rows, par)
        assert np.array_equal(pipeline._row_remainders(fortran, par), want)
        assert np.array_equal(pipeline._row_remainders(doubled, par), want)
        assert decode_batch(fortran, syn, msb, code).tobytes() == payload
        assert decode_batch(doubled, syn, msb, code).tobytes() == payload
        assert decode_batch(rows, syn, msb, code).tobytes() == payload

    @pytest.mark.parametrize("m", [3, 8, 14])
    def test_decode_restores_its_input_in_place(self, m):
        code = build_code(m)
        payload = random.Random(m).randbytes(20 * (1 << m) // 8)
        msb, syn, rows = encode_batch(payload, code)
        assert rows.flags.c_contiguous
        out = decode_batch(rows, syn, msb, code)
        assert out is rows
        assert out.tobytes() == payload

    def test_encode_batch_rejects_partial_chunk(self):
        with pytest.raises(LengthMismatch):
            encode_batch(bytes(33), build_code(8))


class TestWideCodes:
    """m=14 and m=15 take the same vectorized path as every other m."""

    @pytest.mark.parametrize("m", [14, 15])
    @pytest.mark.parametrize("mode", ["static", "dynamic", "no-table"])
    def test_matches_scalar_replay(self, m, mode):
        spec = TraceSpec(seed=m, chunk_count=40, chunk_bits=1 << m,
                         distinct_bases=6, codeword_prob=0.3)
        trace = gen_synthetic(spec)
        delay = {"static": 1.77e-3, "dynamic": 3e-6, "no-table": math.inf}[mode]
        cfg = PipelineConfig(m=m, id_width=2, learning_delay=delay)
        bases = compute_bases(trace, cfg)
        preload = bases[:4] if mode == "static" else None
        holder = []
        fast = run_pipeline(trace, cfg, 1e-6, preload=preload, state_out=holder)
        pipe = Pipeline(cfg)
        if preload is not None:
            pipe.preload(preload)
        slow = pipe.replay(trace, 1e-6)
        assert fast[1] == slow[1]
        assert fast[2] == slow[2]
        assert fast[0].payload == slow[0].payload == trace.payload
        fast_state = holder[0]
        assert fast_state.items() == pipe.state.items()
        assert fast_state.free_ids() == pipe.state.free_ids()
        assert [fast_state.entry(b) for b in bases] == [pipe.state.entry(b) for b in bases]
        fast[1].verify()
        if mode == "dynamic":
            assert fast[1].evictions > 0 and fast[1].out_syn_id > 0
        if mode == "static":
            assert fast[1].out_syn_id > 0

    @pytest.mark.parametrize("m", [14, 15])
    def test_compute_bases_matches_scalar(self, m):
        spec = TraceSpec(seed=m + 1, chunk_count=30, chunk_bits=1 << m, distinct_bases=5)
        trace = gen_synthetic(spec)
        code = build_code(m)
        seen = {}
        for chunk in trace.chunks():
            seen.setdefault(gd_encode(split_chunk(chunk, code)[1], code)[1].value, None)
        assert compute_bases(trace, PipelineConfig(m=m)) == list(seen)

    # only the scalar codec reads the 2^m-entry dict, so the vector paths
    # run with any read of it failing, forked replays included
    def test_vector_paths_never_read_the_syndrome_table(self, monkeypatch):
        spec = TraceSpec(seed=14, chunk_count=40, chunk_bits=1 << 14, distinct_bases=6)
        trace = gen_synthetic(spec)
        static = PipelineConfig(m=14, id_width=2)
        no_table = PipelineConfig(m=14, learning_delay=math.inf)
        want = (replay_static(trace, static, 1e-6)[:2], replay(trace, no_table, 1e-6)[:2],
                compute_bases(trace, static))

        def unread(code):
            raise AssertionError("the syndrome table was read")

        monkeypatch.setattr(HammingCode, "syndrome_table", property(unread))
        monkeypatch.setattr(pipeline, "WINDOW_BYTES", 8 * trace.chunk_nbytes)
        assert gen_synthetic(spec) == trace
        assert (replay_static(trace, static, 1e-6)[:2], replay(trace, no_table, 1e-6)[:2],
                compute_bases(trace, static)) == want


class TestScalarTimeChecks:
    """The scalar Pipeline's own timestamps, and the encoder's frame times,
    go through the same check as gaps: NaN, infinite, negative and
    sub-nanosecond times are refused."""

    TIMES = [float("nan"), math.inf, 1e-10, -1e-10]

    @pytest.mark.parametrize("at", TIMES)
    def test_push_chunk(self, at):
        with pytest.raises(InvalidTime, match="arrival time"):
            Pipeline(CFG3).push_chunk(BitChunk(8, 1), at)

    @pytest.mark.parametrize("now", TIMES)
    def test_control_plane_step(self, now):
        with pytest.raises(InvalidTime, match="control-plane time"):
            Pipeline(CFG3).control_plane_step(now)

    @pytest.mark.parametrize("now", TIMES)
    def test_preload(self, now):
        pipe = Pipeline(CFG3)
        with pytest.raises(InvalidTime, match="preload time"):
            pipe.preload([1], now)
        assert len(pipe.state) == 0

    @pytest.mark.parametrize("ts", TIMES + [-1.0])
    def test_encoder_frame_time(self, ts):
        pipe = Pipeline(CFG3)
        payload = BitChunk(8, 1).to_bytes()
        with pytest.raises(InvalidTime, match="frame time"):
            pipe.encoder.process(Frame(RAW, payload, ts))
        with pytest.raises(InvalidTime, match="frame time"):
            pipe.encoder.process(Frame(RAW, payload, 0.0), ts)
        assert pipe.counters.raw_in == pipe.counters.digests == 0

    def test_nanosecond_times_accepted(self):
        pipe = Pipeline(CFG3)
        assert pipe.preload([1], 3e-9) == 1
        assert pipe.push_chunk(BitChunk(8, 1), 2.5e-6) == BitChunk(8, 1)
        assert pipe.control_plane_step(1e-3) == []


def _window_case(mode):
    """(trace, config, preload) for one mode of the windowed-replay tests."""
    if mode == "m14":
        spec = TraceSpec(seed=14, chunk_count=40, chunk_bits=1 << 14,
                         distinct_bases=6, codeword_prob=0.3)
        cfg = PipelineConfig(m=14, id_width=2, learning_delay=3e-6)
        return gen_synthetic(spec), cfg, None
    # 40 bases against 16 IDs: the dynamic mode evicts, and the static
    # table holds only some of the bases
    spec = TraceSpec(seed=5, chunk_count=4500, chunk_bits=32,
                     distinct_bases=40, codeword_prob=0.3)
    delay = {"static": 1.77e-3, "dynamic": 3e-6, "no-table": math.inf}[mode]
    cfg = PipelineConfig(m=5, id_width=4, learning_delay=delay)
    trace = gen_synthetic(spec)
    preload = _scalar_bases(trace, cfg)[:12] if mode == "static" else None
    return trace, cfg, preload


def _chunk_bases(trace, cfg):
    """Each chunk's basis, by the scalar codec."""
    code = build_code(cfg.m)
    return [gd_encode(split_chunk(chunk, code)[1], code)[1].value for chunk in trace.chunks()]


def _scalar_bases(trace, cfg):
    return list(dict.fromkeys(_chunk_bases(trace, cfg)))


def _table(cfg, bases):
    """A fresh dictionary for cfg holding `bases`: a static table to
    start a replay from."""
    state = pipeline._dictionary(cfg)
    state.preload(bases)
    return state


@functools.cache
def _scalar_run(mode):
    """The reference replay of a window case, computed once per mode."""
    trace, cfg, preload = _window_case(mode)
    pipe = Pipeline(cfg)
    if preload is not None:
        pipe.preload(preload)
    out, counters, sizes = pipe.replay(trace, 1e-6)
    return out.payload, counters, sizes, pipe.state, _scalar_bases(trace, cfg)


class TestWindowedReplay:
    """run_pipeline and compute_bases stream the trace through windows of
    WINDOW_BYTES; the outputs must not depend on where windows break."""

    # a budget below one chunk still makes one-chunk windows
    @pytest.mark.parametrize("chunks", [1, 7, 4096, "all"])
    @pytest.mark.parametrize("mode", ["static", "dynamic", "no-table", "m14"])
    def test_matches_scalar_replay(self, monkeypatch, mode, chunks):
        trace, cfg, preload = _window_case(mode)
        width = trace.chunk_nbytes
        per = trace.chunk_count if chunks == "all" else chunks
        monkeypatch.setattr(pipeline, "WINDOW_BYTES", 1 if per == 1 else per * width)
        windows = trace.windows(pipeline.WINDOW_BYTES)
        assert len(list(windows)) == -(-trace.chunk_count // per)

        payload, counters, sizes, state, bases = _scalar_run(mode)
        holder = []
        out, got, got_sizes = run_pipeline(trace, cfg, 1e-6, preload=preload,
                                           state_out=holder)
        assert got == counters
        assert got_sizes == sizes
        assert out.payload == payload == trace.payload
        assert out.payload is trace.payload  # no second copy of the trace
        assert holder[0].items() == state.items()
        assert holder[0].free_ids() == state.free_ids()
        assert [holder[0].entry(b) for b in bases] == [state.entry(b) for b in bases]
        assert compute_bases(trace, cfg) == bases
        got.verify()
        if mode in ("dynamic", "m14"):
            assert got.evictions > 0 and got.out_syn_id > 0
        if mode == "static":
            assert got.out_syn_id > 0 and got.out_syn_basis > 0

    # static windows are all hits, checked once per distinct basis: the
    # miss raises in the window of id 1's first chunk, at that basis
    @pytest.mark.parametrize("chunks", [1, 7])
    def test_decode_miss_across_windows(self, monkeypatch, dict_calls, chunks):
        spec = TraceSpec(seed=9, chunk_count=60, chunk_bits=256, distinct_bases=3)
        trace = gen_synthetic(spec)
        monkeypatch.setattr(pipeline, "WINDOW_BYTES", chunks * trace.chunk_nbytes)
        bases = compute_bases(trace, CFG8)
        real = DictionaryState.lookup_basis  # counted by dict_calls

        def miss_on_id_1(self, id_):
            basis = real(self, id_)
            return None if id_ == 1 else basis

        monkeypatch.setattr(DictionaryState, "lookup_basis", miss_on_id_1)
        with pytest.raises(InvariantViolation, match=FOREIGN_ID):
            pipeline.replay(trace, CFG8, 1e-6, state=_table(CFG8, bases))
        seen = _chunk_bases(trace, CFG8)
        seen = seen[:seen.index(bases[1]) + 1]
        assert dict_calls["lookup_basis"] == sum(
            len(set(seen[i:i + chunks])) for i in range(0, len(seen), chunks))

    @pytest.mark.parametrize("chunks", [1, 7, 1000])
    def test_corrupt_restore_is_an_invariant_violation(self, monkeypatch, chunks):
        trace = gen_synthetic(TraceSpec(seed=3, chunk_count=50, chunk_bits=256,
                                        distinct_bases=4))
        monkeypatch.setattr(pipeline, "WINDOW_BYTES", chunks * trace.chunk_nbytes)
        real = pipeline.decode_batch

        def flip_one_bit(*args):
            out = real(*args)
            out[-1, -1] ^= 1
            return out

        monkeypatch.setattr(pipeline, "decode_batch", flip_one_bit)
        with pytest.raises(InvariantViolation, match="restore bit-identically"):
            run_pipeline(trace, CFG8, 1e-6)


@pytest.fixture
def dict_calls(monkeypatch):
    """Counts DictionaryState.lookup_id, lookup_basis and peek_victim
    calls, wrapping whatever those methods are when the fixture is set up."""
    calls = dict.fromkeys(("lookup_id", "lookup_basis", "peek_victim"), 0)
    for name in calls:
        def counted(self, *args, _real=getattr(DictionaryState, name), _name=name):
            calls[_name] += 1
            return _real(self, *args)
        monkeypatch.setattr(DictionaryState, name, counted)
    return calls


def _pattern_trace(pattern: str) -> Trace:
    """A trace whose i-th chunk has basis pattern[i] (one letter per
    basis), each occurrence of a basis one of 16 different chunks of it."""
    letters = sorted(set(pattern))
    n = len(letters)
    src = gen_synthetic(TraceSpec(seed=77, chunk_count=16 * n, chunk_bits=256,
                                  distinct_bases=n, codeword_prob=0.3,
                                  basis_distribution="round-robin"))
    w = src.chunk_nbytes
    seen = dict.fromkeys(letters, 0)
    parts = []
    for ch in pattern:
        j = letters.index(ch) + n * (seen[ch] % 16)
        seen[ch] += 1
        parts.append(src.payload[j * w:(j + 1) * w])
    return Trace(src.chunk_bits, b"".join(parts))


def _replay_against_scalar(trace, cfg, gap, preload=None, calls=None):
    """run_pipeline and Pipeline.replay must agree on the counters, the
    sizes, the restored payload and the whole final dictionary: entries
    with last_used, touch order, clock and free IDs. Returns the vector
    run's counters; `calls`, if given, is zeroed before the vector run,
    which runs last."""
    pipe = Pipeline(cfg)
    if preload is not None:
        pipe.preload(preload)
    slow = pipe.replay(trace, gap)
    if calls is not None:
        calls.update(dict.fromkeys(calls, 0))
    holder = []
    fast = run_pipeline(trace, cfg, gap, preload=preload, state_out=holder)
    assert fast[1] == slow[1]
    assert fast[2] == slow[2]
    assert fast[0].payload == slow[0].payload
    got, want = holder[0], pipe.state
    assert got.items() == want.items()
    assert got.free_ids() == want.free_ids()
    bases = _scalar_bases(trace, cfg)
    assert [got.entry(b) for b in bases] == [want.entry(b) for b in bases]
    assert list(got._entries.items()) == list(want._entries.items())
    assert got._clock == want._clock
    fast[1].verify()
    return fast[1]


def _distinct_per_window(trace, cfg, per):
    bases = _chunk_bases(trace, cfg)
    return sum(len(set(bases[i:i + per])) for i in range(0, len(bases), per))


class TestAllHitWindows:
    """A window whose distinct rows all hit, with no control-plane event
    due before its last chunk, resolves each distinct basis once; the
    results must equal the scalar Pipeline's all the same."""

    PER = 8  # chunks per window

    @pytest.fixture(autouse=True)
    def small_windows(self, monkeypatch):
        monkeypatch.setattr(pipeline, "WINDOW_BYTES", self.PER * 32)

    # basis B is first seen at chunk 3, so its install falls due 12 or 13
    # chunks later: at the last chunk of window 1 (which must then run
    # chunk by chunk) or at the first chunk of window 2 (so window 1 is
    # all hits). Window 0 is eventless either way: A resolves once there
    # and B submits once. Chunk 16 is B: compressed only if the install
    # came first.
    PATTERN = "AAAB" + "A" * 12 + "B" + "AB" * 12

    @pytest.mark.parametrize("delay, resolves", [(12, 1 + 8 + 2 + 2 + 2 + 1),
                                                 (13, 1 + 1 + 7 + 2 + 2 + 1)])
    def test_event_due_at_a_window_boundary(self, dict_calls, delay, resolves):
        trace = _pattern_trace(self.PATTERN)
        cfg = PipelineConfig(m=8, learning_delay=delay * 1e-6)
        a = _chunk_bases(trace, cfg)[0]
        counters = _replay_against_scalar(trace, cfg, 1e-6, [a], dict_calls)
        assert counters.installs == 1
        assert counters.out_syn_basis == (1 if delay == 12 else 2)
        assert dict_calls["lookup_basis"] == resolves
        assert dict_calls["lookup_id"] == counters.out_syn_id

    @pytest.mark.parametrize("gap", [1e-6, 2.5e-6])
    def test_dynamic_run_whose_later_windows_all_hit(self, monkeypatch, dict_calls, gap):
        monkeypatch.setattr(pipeline, "WINDOW_BYTES", 32 * 32)
        trace = gen_synthetic(TraceSpec(seed=31, chunk_count=600, chunk_bits=256,
                                        distinct_bases=5, codeword_prob=0.3))
        cfg = PipelineConfig(m=8, learning_delay=7e-6)
        counters = _replay_against_scalar(trace, cfg, gap, calls=dict_calls)
        assert counters.installs == 5 and counters.out_syn_basis > 0
        # the windows after learning settles resolve at most 5 of 32 rows
        assert dict_calls["lookup_basis"] < counters.out_syn_id // 2
        assert dict_calls["lookup_id"] == counters.out_syn_id

    @pytest.mark.parametrize("gap", [0.0, 1e-6])
    @pytest.mark.parametrize("collide", [False, True])
    def test_static_table(self, monkeypatch, dict_calls, gap, collide):
        # zero multipliers hash every row alike, so the exact bytes-key
        # grouping runs inside the all-hit path
        if collide:
            monkeypatch.setattr(pipeline, "_ROW_HASH", np.zeros(512, dtype=np.uint64))
        trace = gen_synthetic(TraceSpec(seed=32, chunk_count=300, chunk_bits=256,
                                        distinct_bases=6, codeword_prob=0.3))
        cfg = PipelineConfig(m=8)
        bases = compute_bases(trace, cfg)
        counters = _replay_against_scalar(trace, cfg, gap, bases, dict_calls)
        assert counters.out_syn_id == 300
        assert dict_calls["lookup_basis"] == _distinct_per_window(trace, cfg, self.PER)
        assert dict_calls["lookup_id"] == 300


@pytest.fixture
def calls(dict_calls, monkeypatch):
    """dict_calls, plus the ControlPlane.submit calls under "submit"."""
    dict_calls["submit"] = 0
    real = pipeline.ControlPlane.submit

    def counted(self, *args):
        dict_calls["submit"] += 1
        return real(self, *args)

    monkeypatch.setattr(pipeline.ControlPlane, "submit", counted)
    return dict_calls


class TestEventlessWindows:
    """A window with no control-plane event due by its last chunk, those
    its own digests schedule included, submits each missed basis once and
    resolves each hit basis once; any other window runs chunk by chunk.
    Both must equal the scalar Pipeline."""

    PER = 8  # chunks per window

    @pytest.fixture(autouse=True)
    def small_windows(self, monkeypatch):
        monkeypatch.setattr(pipeline, "WINDOW_BYTES", self.PER * 32)

    # B is first missed at chunk 3 of window 0 (chunks 0-7), so its
    # install falls due at chunk 3 + delay: at chunk 7, the window's last,
    # which then runs chunk by chunk (A resolves 6 times and B submits
    # twice), or at chunk 8, which leaves window 0 eventless (once each).
    PER_CHUNK, EVENTLESS = (6, 2), (1, 1)  # window 0's (resolves, submits)

    @pytest.mark.parametrize("delay, window0, window1", [
        (4, PER_CHUNK, (2, 0)),
        (5, EVENTLESS, (8, 0)),
    ])
    def test_first_miss_install_due_at_the_window_end(self, calls, delay, window0, window1):
        trace = _pattern_trace("AAABABAA" + "AB" * 4)
        cfg = PipelineConfig(m=8, learning_delay=delay * 1e-6)
        a = _chunk_bases(trace, cfg)[0]
        counters = _replay_against_scalar(trace, cfg, 1e-6, [a], calls)
        assert counters.digests == 1
        assert calls["lookup_basis"] == window0[0] + window1[0]
        assert calls["submit"] == window0[1] + window1[1]
        assert calls["lookup_id"] == counters.out_syn_id

    def test_digest_pending_from_an_earlier_window(self, calls):
        # B's install falls due at chunk 3 + 30, in window 4: windows 0 and
        # 1 both miss B and are eventless, and window 1's submit finds B's
        # digest pending. Window 4 runs chunk by chunk, and chunk 33, B's
        # first there, misses once more.
        trace = _pattern_trace("AAABAAAA" + "ABAAAAAB" + "A" * 16 + "AB" * 8)
        cfg = PipelineConfig(m=8, learning_delay=30e-6)
        a = _chunk_bases(trace, cfg)[0]
        counters = _replay_against_scalar(trace, cfg, 1e-6, [a], calls)
        assert counters.digests == counters.installs == 1
        assert counters.out_syn_basis == 4  # chunks 3, 9, 15 and 33
        assert calls["submit"] == 1 + 1 + 1
        assert calls["lookup_id"] == counters.out_syn_id

    # one or two new bases in every window, each learned long after it
    def test_windows_of_hits_and_misses(self, calls):
        trace = _pattern_trace("".join("A" * 5 + "BC"[w % 2] + "DEFGH"[w % 5] + "A"
                                       for w in range(10)))
        cfg = PipelineConfig(m=8, id_width=2, learning_delay=40e-6)
        counters = _replay_against_scalar(trace, cfg, 1e-6, calls=calls)
        assert counters.installs > 0 and counters.evictions > 0
        assert calls["lookup_id"] == counters.out_syn_id

    @pytest.mark.parametrize("m, count", [(3, 400), (8, 300), (14, 40)])
    @pytest.mark.parametrize("gap", [0.0, 1e-6])
    def test_matches_scalar(self, monkeypatch, calls, m, count, gap):
        trace = gen_synthetic(TraceSpec(seed=60 + m, chunk_count=count, chunk_bits=1 << m,
                                        distinct_bases=5, codeword_prob=0.3))
        monkeypatch.setattr(pipeline, "WINDOW_BYTES", 16 * trace.chunk_nbytes)
        cfg = PipelineConfig(m=m, id_width=2, learning_delay=40e-6)
        counters = _replay_against_scalar(trace, cfg, gap, calls=calls)
        assert calls["lookup_id"] == counters.out_syn_id

    @pytest.mark.parametrize("m, count", [(3, 400), (8, 300), (14, 40)])
    @pytest.mark.parametrize("gap", [0.0, 1e-6])
    def test_no_table_submits_once_per_basis_per_window(self, monkeypatch, calls, m,
                                                        count, gap):
        trace = gen_synthetic(TraceSpec(seed=70 + m, chunk_count=count, chunk_bits=1 << m,
                                        distinct_bases=5, codeword_prob=0.3))
        monkeypatch.setattr(pipeline, "WINDOW_BYTES", 16 * trace.chunk_nbytes)
        cfg = PipelineConfig(m=m, learning_delay=math.inf, alignment_padding=True)
        counters = _replay_against_scalar(trace, cfg, gap, calls=calls)
        assert counters.out_syn_basis == count and counters.digests == 5
        assert calls["submit"] == _distinct_per_window(trace, cfg, 16)
        assert calls["lookup_id"] == calls["lookup_basis"] == 0


def test_static_replay_resolves_each_basis_once_per_window(monkeypatch, dict_calls):
    """On a multi-window static trace the decoder resolves each distinct
    basis once per window, while the encoder still refreshes recency once
    per SYN_ID frame: lookup_id runs exactly OUT_SYN_ID times."""
    per = 256
    monkeypatch.setattr(pipeline, "WINDOW_BYTES", per * 32)
    trace = gen_synthetic(TraceSpec(seed=34, chunk_count=2000, chunk_bits=256,
                                    distinct_bases=7))
    cfg = PipelineConfig(m=8)
    _, counters, _ = run_pipeline(trace, cfg, 1e-6, preload=compute_bases(trace, cfg))
    assert counters.out_syn_id == 2000
    assert dict_calls["lookup_id"] == counters.out_syn_id
    assert dict_calls["lookup_basis"] == _distinct_per_window(trace, cfg, per) == 8 * 7


class TestRefreshPassesStoredKeys:
    """An eventless window's recency refresh hands lookup_id the int
    object the dictionary keeps as the basis's key, so that its dict probes
    match by identity instead of comparing two equal 247-bit ints."""

    # three 1 MiB windows of 32,768 chunks, each holding all 20 bases
    TRACE = TraceSpec(seed=5, chunk_count=3 * 32768, chunk_bits=256, distinct_bases=20)

    @pytest.fixture
    def stored(self, monkeypatch):
        """Per lookup_id hit, in call order: was its basis argument the
        dictionary's own key object?"""
        seen = []
        real = DictionaryState.lookup_id

        def recorded(self, basis, now):
            id_ = real(self, basis, now)
            if id_ is not None:
                seen.append(basis is self._reverse[id_])
            return id_
        monkeypatch.setattr(DictionaryState, "lookup_id", recorded)
        return seen

    @pytest.mark.parametrize("path", ["replay_static", "preloaded replay"])
    def test_static_table(self, stored, path):
        trace = gen_synthetic(self.TRACE)
        cfg = PipelineConfig(m=8)
        if path == "replay_static":
            counters = replay_static(trace, cfg, 1e-6)[0]
        else:
            counters = replay(trace, cfg, 1e-6, state=_table(cfg, compute_bases(trace, cfg)))[0]
        assert counters.out_syn_id == len(stored) == 98304
        assert all(stored)

    def test_eventless_windows_of_a_dynamic_run(self, stored):
        trace = gen_synthetic(self.TRACE)
        counters = replay(trace, PipelineConfig(m=8, learning_delay=1e-6), 1e-6)[0]
        assert counters.out_syn_id == len(stored) and counters.digests == 20
        # windows 2 and 3 run no event, and all of their chunks hit
        assert all(stored[-65536:])


def _static_against_scalar(trace, cfg, gap):
    """replay_static must equal the scalar Pipeline preloaded with
    compute_bases on the counters, the sizes, the restored payload and
    the whole final dictionary. Returns the number of distinct bases."""
    pipe = Pipeline(cfg)
    pipe.preload(compute_bases(trace, cfg))
    out, counters, sizes = pipe.replay(trace, gap)
    got_counters, got_sizes, state = pipeline.replay_static(trace, cfg, gap)
    assert got_counters == counters
    assert got_sizes == sizes
    assert out.payload == trace.payload
    want = pipe.state
    assert state.items() == want.items()
    assert state.free_ids() == want.free_ids()
    bases = _scalar_bases(trace, cfg)
    assert [state.entry(b) for b in bases] == [want.entry(b) for b in bases]
    assert list(state._entries.items()) == list(want._entries.items())
    assert state._clock == want._clock
    got_counters.verify()
    return len(bases)


class TestOnePassStatic:
    """replay_static learns each basis in the window that first holds it,
    reading the trace once; past the ID space it builds the table from
    compute_bases after all. Either way it equals the preloaded scalar
    Pipeline."""

    @pytest.mark.parametrize("m, id_width, count", [(3, 2, 40), (8, 3, 90), (14, 2, 24)])
    @pytest.mark.parametrize("extra", [0, 1])  # 1: preloading them all evicts
    @pytest.mark.parametrize("gap, padding", [(0.0, False), (1e-6, True)])
    @pytest.mark.parametrize("per", [3, None])  # chunks per window; None keeps 1 MiB
    def test_matches_preloaded_scalar(self, monkeypatch, m, id_width, count, extra,
                                      gap, padding, per):
        capacity = 1 << id_width
        trace = gen_synthetic(TraceSpec(
            seed=40 + m + extra, chunk_count=count, chunk_bits=1 << m,
            distinct_bases=capacity + extra, codeword_prob=0.3,
            basis_distribution="round-robin"))
        if per is not None:
            monkeypatch.setattr(pipeline, "WINDOW_BYTES", per * trace.chunk_nbytes)
        cfg = PipelineConfig(m=m, id_width=id_width, alignment_padding=padding)
        assert _static_against_scalar(trace, cfg, gap) == capacity + extra

    # C is first seen in the last 4-chunk window: with 2 IDs that is where
    # the one pass finds it cannot learn C without an eviction
    @pytest.mark.parametrize("id_width", [1, 15])
    def test_basis_first_seen_in_the_last_window(self, monkeypatch, id_width):
        monkeypatch.setattr(pipeline, "WINDOW_BYTES", 4 * 32)
        trace = _pattern_trace("AB" * 10 + "BAC")
        cfg = PipelineConfig(m=8, id_width=id_width)
        assert _static_against_scalar(trace, cfg, 1e-6) == 3

    @pytest.mark.parametrize("m", [3, 5, 8, 11, 14])
    def test_grouped_parity_decodes_like_the_plain_one(self, m):
        count = 300 if m <= 8 else 40
        trace = gen_synthetic(TraceSpec(seed=m, chunk_count=count, chunk_bits=1 << m,
                                        distinct_bases=5, codeword_prob=0.3))
        code = build_code(m)
        msb, syn, rows = encode_batch(trace.payload, code)
        first, group = pipeline._group_rows(rows)
        assert len(first) < len(rows)  # duplicates to share the parity of
        par = _vector_tables(m, code.generator.low_bits).par
        parity = pipeline._row_remainders(rows[first], par)
        plain = decode_batch(rows.copy(), syn, msb, code).tobytes()
        grouped = decode_batch(rows, syn, msb, code, parity[group]).tobytes()
        assert grouped == plain == trace.payload


class TestHashedDedup:
    """compute_bases dedups each window with a hashed unique that is
    checked row by row; a hash collision falls back to exact bytes keys."""

    M_VALUES = [3, 4, 5, 6, 8, 14, 15]

    @staticmethod
    def _trace(m):
        # wide chunks get fewer of them, so every m stays a few MB
        count = 600 if m <= 8 else 60
        spec = TraceSpec(seed=100 + m, chunk_count=count, chunk_bits=1 << m,
                         distinct_bases=min(9, 1 << (1 << m) - 1 - m),
                         codeword_prob=0.3)
        return gen_synthetic(spec), PipelineConfig(m=m)

    # budget None keeps WINDOW_BYTES; collide sets every multiplier to 0,
    # so all rows of 8 bytes or more hash alike and the fallback runs
    @pytest.mark.parametrize("m", M_VALUES)
    @pytest.mark.parametrize("budget", [None, "1 byte", "whole trace"])
    @pytest.mark.parametrize("collide", [False, True])
    def test_matches_scalar_dedup(self, monkeypatch, m, budget, collide):
        trace, cfg = self._trace(m)
        want = _scalar_bases(trace, cfg)
        assert len(want) > 1
        if budget is not None:
            monkeypatch.setattr(pipeline, "WINDOW_BYTES",
                                1 if budget == "1 byte" else len(trace.payload))
        if collide:
            monkeypatch.setattr(pipeline, "_ROW_HASH", np.zeros(512, dtype=np.uint64))
        assert compute_bases(trace, cfg) == want

    ROWS = np.array([[0] * 7 + [3], [0] * 7 + [1], [0] * 7 + [3],
                     [9] * 8, [0] * 7 + [1]], dtype=np.uint8)

    def test_distinct_rows_keeps_first_appearance_order(self):
        first, group = pipeline._group_rows(self.ROWS)
        assert first.tolist() == [0, 1, 3]
        assert group.tolist() == [0, 1, 0, 2, 1]

    def test_grouping_survives_a_hash_collision(self, monkeypatch):
        monkeypatch.setattr(pipeline, "_ROW_HASH", np.zeros(512, dtype=np.uint64))
        first, group = pipeline._group_rows(self.ROWS)
        assert first.tolist() == [0, 1, 3]
        assert group.tolist() == [0, 1, 0, 2, 1]

    # past _DICT_ROWS rows the rows are grouped by sorted keys; a bound of 0
    # sends every window there, hash collisions included
    @pytest.mark.parametrize("m", M_VALUES)
    @pytest.mark.parametrize("collide", [False, True])
    def test_sorted_keys_match_scalar_dedup(self, monkeypatch, m, collide):
        trace, cfg = self._trace(m)
        monkeypatch.setattr(pipeline, "_DICT_ROWS", 0)
        if collide:
            monkeypatch.setattr(pipeline, "_ROW_HASH", np.zeros(512, dtype=np.uint64))
        assert compute_bases(trace, cfg) == _scalar_bases(trace, cfg)

    @pytest.mark.parametrize("collide", [False, True])
    def test_sorted_keys_group_like_the_dict(self, monkeypatch, collide):
        if collide:
            monkeypatch.setattr(pipeline, "_ROW_HASH", np.zeros(512, dtype=np.uint64))
        rows = np.random.default_rng(5).integers(0, 3, (3000, 16), dtype=np.uint8)
        rows[:, :14] = 0  # 9 distinct rows
        by_dict = pipeline._group_rows(rows[:pipeline._DICT_ROWS])
        by_sort = pipeline._group_rows(rows)
        assert len(by_sort[0]) == 9
        assert by_sort[1][:pipeline._DICT_ROWS].tolist() == by_dict[1].tolist()
        assert (rows[by_sort[0]][by_sort[1]] == rows).all()
        assert by_sort[0].tolist() == sorted(by_sort[0].tolist())

    def test_multiplier_table_covers_the_widest_row(self):
        widest = (1 << max(GENERATOR_REGISTRY)) // 64
        table = pipeline._ROW_HASH
        assert len(table) >= widest and (table & np.uint64(1)).all()
        assert len(set(table.tolist())) == len(table)


class TestStartFromSnapshot:
    """A snapshot loads as the dictionary that either engine starts from,
    every entry under its own ID; the two must then agree."""

    # window 0 (chunks 0-7) hits only snapshot bases, so it is eventless;
    # then 9 new bases over the 4 free IDs of 8 evict
    @pytest.mark.parametrize("gap, delay", [(1e-6, 2e-6), (0.0, 0.0)])
    def test_replay_equals_scalar(self, tmp_path, monkeypatch, dict_calls, gap, delay):
        monkeypatch.setattr(pipeline, "WINDOW_BYTES", 8 * 32)
        trace = _pattern_trace("ABCABCAB" + "DEFGHIJKL" * 3 + "ABCA" * 4)
        cfg = PipelineConfig(m=8, id_width=3, learning_delay=delay)
        bases = _scalar_bases(trace, cfg) + [1]  # 1: a basis the trace lacks
        a, b, c = bases[:3]
        path = tmp_path / "snap.txt"
        path.write_text(f"6 {a:x}\n2 {b:x}\n7 1\n5 {c:x}\n")
        pipe = Pipeline(cfg, state=read_snapshot(path, 3, 247))
        out, want, want_sizes = pipe.replay(trace, gap)
        dict_calls.update(dict.fromkeys(dict_calls, 0))
        got, sizes, state = replay(trace, cfg, gap, state=read_snapshot(path, 3, 247))
        assert (got, sizes) == (want, want_sizes)
        assert out.payload == trace.payload
        assert state.items() == pipe.state.items()
        assert state.free_ids() == pipe.state.free_ids()
        assert [state.entry(x) for x in bases] == [pipe.state.entry(x) for x in bases]
        assert list(state._entries.items()) == list(pipe.state._entries.items())
        assert state._clock == pipe.state._clock
        got.verify()
        assert got.evictions > 0
        # an eventless window resolves each hit basis once, not per chunk
        assert dict_calls["lookup_basis"] < got.out_syn_id

    def test_preload_skips_mapped_bases(self, tmp_path):
        path = tmp_path / "snap.txt"
        path.write_text("5 1\n")
        pipe = Pipeline(CFG8, state=read_snapshot(path, 15, 247))
        assert pipe.preload([1]) == 0  # a mapped basis is skipped
        assert pipe.preload([2, 1, 2]) == 1
        assert pipe.state.items() == [(0, 2), (5, 1)]

    @pytest.mark.parametrize("id_width, basis_bits", [(14, 247), (15, 246), (15, None)])
    def test_state_of_other_widths(self, id_width, basis_bits):
        trace = gen_synthetic(TraceSpec(seed=1, chunk_count=4))
        state = DictionaryState(id_width, basis_bits)
        with pytest.raises(LengthMismatch, match="config needs 15, 247"):
            Pipeline(CFG8, state=state)
        with pytest.raises(LengthMismatch, match="config needs 15, 247"):
            replay(trace, CFG8, 1e-6, state=state)


class TestEvictionScaling:
    def test_static_preload_past_capacity(self):
        # a static table twice the ID space: the preload evicts among
        # entries that all share t=0, which used to cost a walk of the
        # whole table per eviction: 4.4-7.0 s on a 2-vCPU Xeon VM, against
        # under 0.2 s with the victim heap
        w = 12
        cfg = PipelineConfig(m=8, id_width=w)
        spec = TraceSpec(seed=1, chunk_count=1 << (w + 2), chunk_bits=256,
                         distinct_bases=1 << (w + 1), basis_distribution="round-robin")
        trace = gen_synthetic(spec)
        bases = compute_bases(trace, cfg)
        took = []
        for _ in range(2):
            t0 = time.perf_counter()
            _, counters, _ = run_pipeline(trace, cfg, 1e-6, preload=bases)
            took.append(time.perf_counter() - t0)
        assert counters.evictions == 10519
        assert min(took) < 1.0, took


class TestFrameBudget:
    # The eviction regime pays its Python frames per chunk and per install:
    # a churn-shaped replay (4x as many bases as IDs), in-process since it
    # is one window, is profiled frame by frame, so that a helper frame
    # added back to an install or to the per-chunk loop fails here
    def test_churn_replay_runs_no_helper_frames(self):
        spec = TraceSpec(seed=20, chunk_count=3000, chunk_bits=256, distinct_bases=64)
        trace = gen_synthetic(spec)
        cfg = PipelineConfig(m=8, id_width=4, learning_delay=5e-6)
        poll_code = ControlPlane.poll.__code__
        called, polls, open_polls = set(), [], []

        def profile(frame, event, arg):
            if event == "call":
                called.add(frame.f_code.co_name)
                if open_polls:
                    open_polls[-1].append(frame.f_code.co_name)
                if frame.f_code is poll_code:
                    open_polls.append([])
            elif event == "return" and frame.f_code is poll_code:
                polls.append(open_polls.pop())

        # a collection inside the replay would run other objects' finalizers
        gc.collect()
        gc.disable()
        sys.setprofile(profile)
        try:
            counters = replay(trace, cfg, 1e-6)[0]
        finally:
            sys.setprofile(None)
            gc.enable()
        evicting = [frames for frames in polls if "peek_victim" in frames]
        assert counters.evictions > 100 and evicting
        assert sum(frames.count("peek_victim") for frames in polls) == counters.evictions
        # an evicting install is poll -> learn -> peek_victim, nothing more
        for frames in evicting:
            assert frames == ["learn", "peek_victim"] * (len(frames) // 2), frames
        # the per-chunk loop tests membership and due times without a helper frame
        assert called.isdisjoint({"__contains__", "next_event_ns", "_check_basis"})


def _random_config(rng):
    m = rng.choice([3, 3, 4, 8])
    return PipelineConfig(
        m=m,
        id_width=rng.choice([1, 2, 3]),
        learning_delay=rng.choice([0.0, 2e-6, 3.7e-6, 1e-5, math.inf]),
        alignment_padding=rng.random() < 0.5,
    )


class TestScalarVectorEquivalence:
    @pytest.mark.parametrize("seed", range(8))
    def test_equivalence(self, seed):
        rng = random.Random(seed)
        cfg = _random_config(rng)
        spec = TraceSpec(
            seed=seed, chunk_count=rng.randrange(150, 500),
            chunk_bits=1 << cfg.m,
            distinct_bases=rng.randrange(2, 14),
            codeword_prob=rng.random())
        trace = gen_synthetic(spec)
        preload = None
        if rng.random() < 0.3:
            preload = compute_bases(trace, cfg)
        gap = rng.choice([0.0, 1e-6, 2.5e-6])
        fast_state, slow_state = [], []
        fast = run_pipeline(trace, cfg, gap, preload=preload, state_out=fast_state)
        pipe = Pipeline(cfg)
        if preload is not None:
            pipe.preload(preload)
        slow = pipe.replay(trace, gap)
        slow_state.append(pipe.state)
        assert fast[0].payload == slow[0].payload == trace.payload
        assert fast[1] == slow[1]
        assert fast[2] == slow[2]
        assert fast_state[0].items() == slow_state[0].items()
        assert fast_state[0].free_ids() == slow_state[0].free_ids()
        fast[1].verify()
        assert fast[1].decode_miss == 0

    def test_compute_bases_matches_scalar(self):
        spec = TraceSpec(seed=12, chunk_count=120, chunk_bits=16, distinct_bases=6)
        trace = gen_synthetic(spec)
        cfg = PipelineConfig(m=4)
        from gdpipe.gdcore import build_code, gd_encode, split_chunk
        code = build_code(4)
        seen = {}
        for chunk in trace.chunks():
            _, body = split_chunk(chunk, code)
            _, basis = gd_encode(body, code)
            seen.setdefault(basis.value, None)
        assert compute_bases(trace, cfg) == list(seen)


class TestPipelineHarness:
    def test_timestamp_order_enforced(self):
        pipe = Pipeline(CFG3)
        pipe.push_chunk(BitChunk(8, 1), 1e-3)
        with pytest.raises(ValueError):
            pipe.push_chunk(BitChunk(8, 1), 0.5e-3)

    def test_collect_frames(self):
        pipe = Pipeline(PipelineConfig(m=3, learning_delay=0.0), collect_frames=True)
        for i in range(3):
            pipe.push_chunk(BitChunk(8, 4), i * 1e-6)
        kinds = [f.kind for f in pipe.wire_frames]
        assert kinds == [SYN_BASIS, SYN_ID, SYN_ID]

    def test_replay_losslessness(self):
        spec = TraceSpec(seed=8, chunk_count=300, chunk_bits=8, distinct_bases=5,
                         codeword_prob=0.2)
        trace = gen_synthetic(spec)
        pipe = Pipeline(PipelineConfig(m=3, id_width=2, learning_delay=1e-6))
        out, counters, _ = pipe.replay(trace, 1e-6)
        assert out.payload == trace.payload
        counters.verify()


@pytest.fixture
def forks(monkeypatch):
    """The os.fork calls made while the test runs, one entry each."""
    made = []
    real = os.fork

    def counted():
        made.append(1)
        return real()

    monkeypatch.setattr(os, "fork", counted)
    return made


@contextlib.contextmanager
def _second_thread():
    """A second Python thread, alive for the block."""
    done = threading.Event()
    thread = threading.Thread(target=done.wait)
    thread.start()
    try:
        yield
    finally:
        done.set()
        thread.join(10)
        assert not thread.is_alive()


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _transport_case(kind):
    """(trace, config, engine) for one kind of the transport tests."""
    if kind == "no-table":  # half the bases preloaded, so some chunks hit
        trace = gen_synthetic(TraceSpec(seed=23, chunk_count=1500, chunk_bits=256,
                                        distinct_bases=12))
        cfg = PipelineConfig(m=8, learning_delay=math.inf, alignment_padding=True)
        half = compute_bases(trace, cfg)[::2]
        return trace, cfg, lambda *args: replay(*args, state=_table(cfg, half))
    # 40 bases: they fit 6-bit IDs; 4-bit IDs make the static replay start
    # again from compute_bases and the dynamic one evict
    spec = TraceSpec(seed=22, chunk_count=3000, chunk_bits=32, distinct_bases=40,
                     codeword_prob=0.3)
    cfg, run = {"static": (PipelineConfig(m=5, id_width=6), replay_static),
                "static-past-ids": (PipelineConfig(m=5, id_width=4), replay_static),
                "churn": (PipelineConfig(m=5, id_width=4, learning_delay=3e-6), replay),
                }[kind]
    return gen_synthetic(spec), cfg, run


def _outcome(result, bases):
    """What a replay must give alike on both transports: counters, sizes,
    IDs, free IDs, entry() of every basis and the touch order."""
    counters, sizes, state = result
    return (counters, sizes, state.items(), state.free_ids(),
            [state.entry(b) for b in bases], list(state._entries))


class TestTransport:
    """replay runs the transforms in a forked child, one window ahead,
    when the source spans several windows, no other Python thread runs
    and a chunk can hit the dictionary; the outcome must not depend on
    where they ran, and no child may outlive the replay."""

    PER = 100  # chunks per window

    def _file(self, tmp_path, trace):
        path = tmp_path / "t.gdtrace"
        write_trace(trace, path)
        return path

    @pytest.mark.parametrize("source", ["trace", "file"])
    @pytest.mark.parametrize("kind", ["static", "static-past-ids", "churn", "no-table"])
    def test_forked_equals_in_process(self, tmp_path, monkeypatch, forks, kind, source):
        trace, cfg, run = _transport_case(kind)
        monkeypatch.setattr(pipeline, "WINDOW_BYTES", self.PER * trace.chunk_nbytes)
        bases = compute_bases(trace, cfg)
        path = self._file(tmp_path, trace)

        def outcome():
            if source == "trace":
                return _outcome(run(trace, cfg, 1e-6), bases)
            with TraceFile(path) as f:
                return _outcome(run(f, cfg, 1e-6), bases)

        forked = outcome()
        replays = 2 if kind == "static-past-ids" else 1
        assert len(forks) == replays
        _no_child_left()
        with _second_thread():
            in_process = outcome()
        assert len(forks) == replays
        assert forked == in_process
        counters = forked[0]
        counters.verify()
        if kind == "churn":
            assert counters.evictions > 0 and counters.out_syn_id > 0
        if kind == "no-table":
            assert counters.out_syn_id > 0 and counters.installs == 0
            assert forked[1][1] == counters.out_syn_basis * 33 + counters.out_syn_id * 3

    # one window, a second thread alive, or a run where no chunk can hit
    # (learning off, nothing preloaded) keeps the transforms here
    @pytest.mark.parametrize("chunks, thread, delay, preload, forked", [
        (1000, False, 1.77e-3, False, 1), (1000, True, 1.77e-3, False, 0),
        (100, False, 1.77e-3, False, 0), (1000, False, math.inf, False, 0),
        (1000, False, math.inf, True, 1)])
    def test_transport_choice(self, monkeypatch, forks, chunks, thread, delay, preload,
                              forked):
        monkeypatch.setattr(pipeline, "WINDOW_BYTES", self.PER * 32)
        trace = gen_synthetic(TraceSpec(seed=3, chunk_count=chunks, chunk_bits=256,
                                        distinct_bases=4))
        cfg = PipelineConfig(m=8, learning_delay=delay)
        table = _table(cfg, compute_bases(trace, cfg)[:1] if preload else [])
        with _second_thread() if thread else contextlib.nullcontext():
            assert replay(trace, cfg, 1e-6, state=table)[0].restored_raw == chunks
        assert len(forks) == forked
        _no_child_left()

    @pytest.mark.parametrize("thread", [False, True])
    def test_restore_failure_in_a_later_window(self, monkeypatch, forks, dict_calls, thread):
        trace = gen_synthetic(TraceSpec(seed=3, chunk_count=1000, chunk_bits=256,
                                        distinct_bases=4))
        monkeypatch.setattr(pipeline, "WINDOW_BYTES", self.PER * 32)
        bases = compute_bases(trace, CFG8)
        real = pipeline.decode_batch
        decoded = []

        def flip_in_window_2(*args):
            out = real(*args)
            decoded.append(1)
            if len(decoded) == 3:
                out[-1, -1] ^= 1
            return out

        monkeypatch.setattr(pipeline, "decode_batch", flip_in_window_2)
        with _second_thread() if thread else contextlib.nullcontext():
            with pytest.raises(InvariantViolation) as exc:
                replay(trace, CFG8, 1e-6, state=_table(CFG8, bases))
        assert str(exc.value) == "chunks 200..299 did not restore bit-identically"
        # raised after that window's dictionary step, before the next one's
        assert dict_calls["lookup_id"] == 300
        assert len(forks) == (0 if thread else 1)
        _no_child_left()

    def test_file_truncated_after_open(self, tmp_path, monkeypatch, forks, dict_calls):
        trace = gen_synthetic(TraceSpec(seed=5, chunk_count=1000, chunk_bits=256,
                                        distinct_bases=4))
        monkeypatch.setattr(pipeline, "WINDOW_BYTES", self.PER * 32)
        bases = compute_bases(trace, CFG8)
        path = self._file(tmp_path, trace)
        with TraceFile(path) as f:
            os.truncate(path, 16 + 450 * 32)
            with pytest.raises(TruncatedFile) as exc:
                replay(f, CFG8, 1e-6, state=_table(CFG8, bases))
        assert str(exc.value) == f"{path}: expected 32000 payload bytes, found 14400"
        assert dict_calls["lookup_id"] == 400  # the four whole windows
        assert len(forks) == 1
        _no_child_left()

    @pytest.mark.parametrize("end", ["success", "dictionary raise", "static fallback"])
    def test_no_child_is_left_running(self, monkeypatch, forks, end):
        # every window's record outgrows a pipe's buffer, so the child is
        # still writing when the replay ends early
        trace = gen_synthetic(TraceSpec(seed=6, chunk_count=40_000, chunk_bits=256,
                                        distinct_bases=20_000))
        monkeypatch.setattr(pipeline, "WINDOW_BYTES", 8192 * 32)
        cfg = PipelineConfig(m=8, id_width=12 if end == "static fallback" else 15)
        if end == "dictionary raise":
            monkeypatch.setattr(DictionaryState, "lookup_basis", lambda self, id_: -1)
            with pytest.raises(InvariantViolation, match=FOREIGN_ID):
                replay(trace, cfg, 1e-6, state=_table(cfg, compute_bases(trace, cfg)))
        else:
            assert replay_static(trace, cfg, 1e-6)[0].restored_raw == 40_000
        assert len(forks) == (2 if end == "static fallback" else 1)
        _no_child_left()

    def test_replays_share_one_trace_file(self, tmp_path, monkeypatch, forks):
        # 12,000 body bytes, more than the buffered header read holds: each
        # replay must read every window itself, wherever the last one left
        # the file's shared offset
        trace, churn, _ = _transport_case("churn")
        monkeypatch.setattr(pipeline, "WINDOW_BYTES", self.PER * trace.chunk_nbytes)
        bases = compute_bases(trace, churn)
        past = PipelineConfig(m=5, id_width=4)
        path = self._file(tmp_path, trace)
        runs = [(replay, churn), (replay_static, past), (replay, churn)]
        with TraceFile(path) as f:
            shared = [_outcome(run(f, cfg, 1e-6), bases) for run, cfg in runs]
        fresh = []
        for run, cfg in runs:
            with TraceFile(path) as f:
                fresh.append(_outcome(run(f, cfg, 1e-6), bases))
        assert shared == fresh
        assert len(forks) == 8
        _no_child_left()


class TestPcapExport:
    def test_golden_bytes(self, tmp_path):
        path = tmp_path / "one.pcap"
        write_pcap([Frame(SYN_ID, b"\xa5\xff\xff", 1.000001)], path)
        data = path.read_bytes()
        global_hdr = struct.pack("<IHHiIII", 0xA1B23C4D, 2, 4, 0, 0, 65535, 1)
        record_hdr = struct.pack("<IIII", 1, 1000, 17, 17)
        ether = bytes.fromhex("020000000002") + bytes.fromhex("020000000001") \
            + (0x88B7).to_bytes(2, "big")
        assert data == global_hdr + record_hdr + ether + b"\xa5\xff\xff"

    def test_all_three_ethertypes(self, tmp_path):
        pipe = Pipeline(PipelineConfig(m=3, learning_delay=0.0), collect_frames=True)
        for i in range(2):
            pipe.push_chunk(BitChunk(8, 4), i * 1e-6)
        frames = [Frame(RAW, b"\x04", 0.0)] + pipe.wire_frames
        path = tmp_path / "mix.pcap"
        write_pcap(frames, path)
        data = path.read_bytes()
        for ethertype in (0x88B5, 0x88B6, 0x88B7):
            assert ethertype.to_bytes(2, "big") in data

    def test_nanosecond_apart_frames_keep_distinct_stamps(self, tmp_path):
        path = tmp_path / "ns.pcap"
        times = [1.0, 1.000000001, 1.000000002, 2.0 ** 32 - 1]
        write_pcap([Frame(RAW, bytes([i]), t) for i, t in enumerate(times)], path)
        data = path.read_bytes()
        stamps, off = [], 24
        while off < len(data):
            sec, ns, incl, _ = struct.unpack_from("<IIII", data, off)
            stamps.append((sec, ns))
            off += 16 + incl
        assert stamps == [(1, 0), (1, 1), (1, 2), (2 ** 32 - 1, 0)]

    @pytest.mark.parametrize("ts", [float("nan"), math.inf, -1.0, 2.0 ** 32, 2.0 ** 33,
                                    1.5e-9])
    def test_unwritable_time_is_refused(self, tmp_path, ts):
        path = tmp_path / "bad.pcap"
        with pytest.raises(InvalidTime, match="frame timestamp"):
            write_pcap([Frame(RAW, b"\x04", 0.0), Frame(RAW, b"\x04", ts)], path)
        assert not path.exists()
