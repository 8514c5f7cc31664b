"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
(visible with -s; test names carry the criterion numbers too).

The compression-ratio criteria replay the full 3.124M-chunk synthetic
trace; the whole module is expected to run in well under five minutes.
"""

import heapq
import math
import random
import time
from contextlib import contextmanager

import pytest

from gdpipe.cli import main
from gdpipe.dictionary import DictionaryState
from gdpipe.gdcore import (
    GENERATOR_REGISTRY,
    BitChunk,
    build_code,
    gd_decode,
    gd_encode,
    join_chunk,
    poly_mod,
    split_chunk,
)
from gdpipe.pipeline import (
    SYN_BASIS,
    SYN_ID,
    Pipeline,
    PipelineConfig,
    compute_bases,
    run_pipeline,
)
from gdpipe.traces import TraceSpec, gen_synthetic, write_trace

from oracles import remainder_of_str

# error position -> (single-bit sequence, syndrome) for the (7,4)/CRC-3 code
TABLE2_ROWS = {
    0: ("0000001", "001"),
    1: ("0000010", "010"),
    2: ("0000100", "100"),
    3: ("0001000", "011"),
    4: ("0010000", "110"),
    5: ("0100000", "111"),
    6: ("1000000", "101"),
}

FULL_TRACE_SPEC = TraceSpec(seed=20260809)  # 3,124,000 chunks, 100 bases


@contextmanager
def criterion(num, label, budget_s=None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num} {label}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    if budget_s is not None:
        assert elapsed < budget_s, f"criterion {num} took {elapsed:.1f}s (budget {budget_s}s)"
    print(f"ACCEPTANCE {num} {label}: PASS ({elapsed:.2f}s)")


@pytest.fixture(scope="module")
def full_trace():
    return gen_synthetic(FULL_TRACE_SPEC)


@pytest.fixture(scope="module")
def static_run(full_trace):
    """Static-table replay of the full trace; shared by criteria 5a and 6."""
    config = PipelineConfig(m=8, alignment_padding=False)
    start = time.perf_counter()
    bases = compute_bases(full_trace, config)
    out, counters, (raw, enc) = run_pipeline(full_trace, config, 1e-6,
                                             preload=bases)
    elapsed = time.perf_counter() - start
    assert out.payload == full_trace.payload
    return {"raw": raw, "encoded": enc, "counters": counters,
            "elapsed": elapsed, "bases": bases}


def test_criterion_1_table2_reproduction(capsys):
    with criterion(1, "Table 2 reproduction via tables --m 3", budget_s=1.0):
        assert main(["tables", "--m", "3"]) == 0
        lines = capsys.readouterr().out.splitlines()
        rows = {}
        for line in lines[1:]:
            syndrome, _, pos = line.partition(" -> ")
            bits = "".join("1" if i == int(pos) else "0" for i in range(6, -1, -1))
            rows[int(pos)] = (bits, syndrome)
        assert rows == TABLE2_ROWS
        # Hamming-syndrome column == CRC-3 column, row by row
        code = build_code(3)
        for bits, syndrome in TABLE2_ROWS.values():
            crc3 = poly_mod(BitChunk.from_str(bits), code.generator)
            assert format(crc3, "03b") == syndrome


def test_criterion_2_generator_table_validity():
    with criterion(2, "all registered generators are perfect codes", budget_s=10.0):
        for m, lows in sorted(GENERATOR_REGISTRY.items()):
            for low in lows:
                code = build_code(m, low)
                n = (1 << m) - 1
                syndromes = set(code.syndrome_table)
                assert len(code.syndrome_table) == n
                assert 0 not in syndromes
                assert syndromes == set(range(1, 1 << m))


def test_criterion_3_codec_roundtrip():
    with criterion(3, "codec roundtrip (exhaustive m=3,4; 1e5 random m=8)",
                   budget_s=30.0):
        for m in (3, 4):
            code = build_code(m)
            for v in range(1 << code.n):
                body = BitChunk(code.n, v)
                s, b = gd_encode(body, code)
                assert gd_decode(s, b, code) == body
        code = build_code(8)
        rng = random.Random(0xC0DE)
        for _ in range(100_000):
            chunk = BitChunk(256, rng.getrandbits(256))
            msb, body = split_chunk(chunk, code)
            s, b = gd_encode(body, code)
            assert join_chunk(msb, gd_decode(s, b, code), code) == chunk


def test_criterion_4_worked_42bit_example():
    with criterion(4, "42-bit worked example encodes to 24 bits"):
        chunks = ["0000000", "1111111", "0100000", "1111011", "1000000", "1011111"]
        assert len("".join(chunks)) == 42
        code = build_code(3)
        table = DictionaryState(id_width=1, basis_bits=4)

        encoded = []
        for text in chunks:
            syndrome, basis = gd_encode(BitChunk.from_str(text), code)
            id_ = table.lookup_id(basis.value, now=0)
            if id_ is None:
                id_ = table.learn(basis.value, now=0).assigned
            encoded.append((id_, format(syndrome, "03b")))

        reference_stream = "0|000|1|000|0|111|1|100|0|101|1|110"
        parts = reference_stream.split("|")
        reference_pairs = [(int(parts[2 * i]), parts[2 * i + 1]) for i in range(6)]
        assert encoded[:5] == reference_pairs[:5]
        # 6th entry: the reference stream lists 110, but the (7,4) table and
        # the long-division oracle both give 111 for chunk 1011111 (110
        # belongs to 1101111). Known typo in the reference; the oracle wins.
        oracle = remainder_of_str("1011111", 3, 0x3)
        assert format(oracle, "03b") == "111"
        assert encoded[5] == (1, "111")
        assert reference_pairs[5] == (1, "110")

        total_bits = sum(1 + len(dev) for _, dev in encoded)
        assert total_bits == 24


def test_criterion_5_compression_ratios(full_trace, static_run):
    with criterion(5, "ratios: static 3/32 exactly, no-table+padding 33/32",
                   budget_s=60.0 + static_run["elapsed"]):
        # (a) static table, padding off: every chunk leaves as a 3-byte
        # SYN_ID against the 32-byte original
        raw, enc = static_run["raw"], static_run["encoded"]
        assert raw == 3_124_000 * 32
        assert enc * 32 == raw * 3
        assert enc / raw == 3 / 32
        savings = 1 - enc / raw
        assert savings == 0.90625 and savings >= 0.89  # within the reported band
        assert static_run["counters"].out_syn_basis == 0

        # (b) no table, alignment padding on: every chunk leaves as 33 bytes
        config = PipelineConfig(m=8, learning_delay=math.inf, alignment_padding=True)
        out, counters, (raw, enc) = run_pipeline(full_trace, config, 1e-6)
        assert out.payload == full_trace.payload
        assert enc * 32 == raw * 33
        assert enc / raw == 33 / 32
        assert counters.out_syn_id == 0


def test_criterion_6_dynamic_learning_window(full_trace, static_run):
    with criterion(6, "1771-frame learning window; dynamic within 0.5% of static",
                   budget_s=60.0):
        # exact count: single-basis trace, 1.77 ms delay, 1 us inter-arrival
        spec = TraceSpec(seed=99, chunk_count=2500, chunk_bits=256,
                         distinct_bases=1, codeword_prob=0.5)
        trace = gen_synthetic(spec)
        config = PipelineConfig(m=8, learning_delay=1.77e-3)
        pipe = Pipeline(config, collect_frames=True)
        out, counters, _ = pipe.replay(trace, 1e-6)
        assert out.payload == trace.payload
        kinds = [f.kind for f in pipe.wire_frames]
        first_id = kinds.index(SYN_ID)
        assert first_id == 1771
        assert all(k == SYN_BASIS for k in kinds[:first_id])
        assert all(k == SYN_ID for k in kinds[first_id:])
        # ceil(L/g) + 1 in exact arithmetic (ns grid): ceil(1770) + 1
        delay_ns, gap_ns = 1_770_000, 1_000
        assert counters.out_syn_basis == -(-delay_ns // gap_ns) + 1 == 1771

        # convergence on the full trace (10 us gap; at 1 us the mandatory
        # >=1770-frame uncompressed prefix alone exceeds the 0.5% bound)
        out, counters, (raw, enc) = run_pipeline(full_trace, config, 1e-5)
        assert out.payload == full_trace.payload
        dynamic_ratio = enc / raw
        static_ratio = static_run["encoded"] / static_run["raw"]
        assert dynamic_ratio >= static_ratio
        assert dynamic_ratio / static_ratio - 1 < 0.005


def test_criterion_7_dictionary_stress():
    with criterion(7, "1e6 learns: bijection, conservation, LRU-minimal evictions",
                   budget_s=30.0):
        state = DictionaryState(id_width=15)
        heap = []     # (last_used, id, basis); stale entries skipped lazily
        shadow = {}   # basis -> (id, last_used)
        known = []
        rng = random.Random(515)
        clock = 0
        evictions = 0

        def oracle_top():
            while True:
                stamp, id_, basis = heap[0]
                if shadow.get(basis) == (id_, stamp):
                    return stamp, id_, basis
                heapq.heappop(heap)

        for i in range(1_000_000):
            if known and i % 16 == 0:  # interleave recency refreshes
                b = known[rng.randrange(len(known))]
                if b in shadow:
                    clock += 1
                    id_ = state.lookup_id(b, now=clock)
                    assert id_ == shadow[b][0]
                    shadow[b] = (id_, clock)
                    heapq.heappush(heap, (clock, id_, b))
            clock += 1
            basis = i
            out = state.learn(basis, now=clock)
            if out.evicted_basis is not None:
                evictions += 1
                stamp, id_, victim = oracle_top()
                assert victim == out.evicted_basis  # LRU-minimal, id tie-break
                assert id_ == out.assigned
                assert shadow.pop(victim) == (id_, stamp)
                heapq.heappop(heap)
            shadow[basis] = (out.assigned, clock)
            heapq.heappush(heap, (clock, out.assigned, basis))
            known.append(basis)
            if i % 250_000 == 0 or i == 999_999:
                pairs = state.items()
                assert len(pairs) + state.free_count == 32768
                assert len({b for _, b in pairs}) == len(pairs)
                for id_, b in pairs[:64]:
                    assert state.lookup_basis(id_) == b
                    assert shadow[b][0] == id_

        assert len(state) == 32768 and state.free_count == 0
        assert evictions == 1_000_000 - 32768
        assert shadow.keys() == {b for _, b in state.items()}


def test_criterion_8_lossless_end_to_end(tmp_path):
    with criterion(8, "100 seeded traces x 3 modes restore bit-exactly"):
        report = tmp_path / "report.txt"
        for seed in range(100):
            m = (3, 4, 8)[seed % 3]
            spec = TraceSpec(seed=seed, chunk_count=240, chunk_bits=1 << m,
                             distinct_bases=3 + seed % 8,
                             codeword_prob=(seed % 10) / 10)
            path = tmp_path / f"t{seed}.gdtrace"
            write_trace(gen_synthetic(spec), path)
            for mode, extra in (("no-table", []),
                                ("static", []),
                                ("dynamic", ["--delay", "13e-6"])):
                rc = main(["run", str(path), "--mode", mode, "--gap", "1e-6",
                           "--report", str(report), *extra])
                assert rc == 0, f"seed {seed} mode {mode} exited {rc}"
                fields = dict(line.split("=", 1)
                              for line in report.read_text().splitlines())
                assert fields["DECODE_MISS"] == "0"
                assert fields["RAW_IN"] == fields["RESTORED_RAW"] == "240"


def test_criterion_9_informational_benchmark(tmp_path, capsys):
    with criterion(9, "hardware figures replaced by informational benchmark"):
        spec = TraceSpec(seed=5, chunk_count=20_000, chunk_bits=256,
                         distinct_bases=20)
        path = tmp_path / "bench.gdtrace"
        write_trace(gen_synthetic(spec), path)
        assert main(["bench", str(path)]) == 0
        out = capsys.readouterr().out
        fields = dict(part.split("=", 1) for line in out.splitlines()
                      for part in line.split() if "=" in part)
        # throughput of the one-pass static replay is reported but
        # deliberately not thresholded
        assert float(fields["replay_s"]) >= 0
        assert float(fields["replay_chunks_per_s"]) > 0
        assert float(fields["replay_gbit_per_s"]) > 0
        assert fields["roundtrip_ok"] == "1"
