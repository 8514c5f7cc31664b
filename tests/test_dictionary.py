import random
import tracemalloc

import pytest

from gdpipe.dictionary import (
    AlreadyKnown,
    DictionaryState,
    LearnOutcome,
    SnapshotError,
    read_snapshot,
)
from gdpipe.pipeline import ControlPlane, Counters, PipelineConfig


def preloaded(path, id_width, basis_bits=None):
    """A fresh state preloaded from a snapshot, as `run --snapshot-in` does."""
    pairs = read_snapshot(path, id_width, basis_bits)
    state = DictionaryState(id_width, basis_bits)
    ControlPlane(state, Counters(), PipelineConfig(id_width=id_width)).preload(pairs)
    return state


class ReferenceModel:
    """Linear-scan model of the same LRU semantics, for cross-checking."""

    def __init__(self, id_width):
        self.capacity = 1 << id_width
        self.entries = {}  # basis -> [id, last_used]
        self.next_free = 0

    def lookup(self, basis, now):
        if basis in self.entries:
            self.entries[basis][1] = now
            return self.entries[basis][0]
        return None

    def learn(self, basis, now):
        evicted = None
        if self.next_free < self.capacity:
            id_ = self.next_free
            self.next_free += 1
        else:
            id_, evicted = min(
                (v[0], b) for b, v in self.entries.items()
                if v[1] == min(e[1] for e in self.entries.values()))
            del self.entries[evicted]
        self.entries[basis] = [id_, now]
        return id_, evicted


def check_invariants(state: DictionaryState):
    pairs = state.items()
    ids = [i for i, _ in pairs]
    bases = [b for _, b in pairs]
    assert len(set(ids)) == len(ids)
    assert len(set(bases)) == len(bases)
    assert len(pairs) + state.free_count == state.capacity
    for id_, basis in pairs:
        assert state.lookup_basis(id_) == basis
        entry = state.entry(basis)
        assert entry is not None and entry[0] == id_
    assert set(ids).isdisjoint(state.free_ids())


def check_handover(state: DictionaryState, out: LearnOutcome, basis: int):
    """After an evicting learn: the victim is gone from both maps and its ID
    resolves to the new basis, so a stale key or reverse entry fails here."""
    check_invariants(state)
    assert state.entry(out.evicted_basis) is None
    assert state.lookup_basis(out.assigned) == basis
    assert state.entry(basis)[0] == out.assigned


class TestBasics:
    def test_fresh_pool_assigns_in_order(self):
        state = DictionaryState(id_width=15)
        outcomes = [state.learn(b, now=t) for t, b in enumerate([10, 20, 30])]
        assert [o.assigned for o in outcomes] == [0, 1, 2]
        assert all(o.evicted_basis is None for o in outcomes)
        assert state.lookup_id(10, now=5) == 0
        assert state.lookup_id(20, now=5) == 1

    def test_miss_returns_none_without_mutation(self):
        state = DictionaryState(id_width=4)
        assert state.lookup_id(7, now=1) is None
        assert len(state) == 0 and state.free_count == 16

    def test_lookup_basis(self):
        state = DictionaryState(id_width=4)
        assert state.lookup_basis(3) is None
        state.learn(99, now=0)
        assert state.lookup_basis(0) == 99
        with pytest.raises(ValueError):
            state.lookup_basis(16)
        with pytest.raises(ValueError):
            state.lookup_basis(-1)

    def test_already_known(self):
        state = DictionaryState(id_width=4)
        state.learn(5, now=0)
        with pytest.raises(AlreadyKnown):
            state.learn(5, now=1)

    def test_basis_width_validation(self):
        state = DictionaryState(id_width=4, basis_bits=4)
        with pytest.raises(ValueError):
            state.learn(16, now=0)
        with pytest.raises(ValueError):
            state.lookup_id(-1, now=0)

    def test_reads_check_their_argument_on_a_miss(self):
        # the reads skip their checks on a hit; a bad argument can never
        # hit, so it still raises however full the state is
        state = DictionaryState(id_width=2, basis_bits=4)
        for t, b in enumerate((1, 2, 3, 15)):
            state.learn(b, now=t)
        for bad in (-1, 16, 1 << 40):
            with pytest.raises(ValueError):
                state.lookup_id(bad, now=9)
        for bad in (-1, state.capacity, 1 << 40):
            with pytest.raises(ValueError):
                state.lookup_basis(bad)
        assert state.entry(1) == (0, 0)  # the misses touched nothing
        assert state.lookup_id(15, now=9) == 3 and state.lookup_basis(3) == 15


class TestLearnOutcome:
    def test_fields_and_equality(self):
        out = LearnOutcome(assigned=5, evicted_basis=None)
        assert (out.assigned, out.evicted_basis) == (5, None)
        assert out == LearnOutcome(5, None)
        assert out != LearnOutcome(5, 0)

    def test_is_read_only(self):
        out = LearnOutcome(5, 7)
        with pytest.raises(AttributeError):
            out.assigned = 6
        assert out.assigned == 5

    def test_is_a_plain_pair(self):
        # a named tuple: it equals, unpacks and indexes as (assigned, evicted_basis)
        out = LearnOutcome(5, None)
        assert out == (5, None) and len(out) == 2
        assigned, evicted = out
        assert (assigned, evicted, out[0]) == (5, None, 5)
        assert DictionaryState(id_width=1).learn(3, now=0) == (0, None)


class TestLearnAtId:
    def test_takes_the_given_id(self):
        state = DictionaryState(id_width=3)
        assert state.learn(10, now=0, id_=5) == LearnOutcome(5, None)
        assert state.learn(11, now=0, id_=0).assigned == 0
        assert state.free_ids() == (1, 2, 3, 4, 6, 7)
        assert [state.learn(20 + t, now=1).assigned for t in range(6)] == [1, 2, 3, 4, 6, 7]
        check_invariants(state)

    @pytest.mark.parametrize("id_", [5, -1, 8])
    def test_id_in_use_or_outside_the_space(self, id_):
        state = DictionaryState(id_width=3)
        state.learn(10, now=0, id_=5)
        with pytest.raises(ValueError):
            state.learn(11, now=4, id_=id_)
        assert state.entry(11) is None and state.free_count == 7
        assert state.learn(11, now=0).assigned == 0  # clock not moved to 4
        assert state.entry(11) == (0, 0)

    def test_matches_load(self, tmp_path):
        path = tmp_path / "snap.txt"
        path.write_text("6 4\n0 1\n3 3\n2 2\n")
        loaded = preloaded(path, id_width=3)
        state = DictionaryState(id_width=3)
        for id_, basis in [(6, 4), (0, 1), (3, 3), (2, 2)]:
            state.learn(basis, now=0, id_=id_)
        assert state.items() == loaded.items()
        assert state.free_ids() == loaded.free_ids() == (1, 4, 5, 7)
        assert [state.entry(b) for b in range(5)] == [loaded.entry(b) for b in range(5)]


class TestEviction:
    def test_capacity_two_hand_simulation(self):
        # 1-bit ID pool: learn b0, learn b1, touch b1, learn b2 evicts b0
        state = DictionaryState(id_width=1)
        assert state.learn(100, now=0).assigned == 0
        assert state.learn(101, now=1).assigned == 1
        assert state.lookup_id(101, now=2) == 1
        out = state.learn(102, now=3)
        assert (out.assigned, out.evicted_basis) == (0, 100)
        assert state.lookup_id(100, now=4) is None
        assert state.lookup_basis(0) == 102  # recycled id, never the old basis

    def test_tie_break_smaller_id(self):
        state = DictionaryState(id_width=2)
        for b in (10, 11, 12, 13):
            state.learn(b, now=0)  # all stamps equal
        state.lookup_id(10, now=0)  # touch id 0, stamp unchanged
        out = state.learn(14, now=0)
        assert (out.assigned, out.evicted_basis) == (0, 10)

    def test_decoder_reads_do_not_refresh(self):
        state = DictionaryState(id_width=1)
        state.learn(100, now=0)
        state.learn(101, now=1)
        state.lookup_basis(0)  # would save basis 100 if it refreshed
        out = state.learn(102, now=2)
        assert out.evicted_basis == 100

    def test_encoder_hits_do_refresh(self):
        state = DictionaryState(id_width=1)
        state.learn(100, now=0)
        state.learn(101, now=1)
        state.lookup_id(100, now=2)
        out = state.learn(102, now=3)
        assert out.evicted_basis == 101

    def test_peek_victim(self):
        state = DictionaryState(id_width=1)
        assert state.peek_victim() is None
        state.learn(100, now=0)
        assert state.peek_victim() is None  # pool not yet exhausted
        state.learn(101, now=1)
        assert state.peek_victim() == (0, 100)
        out = state.learn(102, now=2)
        assert (out.assigned, out.evicted_basis) == (0, 100)

    def test_eviction_is_lru_minimal(self):
        rng = random.Random(17)
        state = DictionaryState(id_width=3)
        stamps = {}
        for t in range(500):
            basis = rng.randrange(100)
            if state.entry(basis) is not None:
                state.lookup_id(basis, now=t)
                stamps[basis] = t
                continue
            out = state.learn(basis, now=t)
            if out.evicted_basis is not None:
                evicted_stamp = stamps.pop(out.evicted_basis)
                assert all(evicted_stamp <= s for s in stamps.values())
            stamps[basis] = t
            check_invariants(state)

    def test_monotone_clock_clamp(self):
        state = DictionaryState(id_width=2)
        state.learn(1, now=10)
        state.lookup_id(1, now=3)  # stale timestamp cannot rewind recency
        assert state.entry(1)[1] == 10


class TestAgainstReference:
    @pytest.mark.parametrize("seed", range(4))
    def test_random_walk_matches_model(self, seed):
        rng = random.Random(seed)
        state = DictionaryState(id_width=3)
        model = ReferenceModel(3)
        for t in range(400):
            basis = rng.randrange(40)
            got = state.lookup_id(basis, now=t)
            want = model.lookup(basis, now=t)
            assert got == want
            if got is None:
                out = state.learn(basis, now=t)
                want_id, want_evicted = model.learn(basis, now=t)
                assert (out.assigned, out.evicted_basis) == (want_id, want_evicted)
                if out.evicted_basis is not None:
                    check_handover(state, out, basis)
        check_invariants(state)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("id_width", [3, 5])
    def test_shared_timestamps_match_model(self, seed, id_width):
        # sixteen events per timestamp: evictions choose among tie groups,
        # and hits at the oldest timestamp keep an entry in its group
        rng = random.Random(seed)
        state = DictionaryState(id_width=id_width)
        model = ReferenceModel(id_width)
        for t in range(800):
            now = t // 16
            basis = rng.randrange(3 << id_width)
            got = state.lookup_id(basis, now=now)
            assert got == model.lookup(basis, now=now)
            if got is None:
                want_id, want_evicted = model.learn(basis, now=now)
                if want_evicted is not None:
                    assert state.peek_victim() == (want_id, want_evicted)
                out = state.learn(basis, now=now)
                assert (out.assigned, out.evicted_basis) == (want_id, want_evicted)
                if out.evicted_basis is not None:
                    check_handover(state, out, basis)
        check_invariants(state)

    def test_static_preload_ties_match_model(self):
        # every basis learned at one timestamp, as a static preload does,
        # then a few hits and more learns at that same timestamp
        state = DictionaryState(id_width=4)
        model = ReferenceModel(4)
        rng = random.Random(3)
        for basis in rng.sample(range(1000), 60):
            if model.entries and rng.random() < 0.3:
                touched = rng.choice(sorted(model.entries))
                assert state.lookup_id(touched, now=0) == model.lookup(touched, now=0)
            out = state.learn(basis, now=0)
            assert (out.assigned, out.evicted_basis) == model.learn(basis, now=0)
        check_invariants(state)

    def test_hit_and_learn_at_one_stamp_form_a_two_entry_group(self):
        # a hit at t=5 and a poll-time learn at t=5 leave two entries on the
        # oldest stamp; the smaller ID goes first, then the other
        state = DictionaryState(id_width=1)
        model = ReferenceModel(1)
        steps = [("learn", 100, 0), ("learn", 101, 1), ("hit", 101, 5), ("learn", 102, 5),
                 ("learn", 103, 6), ("learn", 104, 7), ("hit", 104, 9), ("learn", 105, 9),
                 ("learn", 106, 9)]
        for op, basis, now in steps:
            if op == "hit":
                assert state.lookup_id(basis, now) == model.lookup(basis, now)
                continue
            want = model.learn(basis, now)
            if want[1] is not None:
                assert state.peek_victim() == want
            out = state.learn(basis, now)
            assert (out.assigned, out.evicted_basis) == want
            check_invariants(state)
        assert {b: list(state.entry(b)) for _, b in state.items()} == model.entries

    @pytest.mark.parametrize("stamps", ["distinct", "tied"])
    def test_repeated_peeks_name_the_victim_learn_evicts(self, stamps):
        state = DictionaryState(id_width=3)
        model = ReferenceModel(3)
        for t in range(40):
            now = t if stamps == "distinct" else t // 12
            want = model.learn(1000 + t, now)
            if want[1] is not None:
                assert state.peek_victim() == state.peek_victim() == want
            out = state.learn(1000 + t, now)
            assert (out.assigned, out.evicted_basis) == want
        check_invariants(state)

    def test_learn_without_a_peek_at_distinct_stamps(self):
        rng = random.Random(11)
        state = DictionaryState(id_width=4)
        model = ReferenceModel(4)
        for t in range(600):
            basis = rng.randrange(48)
            got = state.lookup_id(basis, now=t)
            assert got == model.lookup(basis, now=t)
            if got is None:
                out = state.learn(basis, now=t)
                assert (out.assigned, out.evicted_basis) == model.learn(basis, now=t)
        check_invariants(state)

    def test_determinism(self):
        def run():
            state = DictionaryState(id_width=2)
            rng = random.Random(123)
            for t in range(200):
                b = rng.randrange(12)
                if state.lookup_id(b, now=t) is None:
                    state.learn(b, now=t)
            return state.items(), state.free_ids()

        assert run() == run()


class TestSnapshot:
    def test_roundtrip(self, tmp_path):
        state = DictionaryState(id_width=4, basis_bits=11)
        for t, b in enumerate((0x7FF, 0x001, 0x2A5)):
            state.learn(b, now=t)
        path = tmp_path / "snap.txt"
        state.save(path)
        assert path.read_text() == "0 7ff\n1 001\n2 2a5\n"
        loaded = preloaded(path, id_width=4, basis_bits=11)
        assert loaded.items() == state.items()
        assert loaded.free_ids() == tuple(range(3, 16))
        check_invariants(loaded)

    def test_load_with_id_holes(self, tmp_path):
        path = tmp_path / "snap.txt"
        path.write_text("1 0a\n5 0b\n")
        loaded = preloaded(path, id_width=3)
        assert loaded.items() == [(1, 0x0A), (5, 0x0B)]
        assert loaded.free_ids() == (0, 2, 3, 4, 6, 7)

    @pytest.mark.parametrize("text", [
        "0\n",            # missing field
        "0 zz\n",         # bad hex
        "99 0a\n",        # id out of range
        "1 0a\n1 0b\n",   # duplicate id
        "1 0a\n2 0a\n",   # duplicate basis
        # line ends that str.splitlines takes and save never writes
        "3 5\u20284 6\n", "3 5\x85\n", "3 5\u2029\n", "3 5\x0c4 6\n", "3 5\x0b\n",
        "3 5\x1c4 6\n", "3 5\x1d\n", "3 5\x1e\n", "3 5\r4 6\n", "3 5\r\r\n",
    ])
    def test_load_rejects_malformed(self, tmp_path, text):
        path = tmp_path / "snap.txt"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(SnapshotError):
            preloaded(path, id_width=3)

    @pytest.mark.parametrize("text,message", [
        ("0\n", "line 1: expected '<id> <basis-hex>'"),
        ("99 0a\n", "line 1: id 99 is not a free id of the 3-bit space"),
        ("1 0a\n\n1 0b\n", "line 1: id 1 is not a free id of the 3-bit space"),
        ("1 0b\n1 0a\n", "line 2: id 1 is not a free id of the 3-bit space"),
        ("1 0a\n2 0a\n", "line 1: basis already mapped to id 2"),
        ("2 0a\n1 0a\n", "line 2: basis already mapped to id 2"),
        ("3 1\n-1 2\n", "line 2: id -1 is not a free id of the 3-bit space"),
        # numbers that save never writes, which int() would read
        ("+5 5\n", "line 1: expected '<id> <basis-hex>'"),
        ("1_0 5\n", "line 1: expected '<id> <basis-hex>'"),
        ("\u0663 5\n", "line 1: expected '<id> <basis-hex>'"),  # Arabic-Indic 3
        ("0 0x5\n", "line 1: expected '<id> <basis-hex>'"),
        # whitespace that save never writes, which \s would take
        ("3 5\n 4\u3000a", "line 2: expected '<id> <basis-hex>'"),
        ("3 5\n\u00a04 a\n", "line 2: expected '<id> <basis-hex>'"),
        ("3 5\n4 a\u2003\n", "line 2: expected '<id> <basis-hex>'"),
        ("3 5\n\u3000\n", "line 2: expected '<id> <basis-hex>'"),
        # lines end at \n only, with one \r allowed before it, and are
        # counted so; every other line end is inside a line
        ("3 5\n4 6\u20285 7\n", "line 2: expected '<id> <basis-hex>'"),
        ("3 5\x85\n", "line 1: expected '<id> <basis-hex>'"),
        ("1 a\r\n\r\n2 b\x0c\n", "line 3: expected '<id> <basis-hex>'"),
        ("3 5\r\n4 6\r7 8\r\n", "line 2: expected '<id> <basis-hex>'"),
        ("3 5\n\x1d4 6\n", "line 2: expected '<id> <basis-hex>'"),
        ("3 5\u2029\n", "line 1: expected '<id> <basis-hex>'"),
        ("3 5\x0b4 6\n", "line 1: expected '<id> <basis-hex>'"),
        ("3 5\r\r\n", "line 1: expected '<id> <basis-hex>'"),
        ("\x1e\n3 5\n", "line 1: expected '<id> <basis-hex>'"),
        ("3 5\r\n4 zz\r\n", "line 2: expected '<id> <basis-hex>'"),
    ])
    def test_read_snapshot_names_the_line(self, tmp_path, text, message):
        # the line learn would have failed on, highest ID first
        path = tmp_path / "snap.txt"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(SnapshotError) as exc:
            read_snapshot(path, id_width=3)
        assert str(exc.value) == message
        with pytest.raises(SnapshotError) as exc:
            preloaded(path, id_width=3)
        assert str(exc.value) == message

    # the strict parse reads all that save writes, also with no
    # basis_bits (unpadded hex) and past test_roundtrip's widths
    @pytest.mark.parametrize("id_width,basis_bits", [(1, None), (24, 57)])
    def test_save_then_read_snapshot(self, tmp_path, id_width, basis_bits):
        state = DictionaryState(id_width, basis_bits)
        rng = random.Random(id_width)
        top = 1 << (basis_bits or 8)
        for t, basis in enumerate(rng.sample(range(top), min(top, 2 << id_width, 40))):
            state.learn(basis, now=t)
        path = tmp_path / "snap.txt"
        state.save(path)
        assert read_snapshot(path, id_width, basis_bits) == state.items()[::-1]

    def test_crlf_round_trip(self, tmp_path):
        # a saved snapshot with its "\n" turned into "\r\n" loads the same
        state = DictionaryState(4, basis_bits=11)
        for t, b in enumerate((0x7FF, 0x001, 0x2A5, 0)):
            state.learn(b, now=t)
        path = tmp_path / "snap.txt"
        state.save(path)
        path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
        assert path.read_bytes().count(b"\r\n") == 4
        assert read_snapshot(path, 4, 11) == state.items()[::-1]
        loaded = preloaded(path, 4, 11)
        assert loaded.items() == state.items() and loaded.free_ids() == state.free_ids()

    def test_ascii_spaces_and_tabs_separate_fields(self, tmp_path):
        state = DictionaryState(3, basis_bits=8)
        for t, basis in enumerate((0x0A, 0xFF, 0x00)):
            state.learn(basis, now=t)
        path = tmp_path / "snap.txt"
        state.save(path)
        assert read_snapshot(path, 3, 8) == state.items()[::-1]
        spaced = "".join(f"\t{id_} \t{basis:x}  \n \t\n" for id_, basis in state.items())
        path.write_text(spaced)
        assert read_snapshot(path, 3, 8) == state.items()[::-1]

    def test_read_snapshot_pairs_highest_id_first(self, tmp_path):
        path = tmp_path / "snap.txt"
        path.write_text("1 0a\n\n6 0c\n5 0b\n")
        assert read_snapshot(path, id_width=3) == [(6, 0x0C), (5, 0x0B), (1, 0x0A)]

    @pytest.mark.parametrize("text", ["0 800\n", "0 -1\n"])
    def test_load_rejects_basis_outside_basis_bits(self, tmp_path, text):
        path = tmp_path / "snap.txt"
        path.write_text(text)
        with pytest.raises(SnapshotError, match="line 1"):
            preloaded(path, id_width=3, basis_bits=11)

    def test_load_rejects_non_utf8(self, tmp_path):
        # used to escape as a bare UnicodeDecodeError
        path = tmp_path / "snap.txt"
        path.write_bytes(b"\xff\xfe\x00junk")
        with pytest.raises(SnapshotError, match="snap.txt"):
            preloaded(path, id_width=3)


def test_conservation_under_many_learns():
    state = DictionaryState(id_width=6)
    for t in range(1000):
        state.learn(t, now=t)
    assert len(state) == 64 and state.free_count == 0
    check_invariants(state)


def test_memory_follows_the_data_not_the_id_space(tmp_path):
    # a 2^24 ID space used to cost a 16M-entry free pool in every state
    path = tmp_path / "snap.txt"
    path.write_text("3 0a\n16777215 0b\n")
    tracemalloc.start()
    try:
        state = DictionaryState(id_width=24)
        for t in range(5):
            state.learn(100 + t, now=t)
        loaded = preloaded(path, id_width=24)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 256 * 1024
    assert state.free_count == (1 << 24) - 5
    assert [state.learn(200 + t, now=9).assigned for t in range(2)] == [5, 6]
    assert loaded.free_count == (1 << 24) - 2
    assert [loaded.learn(t, now=0).assigned for t in range(5)] == [0, 1, 2, 4, 5]
    assert loaded.free_count == (1 << 24) - 7


def test_free_pool_drains_in_order_around_holes(tmp_path):
    path = tmp_path / "snap.txt"
    path.write_text("0 1\n2 2\n3 3\n6 4\n")
    state = preloaded(path, id_width=3)
    assert state.free_ids() == (1, 4, 5, 7)
    assert [state.learn(10 + t, now=t).assigned for t in range(4)] == [1, 4, 5, 7]
    assert state.free_ids() == () and state.free_count == 0
    assert state.learn(20, now=9) == LearnOutcome(assigned=0, evicted_basis=1)
    check_invariants(state)
