"""Encoder switch, decoder switch, control plane, and link simulation.

Three packet types cross the link: RAW (1) carries an unprocessed 2^m-bit
chunk, SYN_BASIS (2) carries syndrome + MSB + basis, SYN_ID (3) carries
syndrome + MSB + a short dictionary identifier. The control plane learns
unknown bases from digests after a configurable delay and installs each
mapping in that one poll, decoder side first.

Time is discrete-event. Configs speak float seconds; internally every
timestamp is an integer nanosecond count so scheduling comparisons are
exact (float seconds cannot represent the 1.77 ms / 1 us experiment grid
without off-by-one install ticks).
"""

from __future__ import annotations

import os
import pickle
import signal
import threading
from collections import deque
from contextlib import closing
from dataclasses import dataclass, fields
from functools import lru_cache
from itertools import repeat
from math import inf, isclose, isfinite, isinf

import numpy as np

from .dictionary import AlreadyKnown, DictionaryState
from .gdcore import (
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
    split_chunk,
)
from .traces import _PCAP_GLOBAL, _PCAP_RECORD, Trace

RAW = 1
SYN_BASIS = 2
SYN_ID = 3

# local-experimental EtherTypes used by the pcap exporter, one per kind
ETHERTYPES = {RAW: 0x88B5, SYN_BASIS: 0x88B6, SYN_ID: 0x88B7}


class MalformedFrame(GdError):
    """Frame payload has the wrong length, bad padding, or bad field widths."""


class DecodeMiss(GdError):
    """A SYN_ID frame referenced an identifier with no installed mapping."""


class InvariantViolation(GdError):
    """A pipeline bookkeeping invariant failed to hold."""


class InvalidTime(GdError, ValueError):
    """A time value is NaN, negative, infinite where it must be finite, not
    a whole number of nanoseconds, or past what its format can hold."""


def _to_ns(seconds: float) -> int:
    return round(seconds * 1e9)


def _time_ns(seconds: float, name: str) -> int:
    """A configured time in seconds as integer nanoseconds, the simulator's
    clock tick. A time off that grid (beyond float rounding) is rejected
    rather than rounded, so 1e-10 s never runs as 0."""
    if not isfinite(seconds * 1e9) or seconds < 0:
        raise InvalidTime(f"{name} must be a finite time >= 0, got {seconds!r}")
    ns = _to_ns(seconds)
    if not isclose(seconds * 1e9, ns, rel_tol=1e-12, abs_tol=1e-6):
        raise InvalidTime(f"{name} must be a whole number of nanoseconds, got {seconds!r}")
    return ns


def _check_chunk_bits(source, config: PipelineConfig) -> None:
    if source.chunk_bits != config.chunk_bits:
        raise LengthMismatch(
            f"trace holds {source.chunk_bits}-bit chunks, config m={config.m} "
            f"needs {config.chunk_bits}")


@dataclass(frozen=True, slots=True)
class Frame:
    kind: int
    payload: bytes
    timestamp: float = 0.0  # simulated seconds


@dataclass(frozen=True, slots=True)
class Digest:
    """Encoder-to-control-plane notification of an unknown basis."""

    basis: BitChunk
    emitted_at: float


@dataclass(frozen=True, slots=True)
class CompressedChunk:
    """Processed-and-compressed payload fields: (syndrome, msb, id)."""

    syndrome: int
    msb: int
    basis_id: int


@dataclass
class Counters:
    """Per-classification frame counts."""

    raw_in: int = 0
    out_syn_basis: int = 0
    out_syn_id: int = 0
    in_syn_basis: int = 0
    in_syn_id: int = 0
    restored_raw: int = 0
    digests: int = 0
    installs: int = 0
    evictions: int = 0
    decode_miss: int = 0

    def as_dict(self) -> dict[str, int]:
        return {f.name.upper(): getattr(self, f.name) for f in fields(self)}

    def report(self) -> str:
        """One "NAME count" line per classification."""
        return "\n".join(f"{name} {value}" for name, value in self.as_dict().items())

    def verify(self) -> None:
        for f in fields(self):
            if getattr(self, f.name) < 0:
                raise InvariantViolation(f"{f.name} went negative")
        if self.raw_in != self.out_syn_basis + self.out_syn_id:
            raise InvariantViolation("RAW_IN != OUT_SYN_BASIS + OUT_SYN_ID")
        if self.restored_raw != self.in_syn_basis + self.in_syn_id - self.decode_miss:
            raise InvariantViolation(
                "RESTORED_RAW != IN_SYN_BASIS + IN_SYN_ID - DECODE_MISS")
        # every install and every eviction serves one digest's basis
        if self.installs > self.digests:
            raise InvariantViolation("INSTALLS > DIGESTS")
        if self.evictions > self.digests:
            raise InvariantViolation("EVICTIONS > DIGESTS")


@dataclass(frozen=True, slots=True)
class PipelineConfig:
    m: int = 8
    id_width: int = 15
    learning_delay: float = 1.77e-3  # seconds; +inf disables learning
    alignment_padding: bool = False

    def __post_init__(self):
        if self.m not in GENERATOR_REGISTRY:
            raise ValueError(f"m={self.m} has no registered generator (3..15)")
        if not 1 <= self.id_width <= 24:
            raise ValueError("id_width must be in 1..24")
        if self.learning_delay != inf:
            _time_ns(self.learning_delay, "learning_delay")

    @property
    def chunk_bits(self) -> int:
        return 1 << self.m


# -- wire layouts -----------------------------------------------------------
#
# Fields are packed MSB-first and zero-padded at the tail to a whole byte.
# SYN_ID:    syndrome(m) | msb(1) | id(id_width)
# SYN_BASIS: syndrome(m) | [8 zero bits in alignment-padding mode] | msb(1) | basis(k)
# RAW:       the 2^m-bit chunk itself.

def raw_nbytes(config: PipelineConfig) -> int:
    return (1 << config.m) // 8


def syn_basis_nbytes(config: PipelineConfig) -> int:
    # m + 1 + k == 2^m, always byte-aligned; padding adds exactly one byte
    return (1 << config.m) // 8 + (1 if config.alignment_padding else 0)


def syn_id_nbytes(config: PipelineConfig) -> int:
    return (config.m + 1 + config.id_width + 7) // 8


def serialize_frame(kind: int, fields, config: PipelineConfig) -> bytes:
    if kind == RAW:
        if not isinstance(fields, BitChunk) or fields.length != config.chunk_bits:
            raise MalformedFrame(f"RAW payload must be a {config.chunk_bits}-bit chunk")
        return fields.to_bytes()
    if kind == SYN_BASIS:
        if not isinstance(fields, EncodedChunk):
            raise MalformedFrame("SYN_BASIS takes EncodedChunk fields")
        k = config.chunk_bits - 1 - config.m
        s, msb, basis = fields.syndrome, fields.msb, fields.basis
        if not 0 <= s < (1 << config.m) or msb not in (0, 1) or basis.length != k:
            raise MalformedFrame("SYN_BASIS field widths do not match config")
        v = s
        if config.alignment_padding:
            v <<= 8
        v = (((v << 1) | msb) << k) | basis.value
        return v.to_bytes(syn_basis_nbytes(config), "big")
    if kind == SYN_ID:
        if not isinstance(fields, CompressedChunk):
            raise MalformedFrame("SYN_ID takes CompressedChunk fields")
        s, msb, id_ = fields.syndrome, fields.msb, fields.basis_id
        if (not 0 <= s < (1 << config.m) or msb not in (0, 1)
                or not 0 <= id_ < (1 << config.id_width)):
            raise MalformedFrame("SYN_ID field widths do not match config")
        bits = config.m + 1 + config.id_width
        pad = -bits % 8
        v = ((((s << 1) | msb) << config.id_width) | id_) << pad
        return v.to_bytes(syn_id_nbytes(config), "big")
    raise MalformedFrame(f"unknown frame kind {kind}")


def parse_frame(kind: int, payload: bytes, config: PipelineConfig):
    """Inverse of serialize_frame. The kind is carried out-of-band (by the
    EtherType on a real wire): RAW and SYN_BASIS payloads can share a length."""
    if kind == RAW:
        if len(payload) != raw_nbytes(config):
            raise MalformedFrame(f"RAW payload must be {raw_nbytes(config)} bytes")
        return BitChunk.from_bytes(payload)
    if kind == SYN_BASIS:
        if len(payload) != syn_basis_nbytes(config):
            raise MalformedFrame(
                f"SYN_BASIS payload must be {syn_basis_nbytes(config)} bytes")
        k = config.chunk_bits - 1 - config.m
        v = int.from_bytes(payload, "big")
        basis = BitChunk(k, v & ((1 << k) - 1))
        v >>= k
        msb = v & 1
        v >>= 1
        if config.alignment_padding:
            if v & 0xFF:
                raise MalformedFrame("nonzero padding byte")
            v >>= 8
        return EncodedChunk(syndrome=v, msb=msb, basis=basis)
    if kind == SYN_ID:
        if len(payload) != syn_id_nbytes(config):
            raise MalformedFrame(
                f"SYN_ID payload must be {syn_id_nbytes(config)} bytes")
        bits = config.m + 1 + config.id_width
        pad = -bits % 8
        v = int.from_bytes(payload, "big")
        if v & ((1 << pad) - 1):
            raise MalformedFrame("nonzero tail padding bits")
        v >>= pad
        id_ = v & ((1 << config.id_width) - 1)
        v >>= config.id_width
        return CompressedChunk(syndrome=v >> 1, msb=v & 1, basis_id=id_)
    raise MalformedFrame(f"unknown frame kind {kind}")


# -- control plane ----------------------------------------------------------

class ControlPlane:
    """Digest queue plus delayed installs: the only writer of both switch tables.

    Both tables are the shared dictionary: the encoder reads its forward
    map and the decoder its reverse map, so one learn installs a mapping
    on both sides at once, and an eviction removes it from both. A digest
    emitted at t falls due at t + delay; one poll learns every due digest
    in emission order, and a later digest in the same poll can evict an
    earlier one before the poll returns.

    The plane is polled after each arrival, so an install becomes effective
    for the traffic *after* the first arrival at or past its ready time.
    """

    def __init__(self, state: DictionaryState, counters: Counters,
                 config: PipelineConfig):
        self._state = state
        self._counters = counters
        # ns from a digest to its install; None: never
        self.delay = None if isinf(config.learning_delay) else _to_ns(config.learning_delay)
        self._queue: deque[tuple[int, int]] = deque()  # (basis, emit_ns)
        self._pending: set[int] = set()
        # when the oldest queued digest falls due; None: nothing ever will
        self.next_event_ns: int | None = None

    def submit(self, basis: int, now_ns: int) -> bool:
        """Queue a digest for an unknown basis; False if one is already
        pending for it (re-emission suppressed)."""
        if basis in self._pending:
            return False
        self._pending.add(basis)
        self._counters.digests += 1
        if not self._queue and self.delay is not None:
            self.next_event_ns = now_ns + self.delay
        self._queue.append((basis, now_ns))
        return True

    def preload(self, items, now_ns: int = 0) -> int:
        """Learn and make bases visible to both sides immediately.

        This installs a static table before a run; such setup is not
        traffic and does not touch the counters. Each item is a basis,
        which takes the lowest free ID (or evicts), or an (id, basis) pair,
        which takes its own ID (ValueError if that ID is in use). Bases
        already mapped are skipped; returns how many were added.
        """
        state = self._state
        added = 0
        for item in items:
            id_, basis = item if isinstance(item, tuple) else (None, item)
            try:
                state.learn(basis, now_ns, id_)
            except AlreadyKnown:
                continue
            added += 1
        return added

    def poll(self, now_ns: int) -> list[tuple[int, int]]:
        """Learn every due digest; returns the (basis, id) pairs still
        installed when the poll ends, which INSTALLS counts."""
        if self.next_event_ns is None or self.next_event_ns > now_ns:
            return []
        delay, queue, counters = self.delay, self._queue, self._counters
        state = self._state
        learned = []
        while queue and queue[0][1] + delay <= now_ns:
            basis = queue.popleft()[0]
            self._pending.discard(basis)
            try:
                assigned, evicted = state.learn(basis, now_ns)
            except AlreadyKnown:  # preloaded while its digest waited
                continue
            if evicted is not None:  # basis 0 is a basis too
                counters.evictions += 1
                # a later learn can evict an earlier one, which held this ID
                if (evicted, assigned) in learned:
                    learned.remove((evicted, assigned))
            learned.append((basis, assigned))
        self.next_event_ns = queue[0][1] + delay if queue else None
        counters.installs += len(learned)
        return learned


# -- scalar per-frame nodes -------------------------------------------------

class EncoderNode:
    """Source switch: RAW in, SYN_BASIS or SYN_ID out, digests up."""

    def __init__(self, config: PipelineConfig, code: HammingCode,
                 state: DictionaryState, counters: Counters,
                 control: ControlPlane):
        self.config = config
        self.code = code
        self.state = state
        self.counters = counters
        self.control = control

    def process(self, frame: Frame, now: float | None = None,
                ) -> tuple[Frame, Digest | None]:
        if frame.kind != RAW:
            raise MalformedFrame("encoder expects RAW frames")
        chunk = parse_frame(RAW, frame.payload, self.config)
        ts = frame.timestamp if now is None else now
        now_ns = _time_ns(ts, "frame time")
        msb, body = split_chunk(chunk, self.code)
        syndrome, basis = gd_encode(body, self.code)
        self.counters.raw_in += 1
        id_ = self.state.lookup_id(basis.value, now_ns)  # a hit refreshes recency
        if id_ is not None:
            fields = CompressedChunk(syndrome=syndrome, msb=msb, basis_id=id_)
            self.counters.out_syn_id += 1
            return Frame(SYN_ID, serialize_frame(SYN_ID, fields, self.config), ts), None
        fields = EncodedChunk(syndrome=syndrome, msb=msb, basis=basis)
        self.counters.out_syn_basis += 1
        out = Frame(SYN_BASIS, serialize_frame(SYN_BASIS, fields, self.config), ts)
        digest = None
        if self.control.submit(basis.value, now_ns):
            digest = Digest(basis=basis, emitted_at=ts)
        return out, digest


class DecoderNode:
    """Destination switch: SYN_BASIS or SYN_ID in, restored RAW out."""

    def __init__(self, config: PipelineConfig, code: HammingCode,
                 state: DictionaryState, counters: Counters):
        self.config = config
        self.code = code
        self.state = state
        self.counters = counters

    def process(self, frame: Frame) -> Frame:
        if frame.kind == SYN_BASIS:
            fields = parse_frame(SYN_BASIS, frame.payload, self.config)
            self.counters.in_syn_basis += 1
            syndrome, msb, basis = fields.syndrome, fields.msb, fields.basis
        elif frame.kind == SYN_ID:
            fields = parse_frame(SYN_ID, frame.payload, self.config)
            self.counters.in_syn_id += 1
            value = self.state.lookup_basis(fields.basis_id)
            if value is None:
                self.counters.decode_miss += 1
                raise DecodeMiss(f"no mapping for id {fields.basis_id}")
            syndrome, msb = fields.syndrome, fields.msb
            basis = BitChunk(self.code.k, value)
        else:
            raise MalformedFrame("decoder expects SYN_BASIS or SYN_ID frames")
        body = gd_decode(syndrome, basis, self.code)
        chunk = join_chunk(msb, body, self.code)
        self.counters.restored_raw += 1
        return Frame(RAW, chunk.to_bytes(), frame.timestamp)


class Pipeline:
    """One encoder, a zero-delay link, one decoder, one control plane.

    Arrivals must be pushed in timestamp order; the control plane is
    polled after each arrival. This is the scalar reference world;
    run_pipeline() replays whole traces through vectorized machinery,
    equivalent wherever the one dictionary is consistent: a SYN_ID frame
    with an unmapped ID is a dropped DecodeMiss here, an
    InvariantViolation there.
    """

    def __init__(self, config: PipelineConfig, collect_frames: bool = False):
        self.config = config
        self.code = build_code(config.m)
        self.state = DictionaryState(config.id_width, basis_bits=self.code.k)
        self.counters = Counters()
        self.control = ControlPlane(self.state, self.counters, config)
        self.encoder = EncoderNode(config, self.code, self.state,
                                   self.counters, self.control)
        self.decoder = DecoderNode(config, self.code, self.state, self.counters)
        self.wire_frames: list[Frame] | None = [] if collect_frames else None
        self._last_ns = 0
        self.encoded_bytes = 0

    def preload(self, bases, now: float = 0.0) -> int:
        """Install mappings for every given basis, or (id, basis) pair,
        before replay (static table); duplicates are skipped, counters
        untouched. See ControlPlane.preload."""
        return self.control.preload(bases, _time_ns(now, "preload time"))

    def control_plane_step(self, now: float) -> list[tuple[int, int]]:
        return self.control.poll(_time_ns(now, "control-plane time"))

    def push_chunk(self, chunk: BitChunk, at: float) -> BitChunk | None:
        """Feed one RAW chunk at a timestamp; returns the restored chunk
        (None if the frame was dropped on a decode miss)."""
        return self._push_ns(chunk, _time_ns(at, "arrival time"))

    def _push_ns(self, chunk: BitChunk, now_ns: int) -> BitChunk | None:
        if now_ns < self._last_ns:
            raise ValueError("arrivals must be pushed in timestamp order")
        self._last_ns = now_ns
        ts = now_ns * 1e-9
        raw = Frame(RAW, chunk.to_bytes(), ts)
        out, _ = self.encoder.process(raw, ts)
        self.encoded_bytes += len(out.payload)
        if self.wire_frames is not None:
            self.wire_frames.append(out)
        try:
            restored = self.decoder.process(out)
        except DecodeMiss:
            restored = None
        self.control.poll(now_ns)
        if restored is None:
            return None
        return BitChunk.from_bytes(restored.payload)

    def replay(self, trace: Trace, gap: float) -> tuple[Trace, Counters, tuple[int, int]]:
        _check_chunk_bits(trace, self.config)
        gap_ns = _time_ns(gap, "inter-arrival gap")
        out_chunks = []
        for i in range(trace.chunk_count):
            restored = self._push_ns(trace.chunk(i), i * gap_ns)
            if restored is not None:
                out_chunks.append(restored)
        out = Trace.from_chunks(trace.chunk_bits, out_chunks)
        return out, self.counters, (trace.chunk_count * trace.chunk_nbytes,
                                    self.encoded_bytes)


# -- vectorized trace replay ------------------------------------------------

class _VectorTables:
    """Bit masks for whole-trace transforms, for any m.

    Chunks are rows of `width` big-endian bytes. Remainders are linear, so
    bit b of a row's remainder is the parity of its bits whose single-bit
    remainder x^pos mod g has bit b. Mask b marks those bits in the row's
    own bytes, viewed as its u1/u2/u4/u8 words, so byte order cancels out.
    """

    def __init__(self, m: int, low_bits: int):
        full = (1 << m) | low_bits
        width = (1 << m) // 8
        n = (1 << m) - 1
        k = n - m

        powers = []  # x^i mod g
        r = 1
        for _ in range(8 * width + m):
            powers.append(r)
            r <<= 1
            if r >> m:
                r ^= full
        powers = np.array(powers, dtype=np.uint16)

        def masks(first: int) -> np.ndarray:
            # mask b, byte j, bit i: bit b of x^(first + 8*(width-1-j) + i) mod g
            bits = powers[first:first + 8 * width].reshape(width, 8)[::-1]
            bits = (bits >> np.arange(m, dtype=np.uint16)[:, None, None]) & 1
            return np.packbits(bits.astype(np.uint8), axis=2, bitorder="little",
                               ).reshape(m, width).view(f"u{min(width, 8)}")

        # syn for the chunk's remainder; par's remainders take m more shifts
        self.syn = masks(0)
        self.par = masks(m)

        # the syndrome of a single flipped bit at pos is x^pos mod g
        pos = np.arange(n)
        self.flip_col = np.zeros(1 << m, dtype=np.intp)
        self.flip_bit = np.zeros(1 << m, dtype=np.uint8)
        self.flip_col[powers[:n]] = width - 1 - (pos >> 3)
        self.flip_bit[powers[:n]] = (1 << (pos & 7)).astype(np.uint8)

        # msb and parity, bits k..n, are the top m+1 bits: inside the first
        # `cols` bytes, one u{cols} word, set by place[msb, p], cleared by basis_mask
        self.cols = cols = min(2, width)
        placed = np.arange(2 << m) << (k - 8 * (width - cols))
        self.place = placed.astype(f">u{cols}").view(f"u{cols}").reshape(2, 1 << m)
        self.basis_mask = np.frombuffer(
            ((1 << (8 * cols - m - 1)) - 1).to_bytes(cols, "big"), dtype=f"u{cols}")
        self.width = width


@lru_cache(maxsize=16)
def _vector_tables(m: int, low_bits: int) -> _VectorTables:
    return _VectorTables(m, low_bits)


def _row_remainders(rows: np.ndarray, masks: np.ndarray) -> np.ndarray:
    """Per row, the remainder whose bit b is the parity of the row's bits
    under masks[b], bit-sliced over transposed blocks of about 256 KB."""
    words = np.ascontiguousarray(rows).view(masks.dtype)
    out = np.zeros(len(rows), dtype=np.uint16)
    step = max(1, (1 << 18) // rows.shape[1])
    for i in range(0, len(rows), step):
        block = words[i:i + step].T.copy()
        for b, mask in enumerate(masks):
            odd = np.bitwise_count(np.bitwise_xor.reduce(block & mask[:, None], axis=0)) & 1
            out[i:i + step] |= odd.astype(np.uint16) << b
    return out


def encode_batch(payload: bytes, code: HammingCode,
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """gd_encode for every 2^m-bit chunk of a payload at once.

    Returns (msb, syndrome, basis rows): uint8 and uint16 vectors with one
    entry per chunk, and a (chunks, 2^m/8) uint8 array whose row i is chunk
    i's basis, right-aligned in the chunk's width with its top m+1 bits zero.
    """
    tabs = _vector_tables(code.m, code.generator.low_bits)
    if len(payload) % tabs.width:
        raise LengthMismatch(f"payload is not a whole number of {code.n + 1}-bit chunks")
    a = np.frombuffer(payload, dtype=np.uint8).reshape(-1, tabs.width)
    msb = a[:, 0] >> 7
    body = a.copy()
    body[:, 0] &= 0x7F
    s = _row_remainders(body, tabs.syn)
    at = tabs.flip_col[s]  # flat offsets of the bits to flip, built in place
    at += np.arange(0, body.size, tabs.width)
    body.reshape(-1)[at] ^= tabs.flip_bit[s]
    body[:, :tabs.cols].view(tabs.basis_mask.dtype)[:, 0] &= tabs.basis_mask
    return msb, s, body


def decode_batch(rows: np.ndarray, syndrome: np.ndarray, msb: np.ndarray,
                 code: HammingCode, parity: np.ndarray | None = None) -> np.ndarray:
    """Inverse of encode_batch: the restored chunks, one per row.

    Works in place: `rows` (basis rows as encode_batch returns them) is
    overwritten with the restored chunks and returned, or copied first if
    not C-contiguous. `parity`, if given, is each row's parity remainder,
    `_row_remainders(rows, par)`, which equal rows need computed only once.
    """
    tabs = _vector_tables(code.m, code.generator.low_bits)
    rows = np.ascontiguousarray(rows)
    p = _row_remainders(rows, tabs.par) if parity is None else parity
    rows[:, :tabs.cols].view(tabs.place.dtype)[:, 0] ^= tabs.place[msb, p]
    at = tabs.flip_col[syndrome]
    at += np.arange(0, rows.size, tabs.width)
    rows.reshape(-1)[at] ^= tabs.flip_bit[syndrome]
    return rows


# Trace bytes per window: the replay and compute_bases transform one
# window at a time, so their memory beyond the input stays constant.
WINDOW_BYTES = 1 << 20


def _transformed(source, code: HammingCode):
    """The dictionary-free half of `replay`, per window: (first and group
    from _group_rows, group in its narrowest unsigned dtype, distinct basis
    rows as bytes), then InvariantViolation if it does not decode to itself."""
    par_masks = _vector_tables(code.m, code.generator.low_bits).par
    start = 0
    for window in source.windows(WINDOW_BYTES):
        msb, syndrome, rows = encode_batch(window, code)
        first, group = _group_rows(rows)
        group = group.astype(np.min_scalar_type(len(first) - 1))
        distinct = rows[first]
        rows = decode_batch(rows, syndrome, msb, code, _row_remainders(
            distinct, par_masks)[group])
        restored = np.array_equal(rows.reshape(-1), np.frombuffer(window, np.uint8))
        msb = syndrome = rows = None  # freed before the next window is encoded
        yield first, group, distinct.tobytes()
        if not restored:
            raise InvariantViolation(
                f"chunks {start}..{start + len(group) - 1} did not restore bit-identically")
        start += len(group)


def _stream(source, code: HammingCode, fork: bool):
    """_transformed(source, code), from a forked child one window ahead if
    `fork`, the source spans several windows and no other Python thread
    runs. The child pickles each tuple into a pipe, then None or the
    exception that stopped it, raised here in its turn; closing the
    generator kills and reaps the child."""
    if (not fork or source.chunk_count <= max(1, WINDOW_BYTES // source.chunk_nbytes)
            or not hasattr(os, "fork") or threading.active_count() > 1):
        yield from _transformed(source, code)
        return
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child never returns: it forwards what it raises
        try:
            os.close(r)
            with open(w, "wb") as out:
                try:
                    for item in _transformed(source, code):
                        pickle.dump(item, out)
                        out.flush()
                    item = None
                except BaseException as exc:
                    item = exc
                pickle.dump(item, out)
        finally:
            os._exit(0)
    os.close(w)
    try:
        with open(r, "rb") as inp:
            while (item := pickle.load(inp)) is not None:
                if isinstance(item, BaseException):
                    raise item
                yield item
    except (EOFError, pickle.UnpicklingError):  # the child died
        raise ChildProcessError("the transform process ended early") from None
    finally:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)


def replay(source, config: PipelineConfig, gap: float, *, preload=None,
           _learn_static: bool = False,
           ) -> tuple[Counters, tuple[int, int], DictionaryState]:
    """The replay engine: run_pipeline for a Trace or an open TraceFile.

    Returns (counters, (raw payload bytes, encoded payload bytes), final
    DictionaryState). The input streams through windows of WINDOW_BYTES,
    dictionary and control plane carried across them; a TraceFile's
    windows share one buffer, so memory does not grow with the trace.
    An ID that resolves to a basis other than the encoder's, a restored
    window unequal to its input and a failed counter identity each raise
    InvariantViolation.

    Two processes share the work, as the switches and their control
    plane do: a forked child reads, encodes, groups, decodes and checks
    each window one window ahead (_stream), and this process runs the
    dictionary and control plane on its distinct rows and group indices.
    Peak RSS is the larger of the two processes'. Where no chunk can hit
    (learning off, nothing mapped), both halves run here.

    An eventless window, one with no control-plane event due by its last
    chunk, its own digests' installs included, handles each distinct basis
    once: a hit resolves once and refreshes recency with one lookup_id per
    chunk, a miss submits one digest at its first chunk. Every other
    window runs the per-chunk event loop. Both give the same counters,
    bytes and final dictionary as Pipeline.replay.
    """
    _check_chunk_bits(source, config)
    gap_ns = _time_ns(gap, "inter-arrival gap")
    code = build_code(config.m)
    width = source.chunk_nbytes

    state = DictionaryState(config.id_width, basis_bits=code.k)
    counters = Counters()
    cp = ControlPlane(state, counters, config)
    if preload is not None:
        cp.preload(preload)

    # Encoder and decoder read the one dictionary, so a SYN_ID frame
    # resolves to the encoder's own basis row, which the producer decoded
    count = n_sb = 0  # chunks through the current window, and SYN_BASIS among them
    lookup_basis = state.lookup_basis
    lookup_id = state.lookup_id
    mapped = state.mapped
    submit = cp.submit
    poll = cp.poll
    nxt = cp.next_event_ns
    delay = cp.delay
    fork = delay is not None or len(state) > 0 or _learn_static  # can a chunk hit?
    with closing(_stream(source, code, fork)) as windows:
        for first, group, distinct in windows:
            start, count = count, count + len(group)
            last = (count - 1) * gap_ns
            eventless = False
            # No poll fires inside an eventless window, so the dictionary's mappings
            # stay put and submit and lookup_id touch disjoint state; entry() reads
            # their IDs without refreshing recency. A first chunk that misses, its
            # install due in the window, skips the per-basis reads
            if _learn_static or (nxt is None or nxt > last) and (
                    delay is None or start * gap_ns + delay > last
                    or int.from_bytes(distinct[:width], "big") in mapped):
                bases = [int.from_bytes(distinct[o:o + width], "big")
                         for o in range(0, len(distinct), width)]
                if _learn_static:  # see replay_static
                    new = [b for b in bases if b not in mapped]
                    if len(new) > state.free_count:
                        return None
                    cp.preload(new)
                ids = [None if e is None else e[0] for e in map(state.entry, bases)]
                missed = [g for g, id_ in enumerate(ids) if id_ is None]
                eventless = not missed or delay is None or (
                    start + int(first[missed[0]])) * gap_ns + delay > last
            times = (range(start * gap_ns, count * gap_ns, gap_ns) if gap_ns
                     else repeat(0, len(group)))
            if eventless:
                for g, (id_, basis) in enumerate(zip(ids, bases)):
                    if id_ is None:
                        submit(basis, (start + int(first[g])) * gap_ns)
                        continue
                    stored = lookup_basis(id_)
                    if stored != basis:
                        raise InvariantViolation(
                            f"id {id_} resolves to a basis other than the encoder's")
                    bases[g] = stored  # the dictionary's own key: its probes match by identity
                # refresh recency hit by hit, exhausted by a zero-length deque
                hits = group
                if missed:
                    nxt = cp.next_event_ns
                    at = np.flatnonzero(np.array([id_ is not None for id_ in ids])[group])
                    n_sb += len(group) - len(at)
                    times, hits = map(gap_ns.__mul__, (at + start).tolist()), group[at]
                deque(map(lookup_id, map(bases.__getitem__, hits.tolist()), times), maxlen=0)
            else:
                keys = np.frombuffer(distinct, np.uint8).reshape(-1, width)[group].tobytes()
                for t, o in zip(times, range(0, len(keys), width)):
                    basis = int.from_bytes(keys[o:o + width], "big")
                    if basis not in mapped:
                        n_sb += 1
                        if submit(basis, t):
                            nxt = cp.next_event_ns
                    else:
                        id_ = lookup_id(basis, t)  # refreshes recency
                        if lookup_basis(id_) != basis:
                            raise InvariantViolation(
                                f"id {id_} resolves to a basis other than the encoder's")
                    if nxt is not None and nxt <= t:
                        poll(t)
                        nxt = cp.next_event_ns
            # drop this window's buffers before the next one is received
            first = group = distinct = keys = hits = bases = ids = missed = None

    counters.raw_in += count
    counters.out_syn_basis += n_sb
    counters.out_syn_id += count - n_sb
    counters.in_syn_basis += n_sb
    counters.in_syn_id += count - n_sb
    counters.restored_raw += count
    counters.verify()
    encoded = n_sb * syn_basis_nbytes(config) + (count - n_sb) * syn_id_nbytes(config)
    return counters, (count * width, encoded), state


def replay_static(source, config: PipelineConfig, gap: float,
                  ) -> tuple[Counters, tuple[int, int], DictionaryState]:
    """`replay` preloaded with compute_bases(source, config), the static
    table, reading the source once: before each window replays, its unseen
    bases are preloaded in first-appearance order. The IDs, counters,
    bytes and final dictionary are the same, since each basis is hit in
    the window that learns it. Only if the bases outnumber the IDs, so
    that preloading them evicts, does the one pass stop (replay returns
    None) and the table come from compute_bases: two more reads.
    """
    result = replay(source, config, gap, _learn_static=True)
    if result is None:
        result = replay(source, config, gap, preload=compute_bases(source, config))
    return result


def run_pipeline(trace: Trace, config: PipelineConfig, gap: float, *,
                 preload=None, state_out: list | None = None,
                 ) -> tuple[Trace, Counters, tuple[int, int]]:
    """Replay a trace through encoder -> link -> decoder at fixed
    inter-arrival `gap` seconds, control plane interleaved.

    Returns (restored trace, counters, (raw payload bytes, encoded payload
    bytes)). `preload` optionally installs a static table first, bases or
    (id, basis) pairs as ControlPlane.preload takes them; if
    `state_out` is a list the final DictionaryState is appended to it.
    Semantically identical to Pipeline.replay wherever the one dictionary
    is consistent (`replay` raises InvariantViolation where it is not):
    the transforms run vectorized for every m, and the dictionary and
    control plane run per chunk, or once per distinct basis in an
    eventless window. The trace streams through `replay`, whose
    per-window check lets the returned trace share the input's payload.
    """
    counters, sizes, state = replay(trace, config, gap, preload=preload)
    if state_out is not None:
        state_out.append(state)
    return Trace(trace.chunk_bits, trace.payload), counters, sizes


def _odd_multipliers(count: int) -> np.ndarray:
    """Fixed odd 64-bit constants from a 64-bit LCG, one per row word."""
    out, x = [], 0
    for _ in range(count):
        x = (x * 6364136223846793005 + 1442695040888963407) & (2**64 - 1)
        out.append(x | 1)
    return np.array(out, dtype=np.uint64)


# a row of 2^15 bits is 512 u64 words
_ROW_HASH = _odd_multipliers(512)
_DICT_ROWS = 1024  # fewer rows skip numpy's u64 sort: 0.7 MB of RSS to load


def _group_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Equal rows of a (chunks, width) uint8 array, grouped: (first,
    group), where group g's first row is rows[first[g]], groups are
    numbered in first-appearance order and row i is in group group[i].

    Past _DICT_ROWS rows, the rows are sorted by a key: a row of 8 bytes
    or more hashes to one u64 (each word times a fixed odd constant,
    summed with wraparound), a narrower row is its own key. Every row is
    then checked against its group's first row. Fewer rows, and a hash
    collision, group by exact bytes keys in a dict.
    """
    label = None  # per row, the index of the first row equal to it
    if len(rows) > _DICT_ROWS:
        width = rows.shape[1]
        words = rows.view(f"u{min(width, 8)}")
        keys = words @ _ROW_HASH[:words.shape[1]] if width >= 8 else words.ravel()
        # return_index would force a stable sort, several times slower here
        distinct, group = np.unique(keys, return_inverse=True)
        first = np.full(len(distinct), len(keys), dtype=np.intp)
        np.minimum.at(first, group, np.arange(len(keys)))
        label = first[group]
        if not np.array_equal(words, words[label]):
            label = None
    if label is None:
        ids: dict[bytes, int] = {}
        label = np.fromiter(map(ids.setdefault, map(bytes, rows), range(len(rows))),
                            np.intp, len(rows))
    first = np.flatnonzero(label == np.arange(len(rows)))
    group = np.empty(len(rows), dtype=np.intp)
    group[first] = np.arange(len(first))
    return first, group[label]


def compute_bases(trace, config: PipelineConfig) -> list[int]:
    """Distinct bases of a Trace or TraceFile, in order of first appearance."""
    _check_chunk_bits(trace, config)
    w = trace.chunk_nbytes
    seen: dict[bytes, None] = {}
    code = build_code(config.m)
    for window in trace.windows(WINDOW_BYTES):
        rows = encode_batch(window, code)[2]
        buf = rows[_group_rows(rows)[0]].tobytes()
        seen.update(dict.fromkeys(buf[o:o + w] for o in range(0, len(buf), w)))
    return [int.from_bytes(key, "big") for key in seen]


# -- pcap export ------------------------------------------------------------

_ETH_DST = bytes.fromhex("020000000002")
_ETH_SRC = bytes.fromhex("020000000001")


def write_pcap(frames, path) -> None:
    """Dump frames as a little-endian pcap of Ethernet II packets, one
    EtherType per frame kind, nanosecond timestamps. A timestamp the
    format cannot hold (not a whole number of nanoseconds in [0, 2^32) s)
    raises InvalidTime before anything is written."""
    out = [_PCAP_GLOBAL.pack(0xA1B23C4D, 2, 4, 0, 0, 65535, 1)]
    for frame in frames:
        sec, ns = divmod(_time_ns(frame.timestamp, "frame timestamp"), 10 ** 9)
        if sec >> 32:
            raise InvalidTime(f"frame timestamp {frame.timestamp!r} is 2^32 s or later")
        pkt = _ETH_DST + _ETH_SRC + ETHERTYPES[frame.kind].to_bytes(2, "big") + frame.payload
        out += (_PCAP_RECORD.pack(sec, ns, len(pkt), len(pkt)), pkt)
    with open(path, "wb") as f:
        f.write(b"".join(out))
