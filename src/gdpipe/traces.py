"""Trace generation, file chunking, and the GDTRACE container format.

A trace is an ordered sequence of equal-sized chunks (chunk_bits = 2^m).
The synthetic generator models sensor-like traffic: a small set of bases,
each chunk drawn as one basis's codeword with at most one flipped bit,
plus a random spare MSB. Real captures come in through a generic
byte-stream chunker or the pcap payload importer.
"""

from __future__ import annotations

import os
import struct
from contextlib import AbstractContextManager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .gdcore import BitChunk, GdError, HammingCode, build_code

TRACE_MAGIC = b"GDTRACE\0"
_HEADER = struct.Struct("<8sII")  # magic, chunk_bits, chunk_count


class InvalidSpec(GdError):
    """A TraceSpec field is out of range or inconsistent."""


class EmptyInput(GdError):
    """chunk_file() was given zero bytes."""


class BadMagic(GdError):
    """The file does not start with the GDTRACE magic."""


class TruncatedFile(GdError):
    """The file body does not hold the number of chunks the header claims."""


class BadPacket(GdError, ValueError):
    """A pcap packet does not carry exactly one chunk as its payload."""


def m_for_chunk_bits(chunk_bits: int) -> int:
    """The m with 2^m == chunk_bits, or InvalidSpec if there is none."""
    m = chunk_bits.bit_length() - 1
    if chunk_bits <= 0 or (1 << m) != chunk_bits:
        raise InvalidSpec(f"chunk_bits must be a power of two, got {chunk_bits}")
    return m


@dataclass(frozen=True, slots=True)
class TraceSpec:
    """Parameters of a synthetic trace. Defaults mirror the desk-scale
    compression experiment: 3.124M chunks of 256 bits over 100 bases."""

    seed: int
    chunk_count: int = 3_124_000
    chunk_bits: int = 256
    distinct_bases: int = 100
    codeword_prob: float = 0.2
    basis_distribution: str = "uniform"  # or "round-robin"
    msb: int | None = None  # None = random per chunk

    def validate(self) -> "HammingCode":
        for name in ("seed", "chunk_count", "chunk_bits", "distinct_bases"):
            if type(getattr(self, name)) is not int:  # a bool or a float is refused
                raise InvalidSpec(f"{name} must be an int, got {getattr(self, name)!r}")
        if not 0 <= self.seed < (1 << 64):
            raise InvalidSpec("seed must fit in 64 bits")
        if not 0 <= self.chunk_count < (1 << 32):
            raise InvalidSpec("chunk_count must be in 0..2^32-1, the trace header's range")
        try:
            code = build_code(m_for_chunk_bits(self.chunk_bits))
        except GdError as exc:
            raise InvalidSpec(str(exc)) from None
        if self.distinct_bases < 1:
            raise InvalidSpec("distinct_bases must be >= 1")
        if self.distinct_bases > (1 << code.k):
            raise InvalidSpec(f"only 2^{code.k} distinct bases exist")
        if not 0.0 <= self.codeword_prob <= 1.0:
            raise InvalidSpec("codeword_prob must be in [0, 1]")
        if self.basis_distribution not in ("uniform", "round-robin"):
            raise InvalidSpec(f"unknown distribution {self.basis_distribution!r}")
        if self.msb not in (None, 0, 1):
            raise InvalidSpec("msb must be None, 0 or 1")
        return code


@dataclass(frozen=True, slots=True)
class Trace:
    """Chunks stored back-to-back, each chunk_bits/8 bytes, MSB-first.

    payload_bytes records the original pre-padding byte length for traces
    made by chunk_file, so reassemble() is exact; it is not persisted by
    write_trace (the container header has no field for it).
    """

    chunk_bits: int
    payload: bytes
    payload_bytes: int | None = None

    def __post_init__(self):
        if self.chunk_bits <= 0 or self.chunk_bits % 8:
            raise ValueError("chunk_bits must be a positive multiple of 8")
        if len(self.payload) % self.chunk_nbytes:
            raise ValueError("payload is not a whole number of chunks")

    @property
    def chunk_nbytes(self) -> int:
        return self.chunk_bits // 8

    @property
    def chunk_count(self) -> int:
        return len(self.payload) // self.chunk_nbytes

    def chunk(self, i: int) -> BitChunk:
        if not 0 <= i < self.chunk_count:
            raise IndexError(i)
        w = self.chunk_nbytes
        return BitChunk.from_bytes(self.payload[i * w:(i + 1) * w])

    def chunks(self):
        return (self.chunk(i) for i in range(self.chunk_count))

    def windows(self, nbytes: int):
        """The payload in order, as memoryviews of whole chunks, at most
        nbytes each but at least one chunk."""
        step = max(1, nbytes // self.chunk_nbytes) * self.chunk_nbytes
        view = memoryview(self.payload)
        return (view[o:o + step] for o in range(0, len(view), step))

    @classmethod
    def from_chunks(cls, chunk_bits: int, chunks) -> "Trace":
        parts = []
        for c in chunks:
            if c.length != chunk_bits:
                raise ValueError(f"chunk is {c.length} bits, trace holds {chunk_bits}")
            parts.append(c.to_bytes())
        return cls(chunk_bits, b"".join(parts))


def _draw_distinct_bases(rng: np.random.Generator, count: int, k: int) -> list[int]:
    kbytes = (k + 7) // 8
    top_mask = 0xFF >> (-k % 8)
    bases: list[int] = []
    seen = set()
    while len(bases) < count:
        rows = rng.integers(0, 256, size=(count - len(bases), kbytes), dtype=np.uint8)
        rows[:, 0] &= top_mask
        for row in rows:
            v = int.from_bytes(row.tobytes(), "big")
            if v not in seen:
                seen.add(v)
                bases.append(v)
    return bases


def drawn_bases(spec: TraceSpec) -> list[int]:
    """The basis set gen_synthetic(spec) builds its trace from.

    Deterministic prefix of the generator's random stream, so a static
    table can be prepared without materializing the trace.
    """
    code = spec.validate()
    rng = np.random.default_rng(spec.seed)
    return _draw_distinct_bases(rng, spec.distinct_bases, code.k)


def gen_synthetic(spec: TraceSpec) -> Trace:
    """Deterministically generate a trace from a TraceSpec.

    Each chunk is a drawn basis's codeword, one bit flipped with
    probability 1 - codeword_prob, under a fixed or random MSB. Identical
    (seed, spec) pairs produce byte-identical traces.
    """
    from .pipeline import WINDOW_BYTES, decode_batch  # pipeline imports this module

    code = spec.validate()
    rng = np.random.default_rng(spec.seed)
    width = spec.chunk_bits // 8
    count = spec.chunk_count

    bases = _draw_distinct_bases(rng, spec.distinct_bases, code.k)
    if count == 0:
        return Trace(spec.chunk_bits, b"")

    if spec.basis_distribution == "uniform":
        idx = rng.integers(0, len(bases), size=count)
    else:
        idx = np.arange(count, dtype=np.int64) % len(bases)
    flip = rng.random(count) < (1.0 - spec.codeword_prob)
    pos = rng.integers(0, code.n, size=count)
    if spec.msb is None:
        msb = rng.integers(0, 2, size=count, dtype=np.uint8)
    else:
        msb = np.full(count, spec.msb, dtype=np.uint8)

    # Row 2b + s of the table is basis b's codeword under msb s: the replay's
    # decode of a zero syndrome, a window at a time and in place. Built only
    # once the basis ints are gone, so memory still peaks in the draw.
    step = max(1, WINDOW_BYTES // width)
    rows = np.empty((len(bases), width), dtype=np.uint8)
    for i in range(0, len(bases), step):
        part = b"".join(b.to_bytes(width, "big") for b in bases[i:i + step])
        rows[i:i + step] = np.frombuffer(part, dtype=np.uint8).reshape(-1, width)
    del bases
    table = rows.repeat(2, axis=0)
    for part in np.split(table, range(2 * step, len(table), 2 * step)):
        decode_batch(part, np.zeros(len(part), np.uint16), np.arange(len(part)) & 1, code)
    chunks = np.take(table, idx * 2 + msb, axis=0)

    at = np.flatnonzero(flip)  # bit flips by flat offset
    chunks.reshape(-1)[at * width + (width - 1 - (pos[at] >> 3))] ^= (
        1 << (pos[at] & 7)).astype(np.uint8)
    return Trace(spec.chunk_bits, chunks.tobytes())


def chunk_file(data: bytes, chunk_bits: int) -> Trace:
    """Split a byte stream into fixed-size chunks, zero-padding the tail.

    The original byte length is kept on the trace so reassemble() can
    strip the padding again.
    """
    if not data:
        raise EmptyInput("no bytes to chunk")
    if chunk_bits <= 0 or chunk_bits % 8:
        raise ValueError("chunk_bits must be a positive multiple of 8")
    w = chunk_bits // 8
    pad = -len(data) % w
    return Trace(chunk_bits, bytes(data) + b"\0" * pad, payload_bytes=len(data))


def reassemble(trace: Trace) -> bytes:
    """Concatenated chunk payloads, truncated to the recorded original length."""
    if trace.payload_bytes is None:
        return trace.payload
    return trace.payload[:trace.payload_bytes]


def write_trace(trace: Trace, path) -> None:
    with open(path, "wb") as f:
        f.write(_HEADER.pack(TRACE_MAGIC, trace.chunk_bits, trace.chunk_count))
        f.write(trace.payload)


class TraceFile(AbstractContextManager):
    """An open GDTRACE file whose header agrees with its size. The body is
    read a window at a time (see windows), so it is never held whole."""

    def __init__(self, path):
        self.path, self._file = path, open(path, "rb")
        try:
            head = self._file.read(_HEADER.size)
            if len(head) < _HEADER.size or head[:8] != TRACE_MAGIC:
                raise BadMagic(f"{path}: not a GDTRACE file")
            _, self.chunk_bits, self.chunk_count = _HEADER.unpack(head)
            if self.chunk_bits <= 0 or self.chunk_bits % 8:
                raise TruncatedFile(f"{path}: invalid chunk_bits {self.chunk_bits}")
            self.chunk_nbytes = self.chunk_bits // 8
            self.nbytes = self.chunk_count * self.chunk_nbytes
            self._check_size(os.fstat(self._file.fileno()).st_size - _HEADER.size)
        except BaseException:
            self.close()
            raise

    def _check_size(self, found: int) -> None:
        if found != self.nbytes:
            raise TruncatedFile(f"{self.path}: expected {self.nbytes} payload bytes, "
                                f"found {found}")

    def windows(self, nbytes: int):
        """As Trace.windows, but every view is into one reused buffer, refilled
        by a positional read: forked processes share the file offset."""
        step = max(1, nbytes // self.chunk_nbytes) * self.chunk_nbytes
        buf = memoryview(bytearray(min(step, self.nbytes)))
        for off in range(0, self.nbytes, step):
            view = buf[:min(step, self.nbytes - off)]
            got = os.preadv(self._file.fileno(), [view], _HEADER.size + off)
            if got < len(view):  # the file shrank since the header check
                self._check_size(off + got)
            yield view

    def close(self) -> None:
        self._file.close()

    def __exit__(self, *exc) -> None:
        self.close()


def read_trace(path) -> Trace:
    """Load a GDTRACE file whole; the body is read once, straight into the
    trace's payload, after its size is checked against the header."""
    with TraceFile(path) as source:
        body = source._file.read(source.nbytes)
        source._check_size(len(body))
    return Trace(source.chunk_bits, body)


# -- pcap import, limited to extracting fixed-size Ethernet payloads

_PCAP_GLOBAL = struct.Struct("<IHHiIII")
_PCAP_RECORD = struct.Struct("<IIII")
_ETH_HEADER_LEN = 14
# the magic as a little-endian u32 -> byte order of the file's header
# fields: microsecond and nanosecond timestamps, written either way round
_PCAP_BYTE_ORDER = {0xA1B2C3D4: "<", 0xA1B23C4D: "<", 0xD4C3B2A1: ">", 0x4D3CB2A1: ">"}


def read_pcap_payloads(path, chunk_bits: int) -> Trace:
    """Rebuild a trace from a pcap of Ethernet frames whose payloads are
    exactly chunk_bits wide, in either byte order, with microsecond or
    nanosecond timestamps."""
    data = Path(path).read_bytes()
    if len(data) < _PCAP_GLOBAL.size:
        raise BadMagic(f"{path}: too short for a pcap header")
    magic = _PCAP_GLOBAL.unpack_from(data)[0]
    if magic not in _PCAP_BYTE_ORDER:
        raise BadMagic(f"{path}: unsupported pcap magic 0x{magic:08x}")
    record = struct.Struct(_PCAP_BYTE_ORDER[magic] + "IIII")
    w = chunk_bits // 8
    off = _PCAP_GLOBAL.size
    parts = []
    while off < len(data):
        if off + record.size > len(data):
            raise TruncatedFile(f"{path}: truncated packet record")
        _, _, incl, _ = record.unpack_from(data, off)
        off += record.size
        if off + incl > len(data):
            raise TruncatedFile(f"{path}: packet data runs past end of file")
        if incl != _ETH_HEADER_LEN + w:
            raise BadPacket(f"{path}: packet payload is not {w} bytes")
        parts.append(data[off + _ETH_HEADER_LEN:off + incl])
        off += incl
    return Trace(chunk_bits, b"".join(parts))
