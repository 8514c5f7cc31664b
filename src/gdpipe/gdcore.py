"""Stateless GF(2) codec core.

Chunks are fixed-length bit strings where bit i is the coefficient of x^i,
so the string "0000001" denotes the polynomial 1 and "1000000" denotes x^6.
The deviation attached to every chunk is the plain polynomial remainder of
the chunk modulo the code's generator.

CRC convention (important): this is the *plain* remainder of data(x) mod
g(x) -- no pre-multiplication by x^m, zero initial value, no bit
reflection, no final XOR. Most general-purpose CRC libraries default to
the shifted variant and will NOT reproduce these values.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache


class GdError(Exception):
    """Base class for all errors raised by this package."""


class UnsupportedM(GdError):
    """No generator polynomial is registered for the requested m."""


class LengthMismatch(GdError):
    """Bit length of an input does not match what the code requires."""


@dataclass(frozen=True, slots=True)
class BitChunk:
    """Fixed-length bit string with polynomial bit-index semantics.

    `value` holds the bits as an integer: bit i of `value` is the
    coefficient of x^i, and bit length-1 is the leftmost bit when the
    chunk is displayed.
    """

    length: int
    value: int

    def __post_init__(self):
        if self.length <= 0:
            raise ValueError("chunk length must be positive")
        if not 0 <= self.value < (1 << self.length):
            raise ValueError(f"value does not fit in {self.length} bits")

    @classmethod
    def from_str(cls, bits: str) -> "BitChunk":
        """Parse a chunk from its display form, e.g. "0000100"."""
        if not bits or bits.strip("01"):
            raise ValueError(f"not a bit string: {bits!r}")
        return cls(len(bits), int(bits, 2))

    @classmethod
    def from_bytes(cls, data: bytes) -> "BitChunk":
        """Inverse of to_bytes; the chunk length is 8*len(data)."""
        if not data:
            raise ValueError("empty byte string")
        return cls(8 * len(data), int.from_bytes(data, "big"))

    def to_bytes(self) -> bytes:
        """Serialize MSB-first: bit length-1 is the MSB of byte 0.

        Only defined for byte-aligned lengths, so hex dumps read exactly
        like the displayed bit string.
        """
        if self.length % 8:
            raise ValueError("to_bytes requires a byte-aligned chunk length")
        return self.value.to_bytes(self.length // 8, "big")

    def bit(self, i: int) -> int:
        if not 0 <= i < self.length:
            raise IndexError(i)
        return (self.value >> i) & 1

    def flip(self, i: int) -> "BitChunk":
        if not 0 <= i < self.length:
            raise IndexError(i)
        return BitChunk(self.length, self.value ^ (1 << i))

    def __str__(self) -> str:
        return format(self.value, f"0{self.length}b")


@dataclass(frozen=True, slots=True)
class GeneratorPolynomial:
    """Degree-m binary polynomial x^m + low_bits(x); the x^m term is implicit.

    low_bits must be odd: a generator with a zero constant term does not
    divide x^n + 1 and cannot define a Hamming code.
    """

    degree: int
    low_bits: int

    def __post_init__(self):
        if self.degree < 1:
            raise ValueError("degree must be >= 1")
        if not 0 <= self.low_bits < (1 << self.degree):
            raise ValueError("low_bits wider than degree")
        if not self.low_bits & 1:
            raise ValueError("generator constant term must be 1 (odd low_bits)")

    @property
    def full(self) -> int:
        """All m+1 coefficients, leading x^m included."""
        return (1 << self.degree) | self.low_bits

    def __str__(self) -> str:
        terms = [f"x^{i}" if i > 1 else ("x" if i == 1 else "1")
                 for i in range(self.degree, -1, -1) if (self.full >> i) & 1]
        return "+".join(terms)


# Generator polynomial registry, keyed by m. First entry is the default;
# where two are listed the second is reachable via build_code(low_bits=...).
# The m=9 parameters published alongside these polynomials (0x00D, 0x0F3)
# are not primitive and break the perfect-code property; the polynomials
# themselves encode to 0x011 and 0x1E3, which are primitive and are what
# this registry carries.
GENERATOR_REGISTRY: dict[int, tuple[int, ...]] = {
    3: (0x3,),
    4: (0x3,),
    5: (0x05, 0x17),
    6: (0x03,),
    7: (0x09,),
    8: (0x1D,),
    9: (0x011, 0x1E3),
    10: (0x009,),
    11: (0x005,),
    12: (0x053,),
    13: (0x01B,),
    14: (0x143,),
    15: (0x003,),
}


@dataclass(frozen=True)
class HammingCode:
    """Hamming code parameters plus the syndrome -> bit-position table.

    n = 2^m - 1, k = n - m. The table maps every nonzero m-bit syndrome to
    the position of the single bit whose flip produces that syndrome; a
    zero syndrome means the chunk already is a codeword and maps to no
    table entry. Only the scalar codec reads it, so it is built on first read.
    """

    m: int
    n: int
    k: int
    generator: GeneratorPolynomial

    @cached_property
    def syndrome_table(self) -> dict[int, int]:
        """From the n single-bit remainders; ValueError if any two collide."""
        table: dict[int, int] = {}
        s = 1  # remainder of x^0
        for pos in range(self.n):
            if s in table:
                raise ValueError(
                    f"0x{self.generator.low_bits:x} is not a Hamming generator for "
                    f"m={self.m}: syndrome of bit {pos} collides with bit {table[s]}")
            table[s] = pos
            s <<= 1
            if s >> self.m:
                s ^= self.generator.full
        return table


@dataclass(frozen=True, slots=True)
class EncodedChunk:
    """Processed-but-uncompressed payload fields: (syndrome, msb, basis)."""

    syndrome: int
    msb: int
    basis: BitChunk


def _mod_small(value: int, full_g: int, m: int) -> int:
    # long division for values of modest bit length (table construction)
    while True:
        top = value.bit_length()
        if top <= m:
            return value
        value ^= full_g << (top - m - 1)


@lru_cache(maxsize=64)
def _byte_step_tables(m: int, low_bits: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Per-byte reduction tables for poly_mod: (high table, byte table).

    high[h] = (h << max(m,8)) mod g for the 8 bits shifted out of the
    accumulator each step; byte[b] = b mod g (identity for m >= 8).
    """
    full = (1 << m) | low_bits
    shift = max(m, 8)
    high = tuple(_mod_small(h << shift, full, m) for h in range(256))
    byte = tuple(_mod_small(b, full, m) for b in range(256))
    return high, byte


def _poly_mod_bytes(data: bytes, m: int, low_bits: int) -> int:
    high, byte = _byte_step_tables(m, low_bits)
    r = 0
    if m >= 8:
        mask = (1 << m) - 1
        shift = m - 8
        for b in data:
            r = high[r >> shift] ^ ((r << 8) & mask) ^ b
    else:
        # accumulator stays below 2^m; the byte folds in through its own table
        for b in data:
            r = high[r] ^ byte[b]
    return r


def _poly_mod_int(value: int, length: int, m: int, low_bits: int) -> int:
    return _poly_mod_bytes(value.to_bytes((length + 7) // 8, "big"), m, low_bits)


def poly_mod(data: BitChunk, gen: GeneratorPolynomial) -> int:
    """Remainder of data(x) divided by the generator, as an m-bit value.

    Linearity holds: poly_mod(a ^ b) == poly_mod(a) ^ poly_mod(b) for
    equal-length chunks.
    """
    return _poly_mod_int(data.value, data.length, gen.degree, gen.low_bits)


def build_code(m: int, low_bits: int | None = None) -> HammingCode:
    """Construct the (2^m - 1, 2^m - m - 1) Hamming code for a registered m.

    `low_bits` overrides the default generator (e.g. the second registered
    polynomial for m=5 or m=9); a non-primitive one raises ValueError here.
    """
    if m not in GENERATOR_REGISTRY:
        raise UnsupportedM(f"m={m} is not in the generator registry (3..15)")
    if low_bits is None:
        low_bits = GENERATOR_REGISTRY[m][0]
    n = (1 << m) - 1
    code = HammingCode(m=m, n=n, k=n - m, generator=GeneratorPolynomial(m, low_bits))
    if low_bits not in GENERATOR_REGISTRY[m]:
        code.syndrome_table  # raises ValueError for a generator that is not primitive
    return code


def gd_encode(body: BitChunk, code: HammingCode) -> tuple[int, BitChunk]:
    """Split an n-bit body into (syndrome, k-bit basis).

    The syndrome identifies the single bit separating the body from its
    nearest codeword (zero if the body already is one); the basis is the
    rightmost k bits of that codeword. gd_decode inverts this exactly.
    """
    if body.length != code.n:
        raise LengthMismatch(f"body is {body.length} bits, code needs {code.n}")
    s = _poly_mod_int(body.value, body.length, code.m, code.generator.low_bits)
    v = body.value
    if s:
        v ^= 1 << code.syndrome_table[s]
    return s, BitChunk(code.k, v & ((1 << code.k) - 1))


def parity_of(basis: BitChunk, code: HammingCode) -> int:
    """The m high-order bits of the unique codeword whose low k bits equal basis.

    Computed as basis(x)*x^m mod g: because g divides x^n + 1, the codeword
    p*x^k + basis is then divisible by g.
    """
    if basis.length != code.k:
        raise LengthMismatch(f"basis is {basis.length} bits, code needs {code.k}")
    return _poly_mod_int(basis.value << code.m, code.n, code.m,
                         code.generator.low_bits)


def gd_decode(syndrome: int, basis: BitChunk, code: HammingCode) -> BitChunk:
    """Rebuild the n-bit body from (syndrome, basis)."""
    if basis.length != code.k:
        raise LengthMismatch(f"basis is {basis.length} bits, code needs {code.k}")
    if not 0 <= syndrome < (1 << code.m):
        raise ValueError(f"syndrome does not fit in {code.m} bits")
    cw = (parity_of(basis, code) << code.k) | basis.value
    if syndrome:
        cw ^= 1 << code.syndrome_table[syndrome]
    return BitChunk(code.n, cw)


def split_chunk(chunk: BitChunk, code: HammingCode) -> tuple[int, BitChunk]:
    """Split a 2^m-bit chunk into its top bit and the n-bit body below it."""
    if chunk.length != code.n + 1:
        raise LengthMismatch(f"chunk is {chunk.length} bits, code needs {code.n + 1}")
    return chunk.value >> code.n, BitChunk(code.n, chunk.value & ((1 << code.n) - 1))


def join_chunk(msb: int, body: BitChunk, code: HammingCode) -> BitChunk:
    """Exact inverse of split_chunk."""
    if msb not in (0, 1):
        raise ValueError("msb must be 0 or 1")
    if body.length != code.n:
        raise LengthMismatch(f"body is {body.length} bits, code needs {code.n}")
    return BitChunk(code.n + 1, (msb << code.n) | body.value)


def format_syndrome_table(code: HammingCode) -> str:
    """Dump the table as one "syndrome -> position" line per entry.

    Lines are ordered by bit position, so for m=3 they read top to bottom
    like the (7,4)/CRC-3 equivalence table.
    """
    by_pos = sorted(code.syndrome_table.items(), key=lambda kv: kv[1])
    return "\n".join(f"{s:0{code.m}b} -> {pos}" for s, pos in by_pos)
