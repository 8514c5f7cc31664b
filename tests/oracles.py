"""Independent reference implementations used to freeze expected values.

Everything here works on MSB-first bit lists via schoolbook long division,
deliberately sharing no code with the library's int/table-based paths.
"""


def gen_bits(m: int, low_bits: int) -> list[int]:
    """Generator coefficients MSB-first, leading x^m term included."""
    full = (1 << m) | low_bits
    return [(full >> i) & 1 for i in range(m, -1, -1)]


def long_division_remainder(bits: list[int], m: int, low_bits: int) -> int:
    """Plain remainder of the polynomial given as an MSB-first bit list."""
    g = gen_bits(m, low_bits)
    work = list(bits)
    if len(work) < len(g):
        work = [0] * (len(g) - len(work)) + work
    for i in range(len(work) - m):
        if work[i]:
            for j, gb in enumerate(g):
                work[i + j] ^= gb
    rem = work[-m:]
    out = 0
    for b in rem:
        out = (out << 1) | b
    return out


def remainder_of_str(chunk: str, m: int, low_bits: int) -> int:
    return long_division_remainder([int(c) for c in chunk], m, low_bits)


def remainder_of_int(value: int, length: int, m: int, low_bits: int) -> int:
    bits = [(value >> i) & 1 for i in range(length - 1, -1, -1)]
    return long_division_remainder(bits, m, low_bits)


def brute_force_parity(basis: int, m: int, low_bits: int) -> int:
    """Search all 2^m prefixes for the one making a codeword; must be unique."""
    n = (1 << m) - 1
    k = n - m
    hits = [p for p in range(1 << m)
            if remainder_of_int((p << k) | basis, n, m, low_bits) == 0]
    assert len(hits) == 1, f"{len(hits)} codewords share basis {basis:#x}"
    return hits[0]


def brute_force_nearest_codeword(body: int, m: int, low_bits: int) -> int:
    """The unique codeword at Hamming distance <= 1 from an n-bit body."""
    n = (1 << m) - 1
    if remainder_of_int(body, n, m, low_bits) == 0:
        return body
    hits = [body ^ (1 << i) for i in range(n)
            if remainder_of_int(body ^ (1 << i), n, m, low_bits) == 0]
    assert len(hits) == 1, f"{len(hits)} codewords neighbor body {body:#x}"
    return hits[0]


def snapshot_by_learning(text: str, id_width: int, basis_bits):
    """The snapshot loader as it was before the file was parsed once into
    checked pairs: every line goes through learn, highest ID first. Returns
    the (id, basis) pairs, highest ID first, or the SnapshotError text."""
    from gdpipe.dictionary import AlreadyKnown, DictionaryState

    state = DictionaryState(id_width, basis_bits)
    entries = []
    for ln, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            id_str, basis_str = line.split()
            entries.append((int(id_str), int(basis_str, 16), ln))
        except ValueError:
            return f"line {ln}: expected '<id> <basis-hex>'"
    for id_, basis, ln in sorted(entries, reverse=True):
        try:
            state.learn(basis, 0, id_)
        except (ValueError, AlreadyKnown) as exc:
            return f"line {ln}: {exc}"
    return state.items()[::-1]
