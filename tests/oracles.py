"""Independent reference implementations used to freeze expected values.

The codec references work on MSB-first bit lists via schoolbook long
division, deliberately sharing no code with the library's int/table-based
paths; ControlPlaneModel is a linear-scan model of the control plane,
and snapshot_model one of the snapshot loader's checks.
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


def snapshot_model(text: str, id_width: int, basis_bits):
    """A snapshot's (id, basis) pairs, highest ID first, or the
    SnapshotError text: the lines are checked highest ID first against a
    set of taken IDs and a dict of mapped bases. Shares no code with gdpipe."""
    entries = []
    for ln, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            id_str, basis_str = line.split()
            entries.append((int(id_str), int(basis_str, 16), ln))
        except ValueError:
            return f"line {ln}: expected '<id> <basis-hex>'"
    taken, owner = set(), {}  # owner: basis -> id
    for id_, basis, ln in sorted(entries, reverse=True):
        if basis < 0:
            return f"line {ln}: basis must be non-negative"
        if basis_bits is not None and basis >= 1 << basis_bits:
            return f"line {ln}: basis does not fit in {basis_bits} bits"
        if basis in owner:
            return f"line {ln}: basis already mapped to id {owner[basis]}"
        if id_ in taken or not 0 <= id_ < 1 << id_width:
            return f"line {ln}: id {id_} is not a free id of the {id_width}-bit space"
        taken.add(id_)
        owner[basis] = id_
    return sorted(((id_, basis) for basis, id_ in owner.items()), reverse=True)


class ControlPlaneModel:
    """Linear-scan model of the control plane and its LRU dictionary.

    A FIFO digest queue with pending suppression; a digest falls due
    `delay` ns after it was emitted and is learned at the poll that finds
    it due, evicting the entry with the smallest (last_used, id) once every
    ID is taken. A learned mapping is installed on the encoder side only if
    it still holds its ID when the poll ends. Shares no code with gdpipe.
    """

    def __init__(self, id_width: int, delay: int):
        self.capacity = 1 << id_width
        self.delay = delay
        self.entries = {}  # basis -> [id, last_used]
        self.forward = {}  # basis -> id, the encoder's table
        self.queue = []    # [basis, emitted], oldest first
        self.clock = 0
        self.digests = self.installs = self.evictions = 0

    def hit(self, basis, now):
        """Encoder-side hit: the ID, its entry stamped with the clock."""
        self.clock = max(self.clock, now)
        self.entries[basis][1] = self.clock
        return self.forward[basis]

    def submit(self, basis, now) -> bool:
        if any(b == basis for b, _ in self.queue):
            return False
        self.queue.append([basis, now])
        self.digests += 1
        return True

    def poll(self, now):
        learned = []
        while self.queue and self.queue[0][1] + self.delay <= now:
            basis, _ = self.queue.pop(0)
            if basis in self.entries:
                continue
            used = [e[0] for e in self.entries.values()]
            if len(used) < self.capacity:
                id_ = min(i for i in range(self.capacity) if i not in used)
            else:
                victim = min(self.entries, key=lambda b: self.entries[b][::-1])
                id_ = self.entries.pop(victim)[0]
                self.forward.pop(victim, None)
                self.evictions += 1
            self.clock = max(self.clock, now)
            self.entries[basis] = [id_, self.clock]
            learned.append((basis, id_))
        done = [(b, i) for b, i in learned if self.entries.get(b, [None])[0] == i]
        for basis, id_ in done:
            self.forward[basis] = id_
        self.installs += len(done)
        return done

    def items(self):
        return sorted((e[0], b) for b, e in self.entries.items())

    def entry(self, basis):
        e = self.entries.get(basis)
        return None if e is None else (e[0], e[1])
