"""Shared basis <-> ID mapping with LRU identifier recycling.

One DictionaryState is logically shared by the encoder and decoder; the
control plane is the single writer. Identifiers are plain ints in
[0, 2^id_width); bases are plain ints holding k-bit values. Timestamps
are any comparable numbers (the simulator passes integer nanoseconds) and
are clamped internally so the stored clock never runs backwards.
"""

from __future__ import annotations

import heapq
import re
from collections import OrderedDict
from itertools import chain
from pathlib import Path
from typing import NamedTuple

from .gdcore import GdError


class AlreadyKnown(GdError):
    """learn() was called for a basis that already has an identifier."""


class SnapshotError(GdError):
    """A snapshot file is malformed or inconsistent with the state."""


class LearnOutcome(NamedTuple):
    """Result of learning one basis: the assigned ID, plus the basis that
    was evicted to free it (None while unused IDs remain)."""

    assigned: int
    evicted_basis: int | None


class DictionaryState:
    """Forward (basis -> ID) and reverse (ID -> basis) maps with recency:
    the encoder's and the decoder's switch tables.

    The two maps are exact mutual inverses at all times, and the assigned
    IDs plus the free pool always partition the 2^id_width ID space.
    Fresh states hand out IDs in ascending order; once the pool is empty,
    learn() evicts the entry with the smallest (last_used, id) pair and
    recycles its identifier.

    Every basis is checked against basis_bits when it is learned, so the
    read methods check their argument only on a miss.
    """

    def __init__(self, id_width: int = 15, basis_bits: int | None = None):
        if id_width < 1:
            raise ValueError("id_width must be >= 1")
        self.id_width = id_width
        self.capacity = 1 << id_width
        self.basis_bits = basis_bits
        # basis -> [id, last_used], kept in touch order (oldest first)
        self._entries: OrderedDict[int, list] = OrderedDict()
        self._reverse: dict[int, int] = {}
        # IDs only ever leave the free pool (an eviction hands the victim's
        # ID straight on), so the pool is a few ascending ranges, kept
        # lowest-last: its size follows the data, not the ID space
        self._free: list[range] = [range(self.capacity)]
        self._free_count = self.capacity
        self._clock = 0
        # eviction candidates: an (id, basis) heap of every entry whose
        # last_used is _oldest_stamp, the smallest stamp, while that group
        # holds several. Hits (to a later stamp) leave stale records that
        # peek_victim drops, and an eviction pops its victim's; once none
        # is left it rebuilds the heap from the next group: O(log group)
        self._oldest: list[tuple[int, int]] = []
        self._oldest_stamp = None

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, basis) -> bool:
        return basis in self._entries

    @property
    def mapped(self):
        """The mapped bases, a live read-only view: `in` runs no Python frame."""
        return self._entries.keys()

    @property
    def free_count(self) -> int:
        return self._free_count

    def free_ids(self) -> tuple[int, ...]:
        return tuple(chain.from_iterable(reversed(self._free)))

    def _take_free(self) -> int:
        """The lowest free ID, removed from the pool."""
        r = self._free[-1]
        if len(r) == 1:
            self._free.pop()
        else:
            self._free[-1] = r[1:]
        self._free_count -= 1
        return r.start

    def items(self):
        """(id, basis) pairs sorted by id."""
        return sorted((id_, basis) for id_, basis in self._reverse.items())

    def entry(self, basis: int) -> tuple[int, int] | None:
        """(id, last_used) for a basis, without touching recency."""
        e = self._entries.get(basis)
        return None if e is None else (e[0], e[1])

    def _check_basis(self, basis: int):
        if basis < 0:
            raise ValueError("basis must be non-negative")
        if self.basis_bits is not None and basis >> self.basis_bits:
            raise ValueError(f"basis does not fit in {self.basis_bits} bits")

    def lookup_id(self, basis: int, now) -> int | None:
        """Encoder-side read: returns the ID on a hit and refreshes its
        recency; a miss returns None and mutates nothing."""
        e = self._entries.get(basis)
        if e is None:
            self._check_basis(basis)
            return None
        if now > self._clock:
            self._clock = now
        e[1] = self._clock
        self._entries.move_to_end(basis)
        return e[0]

    def lookup_basis(self, id_: int) -> int | None:
        """Decoder-side read: no recency refresh (the compression table's
        TTL lives on the encoder side)."""
        basis = self._reverse.get(id_)
        if basis is None and not 0 <= id_ < self.capacity:
            raise ValueError(f"id does not fit in {self.id_width} bits")
        return basis

    def learn(self, basis: int, now) -> LearnOutcome:
        """Map a new basis, evicting the LRU entry if no ID is free.

        Ties on last_used evict the smaller ID. Raises AlreadyKnown, before
        any change, for a basis that is already mapped (the control plane
        drops such a digest).
        """
        if basis < 0 or self.basis_bits is not None and basis >> self.basis_bits:
            self._check_basis(basis)  # raises
        entries = self._entries
        if basis in entries:
            raise AlreadyKnown(f"basis already mapped to id {entries[basis][0]}")
        evicted = None
        if self._free_count:
            id_ = self._take_free()
        else:
            id_, evicted = self.peek_victim()
            if self._oldest:  # the victim's own record, on top
                heapq.heappop(self._oldest)
        # an eviction hands the victim's ID, and its entry, to the new basis
        e = [id_, 0] if evicted is None else entries.pop(evicted)
        if now > self._clock:
            self._clock = now
        e[1] = now = self._clock
        entries[basis] = e
        self._reverse[id_] = basis
        if now == self._oldest_stamp:
            heapq.heappush(self._oldest, (id_, basis))
        return tuple.__new__(LearnOutcome, (id_, evicted))  # skips a Python __new__ frame

    def preload(self, bases, now=0) -> int:
        """Learn every basis not yet mapped, in order: a static table set
        up before a run. Returns how many were added."""
        added = 0
        for basis in bases:
            if basis not in self._entries:
                self.learn(basis, now)
                added += 1
        return added

    def peek_victim(self) -> tuple[int, int] | None:
        """The (id, basis) with the smallest (last_used, id), which the next
        learn() evicts, or None while free identifiers remain. learn()
        takes its victim from this call, so each eviction searches once.

        The pair is the top of the _oldest heap, which stays empty while
        that group is one entry."""
        if self._free_count or not self._entries:
            return None
        heap = self._oldest
        while heap:
            id_, basis = heap[0]
            e = self._entries.get(basis)
            if e is not None and e[0] == id_ and e[1] == self._oldest_stamp:
                return id_, basis
            heapq.heappop(heap)
        # entries are in touch order with non-decreasing last_used, so the
        # group with the smallest stamp is a prefix; a one-entry group
        # needs no heap, since no later learn can join its older stamp
        entries = self._entries
        it = iter(entries)
        basis = next(it)
        id_, stamp = entries[basis]
        self._oldest_stamp = stamp
        for b in it:
            e = entries[b]
            if e[1] != stamp:
                break
            heap.append((e[0], b))
        if not heap:
            return id_, basis
        heap.append((id_, basis))
        heapq.heapify(heap)
        return heap[0]

    # -- snapshot format: one "<id-decimal> <basis-hex>" line per entry,
    # sorted by id; read_snapshot reads it back to pre-load static tables.

    def save(self, path) -> None:
        width = (self.basis_bits + 3) // 4 if self.basis_bits else 1
        lines = [f"{id_} {basis:0{width}x}" for id_, basis in self.items()]
        Path(path).write_text("".join(line + "\n" for line in lines))


# ASCII only: int() would also take "+5", "1_0", "٣" and "0x5", \s "\u3000"
_SNAPSHOT_LINE = re.compile(r"[ \t]*(-?[0-9]+)[ \t]+(-?[0-9a-fA-F]+)[ \t]*")


def read_snapshot(path, id_width: int = 15, basis_bits: int | None = None,
                  ) -> DictionaryState:
    """The dictionary a snapshot file holds, every entry under its own ID
    and stamped 0, in one pass. Lines are checked highest ID first: the
    ID in range and not taken, the basis fitting basis_bits and not
    mapped. SnapshotError names the first bad line."""
    state = DictionaryState(id_width, basis_bits)
    try:
        text = Path(path).read_bytes().decode()
    except UnicodeDecodeError as exc:
        raise SnapshotError(f"{path}: not UTF-8 text ({exc.reason})") from None
    lines = []
    # lines end at "\n", or "\r\n"; str.splitlines would also end them at
    # \f, \v, \x1c-\x1e, \x85, U+2028 and U+2029, which save never writes
    for ln, line in enumerate(text.split("\n"), start=1):
        line = line.removesuffix("\r")
        if not line.strip(" \t"):
            continue
        match = _SNAPSHOT_LINE.fullmatch(line)
        if match is None:
            raise SnapshotError(f"line {ln}: expected '<id> <basis-hex>'")
        lines.append((int(match[1]), int(match[2], 16), ln))
    del text  # not held while the dictionary fills
    lines.sort(reverse=True)
    entries, reverse = state._entries, state._reverse
    for id_, basis, ln in lines:
        try:
            state._check_basis(basis)
            if basis in entries:
                raise AlreadyKnown(f"basis already mapped to id {entries[basis][0]}")
            if id_ in reverse or not 0 <= id_ < state.capacity:
                raise ValueError(f"id {id_} is not a free id of the {id_width}-bit space")
        except (ValueError, AlreadyKnown) as exc:
            raise SnapshotError(f"line {ln}: {exc}") from None
        entries[basis] = [id_, 0]  # touch order: highest ID first
        reverse[id_] = basis
    # the free pool is the gaps between the taken IDs, lowest last
    ends = [state.capacity, *reverse, -1]
    state._free = [range(lo + 1, hi) for hi, lo in zip(ends, ends[1:]) if hi - lo > 1]
    state._free_count = state.capacity - len(reverse)
    return state
