"""Byte-plane code of the tuple order, imported by `moments` only when a level
is wide enough for the broadword pair loop or a pattern with |Aut| = 1 takes
a tuple pass, so that processes whose patterns have at most 5 vertices never
compile it (the only such pattern with |Aut| = 1 is a single vertex, which
takes the edge-set order).

A level's masks as byte planes: plane j holds byte j of every mask in turn
(Knuth, *TAOCP* 4A, 7.1.3, on broadword computing).  The broadword pair loop
reads them; `tuple_levels` builds them for an |Aut| = 1 tuple pass without
making one integer per tuple, and `Planes.packed` from a list of masks.
"""

from __future__ import annotations

import sys
from collections.abc import Iterable, Iterator
from functools import lru_cache
from math import factorial, perm
from operator import lshift
from struct import pack

from .pattern import PatternGraph

_ROW_FORMATS = {1: "B", 2: "H", 4: "I", 8: "Q"}  # memoryview's native unsigned rows


class Planes:
    """n masks as byte planes, lowest byte first; iterating gives the masks."""

    __slots__ = "n", "planes"

    def __init__(self, n: int, planes: list[bytes]) -> None:
        self.n, self.planes = n, planes

    @classmethod
    def packed(cls, masks: list[int], bits: int) -> Planes:
        """The masks of a list, each below 2^bits with bits <= 64: packed 8
        bytes each, lowest byte first, and sliced into planes."""
        n = len(masks)
        raw = pack(f"<{n}Q", *masks)
        return cls(n, [raw[j::8] for j in range(-(-bits // 8))])

    def __len__(self) -> int:
        return self.n

    def __iter__(self) -> Iterator[int]:
        """The masks in turn: the planes interleaved into rows of 1, 2, 4 or
        8 bytes and read through a memoryview."""
        width = 1
        while width < len(self.planes):
            width *= 2
        rows = bytearray(self.n * width)
        for j, plane in enumerate(self.planes):
            rows[(j if sys.byteorder == "little" else width - 1 - j) :: width] = plane
        return iter(memoryview(rows).cast(_ROW_FORMATS[width]))


@lru_cache(maxsize=None)
def _and_popcounts(byte: int) -> bytes:
    """The translation table x -> |x & byte| of one byte."""
    return bytes((x & byte).bit_count() for x in range(256))


def broadword(items_a: Iterable[tuple[int, int]], masks_b: Planes) -> int:
    """The sum of count_a * 2^|a & b| over A's (mask, count) items and B's
    masks, repeats included, in whole-string passes per A mask.

    For an A mask a, translating plane j by the table of a's byte j gives
    |a_j & b_j| for every b at once, and the planes' sums, read as integers
    whose bytes never carry (at most 64 < 256), give |a & b| per b.  Their
    histogram comes from one `bytes.count` per value up to |a|.
    """
    n, planes = masks_b.n, masks_b.planes
    total = 0
    for mask_a, count_a in items_a:
        parts = [
            plane.translate(_and_popcounts(byte))
            for plane, byte in zip(planes, mask_a.to_bytes(len(planes), "little"))
            if byte
        ]
        if not parts:
            total += count_a * n
            continue
        if len(parts) > 1:
            parts = [sum(int.from_bytes(part, "little") for part in parts).to_bytes(n, "little")]
        values = range(mask_a.bit_count() + 1)
        total += count_a * sum(map(lshift, map(parts[0].count, values), values))
    return total


# The per-k table of `tuple_levels`: C(k, 2) columns of k! bytes, resident
# once built, one per k met.  It takes 1.1 MB at k = 8, built in about 5 ms
# (13 MB and 37 ms at k = 9).  At k = 10 it would take C(10, 2) 10! = 163 MB,
# so a cap of 10 would need it built per first vertex instead (ROADMAP
# item 4).
@lru_cache(maxsize=None)
def _slot_columns(k: int) -> tuple[bytes, ...]:
    """columns[b]: for the slot pair (j, p) of bit b = p(p-1)/2 + j, j < p <
    k, byte m is t_j << 4 | t_p for the m-th permutation t of range(k) in
    lexicographic order (k <= 16).

    The slots' columns are built up from m = 1: the permutations of range(m)
    that start with v are v followed by those of range(m - 1) with v, v + 1,
    ... moved up by one, so each column of m - 1 is translated once per v,
    with no tuple or string per permutation."""
    slots: list[bytes] = []
    count = 1  # (m - 1)!
    for m in range(1, k + 1):
        up = [bytes(range(v)) + bytes(range(v + 1, 256)) + bytes(1) for v in range(m)]
        slots = [b"".join(bytes([v]) * count for v in range(m))] + [
            b"".join(slot.translate(table) for table in up) for slot in slots
        ]
        count *= m
    values = [int.from_bytes(slot, "little") for slot in slots]  # bytes below 16, so << 4 never carries
    return tuple((values[j] << 4 | values[p]).to_bytes(count, "little") for p in range(k) for j in range(p))


# _BITS[s] sends 1 to 1 << s and every other byte to 0; _LOW[r] keeps a
# byte's low r bits
_BITS = [bytes([0, 1 << s]) + bytes(254) for s in range(8)]
_LOW = [bytes(x & (1 << r) - 1 for x in range(256)) for r in range(8)]


def tuple_levels(pattern: PatternGraph, depth: int) -> list[Planes]:
    """levels[i], 1 <= i <= depth: the masks of every ordered i-tuple of the
    pattern's vertices, in lexicographic order, as planes (level 0 is empty).

    Each tuple stands for itself, so a mask's bit (j, p) is the adjacency
    read at the tuple's slots j and p, index pairs that do not depend on the
    pattern.  One translation of a slot pair's column through the 256-byte
    adjacency table of nibble pairs, shifted to the pair's bit within its
    byte, sets that bit for every tuple at once, and a plane is the OR of
    its eight bits' columns, taken as integers.  That builds level `depth`,
    the prefixes of every (k - depth)!-th permutation.  The i-tuples are the
    prefixes of every (k - i)-th (i + 1)-tuple, so each level below is the
    one above's planes, strided, less the bits of slot i.
    """
    k = pattern.vertex_count
    adjacent = bytearray(256)
    for u, v in pattern.edges:
        adjacent[u << 4 | v] = adjacent[v << 4 | u] = 1
    stride = factorial(k - depth)
    columns = [column[::stride] for column in _slot_columns(k)[: depth * (depth - 1) // 2]]
    n = perm(k, depth)
    planes = []
    for start in range(0, len(columns), 8):
        plane = 0
        for column, bits in zip(columns[start : start + 8], _BITS):
            plane |= int.from_bytes(column.translate(adjacent.translate(bits)), "little")
        planes.append(plane.to_bytes(n, "little"))
    levels = [Planes(n, planes)]
    for i in range(depth - 1, 0, -1):
        bits = i * (i - 1) // 2
        planes = [plane[:: k - i] for plane in planes[: -(-bits // 8)]]
        if bits % 8:
            planes[-1] = planes[-1].translate(_LOW[bits % 8])
        levels.append(Planes(perm(k, i), planes))
    levels.append(Planes(0, []))
    return levels[::-1]
