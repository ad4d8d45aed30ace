"""The broadword pair loop of the tuple order, imported by `moments` only when
a level is wide enough for it, so that processes whose levels are all short
never compile it."""

from __future__ import annotations

from collections.abc import Iterable
from functools import lru_cache
from operator import lshift
from struct import pack


@lru_cache(maxsize=None)
def _and_popcounts(byte: int) -> bytes:
    """The translation table x -> |x & byte| of one byte."""
    return bytes((x & byte).bit_count() for x in range(256))


def broadword(items_a: Iterable[tuple[int, int]], masks_b: list[int], bits: int) -> int:
    """The sum of count_a * 2^|a & b| over A's (mask, count) items and B's
    masks, repeats included, each below 2^bits with bits <= 64, in
    whole-string passes per A mask.

    B's masks are packed 8 bytes each, lowest byte first, and sliced into
    one byte plane per byte of a mask, plane j holding byte j of every mask
    in turn (Knuth, *TAOCP* 4A, 7.1.3, on broadword computing).  For an A
    mask a, translating plane j by the table of a's byte j gives
    |a_j & b_j| for every b at once, and the planes' sums, read as integers
    whose bytes never carry (at most 64 < 256), give |a & b| per b.  Their
    histogram comes from one `bytes.count` per value up to |a|.
    """
    n, width = len(masks_b), (bits + 7) // 8
    raw = pack(f"<{n}Q", *masks_b)
    planes = [raw[j::8] for j in range(width)]
    del raw  # 8 bytes a mask; the planes keep `width` of them
    total = 0
    for mask_a, count_a in items_a:
        parts = [
            plane.translate(_and_popcounts(byte))
            for plane, byte in zip(planes, mask_a.to_bytes(width, "little"))
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
