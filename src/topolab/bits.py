"""Bitmask subsets and canonical set families.

A subset of an n-point ground set is an ``int`` whose low n bits flag
membership (point i <-> bit i).  A family of subsets is a duplicate-free
tuple of masks sorted ascending.  Everything in this package trades in
these two currencies, so set algebra compiles down to integer arithmetic.

The subset-lattice kernel (the zeta transform of Bjorklund, Husfeldt,
Kaski and Koivisto, "Fourier meets Mobius", STOC 2007) runs bit-parallel
on whole tables: a plane is an ``int`` of 2**n bits, bit a standing for
subset a, and a lane table is an ``int`` of 2**n equal lanes, lane a
holding the entry for subset a.  Closing a table upwards along point i
is one shift-and-OR of the lanes of the subsets without i onto those
with it, so a transform is n big-integer steps rather than n * 2**n
interpreted ones.  Tables cross between lists and integers only through
base-2 digits and ``int.to_bytes``/``int.from_bytes``, never decimal, so
the interpreter's int-to-str digit limit never applies.
"""

from __future__ import annotations

import hashlib
import sys
from array import array
from itertools import compress
from typing import Iterable, Iterator, Sequence

Family = tuple  # tuple[int, ...], canonical: sorted ascending, no duplicates

SUBFAMILY_CAP = 20  # 2**20 subfamily masks is the largest scan we allow

_LANE_CODE = {array(code).itemsize: code for code in "BHILQ"}
_DIGIT_FLAG = bytes.maketrans(b"01", b"\x00\x01")


def derive_seed(*parts) -> int:
    """Stable 64-bit seed from hashable parts.

    hash() is randomized per process, so seeds for reproducible sampling
    are derived from a digest instead.
    """
    blob = repr(parts).encode()
    return int.from_bytes(hashlib.sha256(blob).digest()[:8], "big")


def mask_of(points: Iterable[int]) -> int:
    m = 0
    for p in points:
        m |= 1 << p
    return m


def iter_points(mask: int) -> Iterator[int]:
    """Yield the set bits of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def complement(mask: int, n: int) -> int:
    return ((1 << n) - 1) ^ mask


def subsets(n: int) -> range:
    """All subset masks of an n-point ground set, ascending."""
    return range(1 << n)


def canonical_family(masks: Iterable[int]) -> Family:
    return tuple(sorted(set(masks)))


def intersect_all(masks: Iterable[int], full: int) -> int:
    """Intersection of ``masks``; the empty intersection is the whole space."""
    out = full
    for m in masks:
        out &= m
    return out


def submasks_desc(mask: int) -> Iterator[int]:
    """All submasks of ``mask``, descending, starting at ``mask`` itself
    and ending at 0."""
    s = mask
    while True:
        yield s
        if s == 0:
            return
        s = (s - 1) & mask


def supersets(mask: int, n: int) -> Iterator[int]:
    free = complement(mask, n)
    for extra in submasks_desc(free):
        yield mask | extra


def union_dp(members: Sequence[int]) -> list[int]:
    """dp[sel] = union of members picked by the bits of ``sel``.

    ``sel`` indexes subfamilies of ``members``; capped at SUBFAMILY_CAP
    members so the table fits in memory.
    """
    k = len(members)
    if k > SUBFAMILY_CAP:
        raise ValueError(f"family of {k} members exceeds the subfamily scan cap ({SUBFAMILY_CAP})")
    dp = [0] * (1 << k)
    for sel in range(1, 1 << k):
        low = sel & -sel
        dp[sel] = dp[sel ^ low] | members[low.bit_length() - 1]
    return dp


def _clear_masks(n: int, width: int) -> Iterator[tuple[int, int]]:
    """``(i, clear)`` for each point i, from the top point down, where
    ``clear`` sets every bit of the ``width``-bit lanes of the subsets
    without point i: the low half of all 2**n lanes for the top point,
    then one shift and XOR per point below it."""
    clear = (1 << (width << n >> 1)) - 1
    for i in reversed(range(n)):
        if i < n - 1:
            clear ^= clear << (width << i)
        yield i, clear


def _zeta(lanes: int, masks: Iterable[tuple[int, int]], width: int) -> int:
    """Subset-OR (zeta) transform of 2**n ``width``-bit lanes, given
    :func:`_clear_masks` for them: lane a ends as the OR of the lanes of
    the submasks of a."""
    for i, clear in masks:
        lanes |= (lanes & clear) << (width << i)
    return lanes


def _plane(family: Iterable[int], n: int) -> int:
    """The 2**n-bit plane flagging the members of ``family``, read from
    base-2 digits."""
    digits = bytearray(b"0") * (1 << n)
    for m in family:
        digits[~m] = 49  # ord("1"); the digit ~m from the left is bit m
    return int(digits, 2)


def _bits_of(plane: int) -> Family:
    """The set bits of ``plane``, ascending."""
    flags = format(plane, "b")[::-1].encode().translate(_DIGIT_FLAG)
    return tuple(compress(range(len(flags)), flags))


def contained_union_table(pairs: Iterable[tuple[int, int]], n: int) -> list[int]:
    """table[a] = union of the payloads whose key mask sits inside ``a``.

    Subset-sum (zeta) transform over the subset lattice: seed each key
    with the union of its payloads, then close upwards one point at a
    time.  The table is one integer of 2**n byte-aligned lanes, so each
    point is one shift-and-OR over all of them.
    """
    size = 1 << n
    table = [0] * size
    for key, payload in pairs:
        table[key] |= payload
    need = (max(table).bit_length() + 7) // 8
    lane = next((s for s in (1, 2, 4, 8) if s >= need), need)
    code = _LANE_CODE.get(lane)
    if code is None:  # wider than a machine word: one int per lane
        raw = b"".join(v.to_bytes(lane, "little") for v in table)
    else:
        words = array(code, table)
        if sys.byteorder == "big":
            words.byteswap()
        raw = words.tobytes()
    width = 8 * lane
    raw = _zeta(int.from_bytes(raw, "little"), _clear_masks(n, width), width).to_bytes(
        size * lane, "little"
    )
    if code is None:
        return [int.from_bytes(raw[i:i + lane], "little") for i in range(0, len(raw), lane)]
    words = array(code)
    words.frombytes(raw)
    if sys.byteorder == "big":
        words.byteswap()
    return words.tolist()


def upward_closure(family: Iterable[int], n: int) -> Family:
    """Every subset holding some member of ``family``."""
    return _bits_of(_zeta(_plane(family, n), _clear_masks(n, 1), 1))


def union_closure(family: Iterable[int], n: int) -> Family:
    """Every union of members of ``family``, the empty union included.

    A subset s is a union of members exactly when each point b of s lies
    in some member inside s.  For each b, the zeta transform of the
    plane of the members holding b flags the sets holding such a member;
    the sets flagged for every point they hold are the union closure.  A
    family is union-closed and contains the empty set exactly when it
    equals its union closure.
    """
    masks = list(_clear_masks(n, 1))
    members = _plane(family, n)
    ok = (1 << (1 << n)) - 1
    for _, clear in masks:
        ok &= _zeta(members & ~clear, masks, 1) | clear
    return _bits_of(ok)


def intersection_closure(family: Iterable[int], n: int) -> Family:
    """Every intersection of members of ``family``, the empty intersection
    (the whole set) included: the complements of the union closure of the
    complements."""
    full = (1 << n) - 1
    return tuple(full ^ s for s in reversed(union_closure((full ^ m for m in family), n)))
