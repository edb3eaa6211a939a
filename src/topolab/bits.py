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
base-2 digits, ``struct`` and ``int.to_bytes``/``int.from_bytes``, never
decimal, so the interpreter's int-to-str digit limit never applies.
"""

from __future__ import annotations

import hashlib
import struct
import sys
from functools import lru_cache
from itertools import compress
from typing import Collection, Iterable, Iterator, Optional, Sequence

Family = tuple  # tuple[int, ...], canonical: sorted ascending, no duplicates

SUBFAMILY_CAP = 20  # 2**20 subfamily masks is the largest scan we allow
#: ground sets are capped at this many points (:mod:`topolab.space`)
MAX_POINTS = 16

_PACK_CODE = {1: "B", 2: "H", 4: "I", 8: "Q"}  # struct's standard sizes
_LANE_BYTES = (1, 1, 2, 4, 4, 8, 8, 8, 8)  # lane bytes for entries of 0-8 bytes
_DIGIT_FLAG = bytes.maketrans(b"01", b"\x00\x01")
_FLAG_DIGIT = bytes.maketrans(b"\x00\x01", b"01")
_ZERO_FLAG = b"\1" + bytes(255)  # byte -> 1 if it is zero, else 0
_ZERO_DIGIT = b"1" + b"0" * 255  # byte -> "1" if it is zero, else "0"


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


def _clear_masks(n: int, width: int) -> Iterable[tuple[int, int]]:
    """``(i, clear)`` for each point i, from the top point down, where
    ``clear`` sets every bit of the ``width``-bit lanes of the subsets
    without point i: the low half of all 2**n lanes for the top point,
    then one shift and XOR per point below it.  The plane masks (width
    1) of a ground set are read on every plane transform, so they come
    from a cache of one tuple per n (:func:`_plane_masks`); wider lane
    masks, and the planes of the oracle's subfamilies past
    :data:`MAX_POINTS`, are built on each call, as keeping them would
    hold megabytes."""
    if width == 1 and n <= MAX_POINTS:
        return _plane_masks(n)
    return _lane_masks(n, width)


@lru_cache(maxsize=MAX_POINTS + 1)
def _plane_masks(n: int) -> tuple[tuple[int, int], ...]:
    """The width-1 :func:`_clear_masks` of n points: n masks of 2**n
    bits, 128 KiB at 16 points and 243 KiB for every n up to it."""
    return tuple(_lane_masks(n, 1))


def _lane_masks(n: int, width: int) -> Iterator[tuple[int, int]]:
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


def family_plane(family: Iterable[int], n: int) -> int:
    """The 2**n-bit plane flagging the members of ``family``, read from
    base-2 digits."""
    digits = bytearray(b"0") * (1 << n)
    for m in family:
        digits[~m] = 49  # ord("1"); the digit ~m from the left is bit m
    return int(digits, 2)


def plane_members(plane: int) -> Family:
    """The set bits of ``plane``, ascending: the family a plane flags."""
    flags = format(plane, "b")[::-1].encode().translate(_DIGIT_FLAG)
    return tuple(compress(range(len(flags)), flags))


def members_holding(plane: int, n: int, point: int) -> int:
    """The members of the 2**n-bit ``plane`` that hold ``point``: the
    plane off the ``clear`` mask of the point (:func:`_clear_masks`)."""
    return plane & ~_plane_masks(n)[n - 1 - point][1]


def plane_meet(plane: int, n: int) -> int:
    """The meet of the n-point sets flagged by the 2**n-bit ``plane``,
    computed from the members: y is in it iff no member lies off y, one
    AND with the ``clear`` mask of y per point.  The empty meet is the
    whole set."""
    meet = (1 << n) - 1
    for i, clear in _clear_masks(n, 1):
        if plane & clear:
            meet ^= 1 << i
    return meet


def bit_planes(table: Sequence[int], n: int) -> list[int]:
    """The 2**n entries of ``table``, n-point sets, transposed into
    planes (Warren, "Hacker's Delight", 2nd ed., ch. 7): ``out[x]`` is
    the 2**n-bit plane flagging the a whose ``table[a]`` holds x.

    The table is packed once (:func:`pack_lanes`); point x is one shift
    and mask of the lanes down to their low bit, read back as one flag
    byte per lane and turned into base-2 digits, so no entry is walked
    in Python."""
    lanes, width = pack_lanes(table)
    lane = width >> 3
    ones = int.from_bytes(b"\1".ljust(lane, b"\0") * (1 << n), "little")
    out = []
    for x in range(n):
        flags = (lanes >> x & ones).to_bytes(lane << n, "little")[::lane]
        out.append(int(flags.translate(_FLAG_DIGIT)[::-1], 2))
    return out


def _lane_bytes(bits: int) -> int:
    """The bytes of a lane holding entries of ``bits`` bits: 1, 2, 4 or 8
    up to 64 bits, one byte per 8 bits beyond."""
    need = (bits + 7) >> 3
    return _LANE_BYTES[need] if need <= 8 else need


def pack_lanes(table: Sequence[int], top: Optional[int] = None) -> tuple[int, int]:
    """``table`` as one integer of equal byte-aligned lanes, lane a
    holding ``table[a]``: (lanes, lane width in bits).  Lanes are 1, 2,
    4 or 8 bytes through one little-endian ``struct.pack``; wider
    entries go through one ``int.to_bytes`` each.  ``top``, if given,
    has the bit length of the largest entry (the OR of the entries
    does), and spares the scan for it."""
    lane = _lane_bytes((max(table) if top is None else top).bit_length())
    code = _PACK_CODE.get(lane)
    if code is None:
        raw = b"".join(v.to_bytes(lane, "little") for v in table)
    else:
        raw = struct.pack(f"<{len(table)}{code}", *table)
    return int.from_bytes(raw, "little"), 8 * lane


@lru_cache(maxsize=MAX_POINTS + 1)
def identity_lanes(n: int) -> tuple[int, int]:
    """The identity table of n points packed (:func:`pack_lanes`), lane
    a holding a: ``identity & ~table`` is zero at lane a iff a sits
    inside ``table[a]``.  It depends on n alone, so it comes from a cache
    of one entry per n, like :func:`_plane_masks`: 128 KiB at 16 points
    and 256 KiB for every n up to it."""
    return pack_lanes(subsets(n))


def row_planes(rows: Iterable[tuple[int, int]], n: int) -> tuple[list[int], list[int], int]:
    """The rows (t, u) of n-point sets transposed into bit-planes (Warren,
    "Hacker's Delight", 2nd ed., ch. 7): ``(held, hit, ones)``, where
    ``held[x]`` flags the rows whose u holds x, ``hit[y]`` those whose t
    holds y, and ``ones`` flags every row.

    Each row is one lane ``t << n | u`` (:func:`pack_lanes`), a flag is
    the low bit of its row's lane, and ``ones`` is the low bit of every
    lane.  A closing row (whole set, empty set) is added: its u holds no
    point and its t every point, so it sits in every ``hit`` plane and
    in no ``held`` plane.  It makes every lane 2n bits wide, so that no
    shift reads a neighbouring row, and lets no rows pack too.
    """
    table = [t << n | u for t, u in rows]
    table.append(((1 << n) - 1) << n)
    lanes, width = pack_lanes(table)
    ones = int.from_bytes(b"\1".ljust(width >> 3, b"\0") * len(table), "little")
    return [lanes >> x & ones for x in range(n)], [lanes >> (n + y) & ones for y in range(n)], ones


def point_meets(rows: Iterable[tuple[int, int]], n: int) -> tuple[int, ...]:
    """``out[x]`` is the meet of the t over the rows (t, u) whose u
    (inside the n points) holds x, or the whole set where no row does.

    On the planes of :func:`row_planes`, y is in out[x] iff no row whose
    u holds x has a t missing y: n**2 ANDs of whole planes.  The closing
    row's t misses no point, so it changes no meet.
    """
    held, hit, ones = row_planes(rows, n)
    missing = [(1 << y, ones & ~plane) for y, plane in enumerate(hit)]
    out = []
    for plane in held:
        meet = 0
        for bit, miss in missing:
            if not plane & miss:
                meet |= bit
        out.append(meet)
    return tuple(out)


def contained_union_lanes(pairs: Iterable[tuple[int, int]], n: int) -> tuple[int, int]:
    """:func:`contained_union_table` as (lanes, lane width in bits), lane
    a holding the union of the payloads whose key sits inside a.

    Subset-sum (zeta) transform over the subset lattice: seed each key
    with the union of its payloads, then close upwards one point at a
    time.  The table is one integer of 2**n byte-aligned lanes
    (:func:`pack_lanes`), so each point is one shift-and-OR over all of them.
    """
    table = [0] * (1 << n)
    top = 0
    for key, payload in pairs:
        table[key] |= payload
        top |= payload
    lanes, width = pack_lanes(table, top)
    return _zeta(lanes, _clear_masks(n, width), width), width


def unpack_lanes(lanes: int, width: int, n: int) -> Sequence[int]:
    """The 2**n ``width``-bit lanes of ``lanes``, in order: the inverse
    of :func:`pack_lanes`.  One-byte lanes come back as a tuple, whose
    entries are all cached small ints.  Lanes of 2, 4 or 8 bytes (an
    n-point table from 9 points on) come back as a read-only
    ``memoryview`` of the lane bytes cast to their width, 2 B an entry
    where a tuple of ints holds about 36: indexing and iterating read
    ints, assignment raises.  A big-endian host casts the byte-reversed
    lanes, which hold each lane in native order and the last lane first,
    and reads that view backwards."""
    lane = width >> 3
    if lane == 1:
        return tuple(lanes.to_bytes(1 << n, "little"))
    code = _PACK_CODE.get(lane)
    if code is None:
        raw = lanes.to_bytes(lane << n, "little")
        return tuple(int.from_bytes(raw[i:i + lane], "little") for i in range(0, len(raw), lane))
    if sys.byteorder == "little":
        return memoryview(lanes.to_bytes(lane << n, "little")).cast(code)
    return memoryview(lanes.to_bytes(lane << n, "big")).cast(code)[::-1]


class LanePairs:
    """Rows (t, u) kept as two read-only views of packed lanes, ``first``
    and ``second``, and immutable: it iterates as the (t, u) tuples, in
    order, but holds 2 B an entry from 9 points on where a tuple of
    pairs holds about 90 B a row.  Built by :func:`pair_rows`."""

    __slots__ = ("first", "second")

    def __init__(self, first: memoryview, second: memoryview):
        object.__setattr__(self, "first", first)
        object.__setattr__(self, "second", second)

    def __setattr__(self, name, value):
        raise AttributeError("LanePairs is immutable")

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return zip(self.first, self.second)


def pair_rows(first: Collection[int], second: Collection[int],
              n: int) -> tuple[tuple[int, int], ...] | LanePairs:
    """The rows (first[i], second[i]) of n-point sets, in order: a tuple
    of pairs while a set fits one byte (n <= 8), each entry a cached
    small int, else a :class:`LanePairs` of the two columns packed in
    native order to the lanes of n-bit entries."""
    lane = _lane_bytes(n)
    if lane == 1:
        return tuple(zip(first, second))
    code = _PACK_CODE[lane]
    return LanePairs(*(memoryview(struct.pack(f"={len(col)}{code}", *col)).cast(code)
                       for col in (first, second)))


def contained_union_table(pairs: Iterable[tuple[int, int]], n: int) -> list[int]:
    """table[a] = union of the payloads whose key mask sits inside ``a``:
    :func:`contained_union_lanes`, unpacked."""
    return list(unpack_lanes(*contained_union_lanes(pairs, n), n))


def is_monotone_lanes(lanes: int, width: int, n: int) -> bool:
    """Whether a inside b forces entry a inside entry b, for a table of
    2**n entries packed as ``width``-bit lanes (:func:`pack_lanes`).

    Single-point extensions suffice, as any inclusion chains them: point
    i is one shift of the lanes without i onto those with it, failing
    when a shifted lane has a bit its target lane lacks.
    """
    return not any(
        (lanes & clear) << (width << i) & ~lanes for i, clear in _clear_masks(n, width)
    )


def _folded_bytes(lanes: int, width: int, n: int) -> bytes:
    """The low byte of each of 2**n ``width``-bit lanes after folding,
    zero iff the lane is zero.  Each step ORs the lanes onto themselves
    shifted down by the bytes gathered so far, so that at the end the
    low byte of each lane is the OR of all its bytes; those low bytes,
    one per lane, are read in C."""
    lane, covered = width >> 3, 8
    while covered < width:
        step = min(covered, width - covered)
        lanes |= lanes >> step
        covered += step
    return lanes.to_bytes(lane << n, "little")[::lane]


def zero_lanes(lanes: int, width: int, n: int) -> Family:
    """The a, ascending, whose lane is zero among 2**n ``width``-bit
    lanes (:func:`_folded_bytes`, read as flags).  ``identity & ~table``
    is zero at lane a iff a sits inside ``table[a]``, so the open family
    of a table is one call."""
    return tuple(compress(range(1 << n), _folded_bytes(lanes, width, n).translate(_ZERO_FLAG)))


def zero_plane(lanes: int, width: int, n: int) -> int:
    """:func:`zero_lanes` as a 2**n-bit plane: the folded bytes of
    :func:`_folded_bytes` read as base-2 digits, so no member is walked.
    Membership, inclusion and size of the family are then one bit test,
    AND-NOT or bit count."""
    return int(_folded_bytes(lanes, width, n).translate(_ZERO_DIGIT)[::-1], 2)


def down_plane(family: Iterable[int], n: int) -> int:
    """The 2**n-bit plane flagging every subset of some member of
    ``family``: one bit per member, closed downwards, each point one
    shift of the lanes with it onto those without it (the ``clear``
    masks of :func:`_clear_masks`).  Its callers pass one point's row of
    a few members, so the seed bits are ORed in, not read from the
    2**n digits of :func:`family_plane`."""
    plane = 0
    for m in family:
        plane |= 1 << m
    for i, clear in _clear_masks(n, 1):
        plane |= plane >> (1 << i) & clear
    return plane


def pointed_down_plane(rows: Sequence[Iterable[int]], n: int) -> int:
    """The 2**n-bit plane flagging the sets A that hold some point x and
    lie inside a member of ``rows[x]``: the OR, over x, of the
    :func:`down_plane` of ``rows[x]`` and the sets off the ``clear``
    mask of x."""
    out = 0
    for x, clear in _clear_masks(n, 1):
        out |= down_plane(rows[x], n) & ~clear
    return out


def up_planes(planes: Iterable[int], n: int) -> Iterator[int]:
    """The up-closure (zeta transform) of each 2**n-bit plane in turn,
    one shift per point."""
    masks = _clear_masks(n, 1)
    for plane in planes:
        yield _zeta(plane, masks, 1)


def upward_closure(family: Iterable[int], n: int) -> Family:
    """Every subset holding some member of ``family``."""
    (plane,) = up_planes((family_plane(family, n),), n)
    return plane_members(plane)


def union_closure_plane(family: Iterable[int], n: int) -> int:
    """The 2**n-bit plane flagging every union of members of ``family``,
    the empty union included (:func:`close_unions` of its plane)."""
    return close_unions(family_plane(family, n), n)


def close_unions(members: int, n: int) -> int:
    """The union closure of the family flagged by the 2**n-bit plane
    ``members``, as a plane.

    A subset s is a union of members exactly when each point b of s lies
    in some member inside s.  For each b, the zeta transform of the
    plane of the members holding b flags the sets holding such a member;
    the sets flagged for every point they hold are the union closure.
    """
    masks = _clear_masks(n, 1)
    ok = (1 << (1 << n)) - 1
    for _, clear in masks:
        ok &= _zeta(members & ~clear, masks, 1) | clear
    return ok


def complement_plane(plane: int, n: int) -> int:
    """The 2**n-bit plane flagging the complements of the sets ``plane``
    flags: bit a moves to bit (2**n - 1) - a, so the plane's base-2
    digits are reversed."""
    return int(format(plane, "b").zfill(1 << n)[::-1], 2)


def plane_props(plane: int, n: int) -> tuple[bool, bool]:
    """(intersection-closed, union-closed) for the family flagged by the
    2**n-bit ``plane``: whether it equals its intersection closure (so
    holds the whole space) and its union closure (so holds the empty
    set).  Both compare planes: the family's with its union closure's,
    and the plane of its complements with theirs, since a family is
    intersection-closed iff its complements are union-closed."""
    comp = complement_plane(plane, n)
    return close_unions(comp, n) == comp, close_unions(plane, n) == plane


def union_closure(family: Iterable[int], n: int) -> Family:
    """Every union of members of ``family``, the empty union included
    (:func:`union_closure_plane`).  A family is union-closed and contains
    the empty set exactly when it equals its union closure."""
    return plane_members(union_closure_plane(family, n))


def intersection_closure(family: Iterable[int], n: int) -> Family:
    """Every intersection of members of ``family``, the empty intersection
    (the whole set) included: the complements of the union closure of the
    complements."""
    full = (1 << n) - 1
    return tuple(full ^ s for s in reversed(union_closure((full ^ m for m in family), n)))
