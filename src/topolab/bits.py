"""Bitmask subsets and canonical set families.

A subset of an n-point ground set is an ``int`` whose low n bits flag
membership (point i <-> bit i).  A family of subsets is a duplicate-free
tuple of masks sorted ascending.  Everything in this package trades in
these two currencies, so set algebra compiles down to integer arithmetic.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Iterator, Sequence

Family = tuple  # tuple[int, ...], canonical: sorted ascending, no duplicates

SUBFAMILY_CAP = 20  # 2**20 subfamily masks is the largest scan we allow


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


def union_all(masks: Iterable[int]) -> int:
    out = 0
    for m in masks:
        out |= m
    return out


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


def contained_union_table(pairs: Iterable[tuple[int, int]], n: int) -> list[int]:
    """table[a] = union of the payloads whose key mask sits inside ``a``.

    Subset-sum transform over the subset lattice: seed each key with the
    union of its payloads, then fold one bit position at a time.  Runs in
    O(2**n * n) whatever the number of pairs, which is what makes dense
    pair-interior tables affordable on bigger carriers.
    """
    table = [0] * (1 << n)
    for key, payload in pairs:
        table[key] |= payload
    for i in range(n):
        bit = 1 << i
        for a in range(1 << n):
            if a & bit:
                table[a] |= table[a ^ bit]
    return table


def union_closure(family: Iterable[int], n: int) -> Family:
    """Every union of members of ``family``, the empty union included.

    A subset s is a union of members exactly when the members inside s
    cover it, so one :func:`contained_union_table` pass decides all 2**n
    subsets at once.  A family is union-closed and contains the empty set
    exactly when it equals its union closure.
    """
    table = contained_union_table(((m, m) for m in family), n)
    return tuple(s for s, covered in enumerate(table) if covered == s)


def intersection_closure(family: Iterable[int], n: int) -> Family:
    """Every intersection of members of ``family``, the empty intersection
    (the whole set) included: the complements of the union closure of the
    complements."""
    full = (1 << n) - 1
    return tuple(full ^ s for s in reversed(union_closure((full ^ m for m in family), n)))
