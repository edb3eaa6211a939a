"""The subset-lattice kernel against literal scans and fixpoints."""

import operator
import random

from topolab import bits
from topolab.bits import (
    canonical_family,
    contained_union_table,
    intersection_closure,
    union_closure,
    upward_closure,
)
from topolab.space import MAX_POINTS

from oracles import literal_contained_union_table, pairwise_fixpoint

WIDTHS = (1, 7, 8, 9, 16, 17, 64, 65)


def _pair_lists(rng, n, width):
    """The empty list, a list with repeated keys and a seeded list of
    ``width``-bit payloads, one payload of the full width in each."""
    top = 1 << (width - 1)
    keys = [rng.randrange(1 << n) for _ in range(rng.randrange(1, 12))]
    seeded = [(k, rng.getrandbits(width) | (top if i == 0 else 0)) for i, k in enumerate(keys)]
    repeated = [(keys[0], top), (keys[0], 1), (keys[-1], rng.getrandbits(width))] * 2
    return [[], repeated, seeded]


def test_contained_union_table_matches_literal_scan():
    rng = random.Random(41)
    for n in range(13):
        for width in WIDTHS:
            for pairs in _pair_lists(rng, n, width):
                expect = literal_contained_union_table(pairs, n)
                assert contained_union_table(iter(pairs), n) == expect, (n, width, pairs)


def test_clear_masks_flag_the_lanes_of_subsets_without_each_point():
    # every lane width up to 8 points; the cached plane masks (width 1)
    # at every ground-set size, read twice, and the cache stays bounded
    for n in range(MAX_POINTS + 1):
        for width in (1, 8, 24) if n <= 8 else (1,):
            got = dict(bits._clear_masks(n, width))
            assert sorted(got) == list(range(n))
            for i, clear in got.items():
                # lane a, the a-th from the right, is all ones iff a lacks i
                digits = "".join(("0" if a >> i & 1 else "1") * width for a in reversed(range(1 << n)))
                assert clear == int(digits, 2), (n, width, i)
        assert bits._clear_masks(n, 1) is bits._clear_masks(n, 1)
    info = bits._plane_masks.cache_info()
    assert info.maxsize <= MAX_POINTS + 1 and info.currsize <= info.maxsize
    # the oracle's wider subfamily planes are built per call, not kept
    (i, clear), *_ = bits._clear_masks(MAX_POINTS + 1, 1)
    assert (i, clear) == (MAX_POINTS, (1 << (1 << MAX_POINTS)) - 1)
    assert bits._plane_masks.cache_info().currsize == info.currsize


def test_closures_match_pairwise_fixpoint_on_seeded_families():
    rng = random.Random(43)
    for n in range(5, 13):
        full = (1 << n) - 1
        for _ in range(6):
            fam = canonical_family(rng.randrange(1 << n) for _ in range(rng.randrange(0, 7)))
            assert union_closure(fam, n) == pairwise_fixpoint({0, *fam}, operator.or_)
            assert intersection_closure(fam, n) == pairwise_fixpoint({full, *fam}, operator.and_)
            literal = tuple(a for a in range(1 << n) if any(m & ~a == 0 for m in fam))
            assert upward_closure(fam, n) == literal
