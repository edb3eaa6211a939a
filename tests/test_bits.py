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
    for n in range(9):
        for width in (1, 8, 24):
            lane = (1 << width) - 1
            got = dict(bits._clear_masks(n, width))
            assert sorted(got) == list(range(n))
            for i, clear in got.items():
                expect = 0
                for a in range(1 << n):
                    if not a >> i & 1:
                        expect |= lane << (a * width)
                assert clear == expect, (n, width, i)


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
