import operator
import random

import pytest

from topolab import (
    GroundSet,
    Topology,
    build_topology,
    default_ground,
    enumerate_topologies,
    is_topology,
    random_topology,
)
from topolab.bits import canonical_family, intersection_closure, union_closure
from topolab.space import family_violation

from oracles import (
    count_preorders,
    naive_interior,
    pairwise_fixpoint,
    pairwise_fixpoint_topology,
    pairwise_intersection_closed,
    pairwise_union_closed,
)


def test_ground_set_validation():
    with pytest.raises(ValueError):
        GroundSet(("a", "a"))
    with pytest.raises(ValueError):
        default_ground(17)
    assert default_ground(3).labels == ("a", "b", "c")
    assert default_ground(0).full == 0


def test_build_topology_indiscrete_and_discrete():
    g = default_ground(2)
    assert build_topology(g, ()).opens == (0, 3)
    assert build_topology(g, (1, 2)).opens == (0, 1, 2, 3)


def test_build_topology_sierpinski_seed(s2):
    g = default_ground(2)
    assert build_topology(g, (1,)) == s2
    assert s2.opens == (0, 1, 3)


def test_build_topology_fixed_point_matches_hand_closure():
    # {a,b} and {b,c} force {b} (intersection) and X (union), nothing else
    g = default_ground(3)
    top = build_topology(g, (0b011, 0b110))
    assert top.opens == (0, 0b010, 0b011, 0b110, 0b111)


def test_is_topology_examples(c3):
    g = default_ground(2)
    assert is_topology(g, (0, 3))
    assert not is_topology(g, (0, 1, 2))  # X and the union both missing
    assert is_topology(c3.ground, (0, 0b001, 0b011, 0b111))


def test_family_violation_messages():
    g = default_ground(2)
    assert "empty set" in family_violation(g, (1, 3))
    assert "whole space" in family_violation(g, (0, 1))
    assert "outside the ground set" in family_violation(g, (0, 3, 4))
    g3 = default_ground(3)
    assert family_violation(g3, (0, 0b001, 0b010, 0b111)) == (
        "not closed under union: {a,b} is a union of members but is missing"
    )
    assert family_violation(g3, (0, 0b011, 0b110, 0b111)) == (
        "not closed under intersection: {b} is an intersection of members but is missing"
    )
    assert family_violation(g3, (0, 0b001, 0b011, 0b111)) is None


def test_closure_kernel_matches_pairwise_scans_on_every_small_family():
    for n in range(5):
        g = default_ground(n)
        full = g.full
        for bits in range(1 << (1 << n)):
            fam = tuple(m for m in range(1 << n) if bits >> m & 1)
            unions = 0 in fam and pairwise_union_closed(fam)
            meets = full in fam and pairwise_intersection_closed(fam)
            assert (union_closure(fam, n) == fam) == unions
            assert (intersection_closure(fam, n) == fam) == meets
            assert is_topology(g, fam) == (unions and meets)


def test_closure_kernel_matches_pairwise_fixpoint_on_seeded_families():
    rng = random.Random(23)
    for trial in range(200):
        n = rng.randrange(5, 9)
        full = (1 << n) - 1
        fam = canonical_family(rng.randrange(1 << n) for _ in range(rng.randrange(1, 7)))
        assert union_closure(fam, n) == pairwise_fixpoint({0, *fam}, operator.or_)
        assert intersection_closure(fam, n) == pairwise_fixpoint({full, *fam}, operator.and_)
        # a topology less one member other than the ends: closed or not,
        # both routes agree
        opens = list(random_topology(n, rng.randrange(10**6), n).opens)
        if len(opens) > 2:
            del opens[rng.randrange(1, len(opens) - 1)]
        expect = pairwise_union_closed(opens) and pairwise_intersection_closed(opens)
        assert is_topology(default_ground(n), opens) == expect


def test_interior_closure_examples(s2, c3):
    assert s2.interior(0b10) == 0
    assert s2.interior(s2.full) == s2.full
    assert c3.interior(0b110) == 0
    assert s2.closure(0b01) == s2.full
    assert s2.closure(0) == 0
    assert c3.closure(0b010) == 0b110


def test_interior_matches_naive_scan():
    rng = random.Random(5)
    for trial in range(30):
        top = random_topology(5, rng.randrange(10**6), 4)
        for a in top.subsets():
            assert top.interior(a) == naive_interior(top, a)


def test_interior_closure_laws():
    for seed in range(15):
        top = random_topology(4, seed, 3)
        full = top.full
        for a in top.subsets():
            inner, outer = top.interior(a), top.closure(a)
            assert inner & ~a == 0 and a & ~outer == 0
            assert top.interior(inner) == inner
            assert top.closure(outer) == outer
            assert outer == full ^ top.interior(full ^ a)
            for b in top.subsets():
                if a & ~b == 0:
                    assert top.interior(a) & ~top.interior(b) == 0
                    break


def test_enumeration_counts_match_preorder_oracle():
    for n in range(5):
        assert sum(1 for _ in enumerate_topologies(n)) == count_preorders(n)


def test_enumeration_is_canonical_and_capped():
    tops = list(enumerate_topologies(2))
    assert [t.opens for t in tops] == [(0, 3), (0, 1, 3), (0, 2, 3), (0, 1, 2, 3)]
    with pytest.raises(ValueError):
        next(enumerate_topologies(5))


def test_random_topology_deterministic_and_valid():
    a = random_topology(5, 7, 3)
    b = random_topology(5, 7, 3)
    assert a == b
    assert is_topology(a.ground, a.opens)
    assert random_topology(5, 1, 0).opens == (0, a.full)
    assert random_topology(1, 99, 4).opens == (0, 1)


def test_build_topology_matches_pairwise_fixpoint():
    for n in range(4):
        g = default_ground(n)
        for bits in range(1 << (1 << n)):
            sub = [m for m in range(1 << n) if bits >> m & 1]
            assert build_topology(g, sub).opens == pairwise_fixpoint_topology(n, sub)
    rng = random.Random(29)
    for trial in range(200):
        n = rng.randrange(5, 9)
        sub = [rng.randrange(1 << n) for _ in range(rng.randrange(n + 1))]
        assert build_topology(default_ground(n), sub).opens == pairwise_fixpoint_topology(n, sub)


def test_build_topology_sixteen_points():
    rng = random.Random(37)
    sub = [rng.randrange(1 << 16) for _ in range(16)]
    top = build_topology(default_ground(16), sub)
    assert is_topology(top.ground, top.opens)
    assert set(sub) <= set(top.opens)


def test_build_topology_output_always_valid():
    rng = random.Random(11)
    for trial in range(40):
        n = rng.randrange(1, 6)
        g = default_ground(n)
        seeds = [rng.randrange(1 << n) for _ in range(rng.randrange(5))]
        top = build_topology(g, seeds)
        assert is_topology(g, top.opens)
        assert all(s in set(top.opens) for s in seeds)


def test_topology_rejects_bad_family():
    g = default_ground(2)
    with pytest.raises(ValueError):
        Topology(g, (0, 1))
    with pytest.raises(ValueError):
        Topology(g, (0, 3, 4))


def test_topology_equality_and_immutability(s2):
    other = Topology(s2.ground, (0, 1, 3))
    assert s2 == other and hash(s2) == hash(other)
    with pytest.raises(AttributeError):
        s2.opens = ()


def test_empty_ground_set():
    empty = next(enumerate_topologies(0))
    assert empty.opens == (0,) and empty.full == 0
    assert empty.interior(0) == 0 and empty.closure(0) == 0
    assert is_topology(empty.ground, (0,))
    assert build_topology(default_ground(0), ()).opens == (0,)
