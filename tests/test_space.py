import pickle
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
    sierpinski,
)
from topolab import space as space_module
from topolab.bits import point_meets
from topolab.jsonio import dumps_space, loads_space
from topolab.space import family_violation

from oracles import count_preorders, route_check


def test_ground_set_validation():
    with pytest.raises(ValueError):
        GroundSet(("a", "a"))
    with pytest.raises(ValueError):
        default_ground(17)
    assert default_ground(3).labels == ("a", "b", "c")
    assert default_ground(0).full == 0


def test_label_index_keeps_errors_equality_and_hash():
    g = GroundSet(("x", "y", "z"))
    assert g.mask_of_labels(["z", "x"]) == 0b101
    for _ in range(2):  # index built by the call above, then kept
        with pytest.raises(KeyError, match="unknown point label 'w'"):
            g.mask_of_labels(["x", "w"])
    # an unhashable label, as a nested JSON list reads, is unknown too
    with pytest.raises(KeyError, match=r"unknown point label \['x'\]"):
        g.mask_of_labels(["y", ["x"]])
    assert g.mask_of_labels([]) == 0
    fresh = GroundSet(("x", "y", "z"))
    assert g == fresh and hash(g) == hash(fresh)
    assert fresh.mask_of_labels(["y"]) == 0b010
    assert g == fresh and hash(g) == hash(fresh)
    assert g != GroundSet(("x", "z", "y"))
    assert repr(g) == "GroundSet(labels=('x', 'y', 'z'))"


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
    assert family_violation(default_ground(5), (0, 1, 2, 31)) == (
        "not closed under union: {a,b} is a union of members but is missing"
    )


def test_interior_closure_examples(s2, c3):
    assert s2.interior(0b10) == 0
    assert s2.interior(s2.full) == s2.full
    assert c3.interior(0b110) == 0
    assert s2.closure(0b01) == s2.full
    assert s2.closure(0) == 0
    assert c3.closure(0b010) == 0b110


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


def test_build_topology_reads_the_subbasis_once_and_validates_it_first():
    g = default_ground(2)
    assert build_topology(g, iter((1,))) == build_topology(g, (1,))
    # the first member outside the ground set is named, before any work
    with pytest.raises(ValueError, match=r"subbasis member 0x4 uses bits outside the ground set"):
        build_topology(g, iter((1, 4, 8)))


def test_pickle_round_trip_rebuilds_through_the_constructor(monkeypatch):
    # a fresh space and one whose memo holds tables keyed by their
    # builders; the copy is equal, hashes equal, is validated again and
    # starts with a memo holding only its own validation meets, none of the
    # original's objects
    fresh = random_topology(3, 0, 3)
    filled = sierpinski()
    filled.int_table()
    filled.family_props(filled.opens)
    assert filled._memo
    checked = []

    def counted(ground, family, *rest):
        checked.append(family)
        return family_violation(ground, family, *rest)

    monkeypatch.setattr(space_module, "family_violation", counted)
    for top in (fresh, filled):
        copy = pickle.loads(pickle.dumps(top))
        assert copy == top and hash(copy) == hash(top) and copy is not top
        assert copy._memo == {Topology.min_nbhds.__wrapped__: point_meets(zip(copy.opens, copy.opens), copy.n)}
        assert all(value is not top._memo.get(key) for key, value in copy._memo.items())
        assert copy.int_table() == top.int_table()
    assert checked == [fresh.opens, filled.opens]


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


def test_kept_min_nbhds_are_the_point_meets():
    # from construction on, a space's memo holds exactly the meets its
    # validation computed, equal to point_meets recomputed from scratch, on
    # every space of at most 4 points and on seeded 8-, 12- and 16-point
    # spaces, enumerated, built and read from a file alike
    rng = random.Random(103)
    spaces = [top for n in range(5) for top in enumerate_topologies(n)]
    spaces += [random_topology(n, rng.randrange(10**6), n) for n in (8, 12, 16) for _ in range(3)]
    for top in spaces:
        for space in (top, loads_space(dumps_space(top))):
            meets = point_meets(zip(space.opens, space.opens), space.n)
            assert space._memo == {Topology.min_nbhds.__wrapped__: meets}, space
            assert space.min_nbhds() is space._memo[Topology.min_nbhds.__wrapped__]


def literal_braced(ground, *masks):
    return " ".join(
        "{" + ",".join(lab for i, lab in enumerate(ground.labels) if m >> i & 1) + "}" for m in masks
    )


def test_braced_matches_the_literal_label_join():
    # every mask for n = 0..10 and seeded 16-point masks, one mask per
    # call and all in one call, with one-letter and longer labels; bits
    # outside the ground set are ignored
    rng = random.Random(107)
    grounds = [default_ground(n) for n in range(11)]
    grounds += [GroundSet(tuple(f"p{i}" for i in range(n))) for n in (3, 9, 10)]
    for ground in grounds:
        masks = list(range(1 << ground.size))
        for m in masks:
            assert ground.braced(m) == literal_braced(ground, m), (ground, m)
        assert ground.braced(*masks) == literal_braced(ground, *masks)
        assert ground.braced(ground.full | 1 << ground.size) == literal_braced(ground, ground.full)
        assert ground.braced() == ""
    for ground in (default_ground(16), GroundSet(tuple(f"x{i}" for i in range(16)))):
        masks = [0, ground.full, 0xFF, 0xFF00] + [rng.randrange(1 << 16) for _ in range(500)]
        for m in masks:
            assert ground.braced(m) == literal_braced(ground, m), (ground, m)
        assert ground.braced(*masks) == literal_braced(ground, *masks)
        assert ground.braced(1 << 16 | 5) == literal_braced(ground, 5)


# Checks that became rows of oracles.ROUTES, kept under their names.
test_interior_matches_naive_scan = route_check("interior")
test_closure_kernel_matches_pairwise_scans_on_every_small_family = route_check("closure_kernel")
test_closure_kernel_matches_pairwise_fixpoint_on_seeded_families = route_check("closures_seeded", "closure_kernel_seeded")
test_family_props_memo_matches_fresh_closures = route_check("family_props_memo")
test_build_topology_matches_pairwise_fixpoint = route_check("build_topology")
test_alexandroff_acceptance_matches_the_pairwise_verdicts = route_check("family_violation")
test_alexandroff_acceptance_on_seeded_wide_families = route_check("family_violation_wide")
test_family_props_planes_match_pairwise_scans_on_every_small_family = route_check("family_props")
