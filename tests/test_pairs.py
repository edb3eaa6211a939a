import pytest

from topolab import (
    BUILTIN_NAMES,
    NAMED_FAMILIES,
    OpPair,
    Topology,
    base_report,
    catalog,
    classify_structure,
    enlargement_base,
    enumerate_topologies,
    named_family,
    pair_closed_family,
    pair_closure,
    pair_interior,
    pair_open_family,
)
from topolab.pairs import pair_closure_by_points

from oracles import naive_pair_interior, pairwise_intersection_closed, pairwise_union_closed


def small_spaces():
    return [t for n in (1, 2, 3) for t in enumerate_topologies(n)]


def all_pairs(top):
    ops = catalog(top)
    return [OpPair(ops[a], ops[b]) for a in BUILTIN_NAMES for b in BUILTIN_NAMES]


def test_pair_rejects_mixed_topologies(s2, d2):
    with pytest.raises(ValueError):
        OpPair(catalog(s2)["int"], catalog(d2)["cl"])


def test_pair_interior_examples(s2):
    ops = catalog(s2)
    theta = OpPair(ops["int"], ops["cl"])
    assert pair_interior(theta, 0b01) == 0
    assert pair_interior(theta, s2.full) == s2.full
    plain = OpPair(ops["int"], ops["identity"])
    assert pair_interior(plain, 0b01) == 0b01


def test_pair_closure_examples(s2, c3):
    theta = OpPair(catalog(s2)["int"], catalog(s2)["cl"])
    assert pair_closure(theta, 0b10) == s2.full
    assert pair_closure(theta, 0) == 0
    ops3 = catalog(c3)
    semi = OpPair(ops3["cloint"], ops3["cl"])
    assert pair_closure(semi, 0b100) == c3.full


def test_pair_interior_matches_pointwise_rule():
    for top in small_spaces():
        for p in all_pairs(top):
            for a in top.subsets():
                assert pair_interior(p, a) == naive_pair_interior(p, a)
                assert pair_closure(p, a) == pair_closure_by_points(p, a)
                assert top.full ^ pair_interior(p, a) == pair_closure(p, top.full ^ a)


def test_pair_families_examples(s2):
    ops = catalog(s2)
    assert pair_open_family(OpPair(ops["int"], ops["cl"])) == (0, 3)
    assert pair_open_family(OpPair(ops["int"], ops["identity"])) == s2.opens
    assert pair_open_family(OpPair(ops["int"], ops["introcl"])) == (0, 3)
    assert pair_closed_family(OpPair(ops["int"], ops["cl"])) == (0, 3)


def test_pair_families_complement_each_other():
    for top in small_spaces():
        for p in all_pairs(top):
            opens = pair_open_family(p)
            closed = set(pair_closed_family(p))
            assert {top.full ^ a for a in opens} == closed


def test_classify_structure_examples(s2):
    ops = catalog(s2)
    rep = classify_structure(OpPair(ops["int"], ops["cl"]))
    assert rep == type(rep)(True, True, True, True, True)
    rep = classify_structure(OpPair(ops["int"], ops["identity"]))
    assert rep.is_supratopology and rep.is_topology
    for top in small_spaces():
        p = OpPair(catalog(top)["cloint"], catalog(top)["scl"])
        assert classify_structure(p).is_supratopology


def test_structure_flag_implications():
    for top in small_spaces():
        for p in all_pairs(top):
            rep = classify_structure(p)
            assert rep.is_supratopology
            fam = pair_open_family(p)
            assert rep.is_supratopology == pairwise_union_closed(fam)
            assert rep.is_topology == (pairwise_union_closed(fam) and pairwise_intersection_closed(fam))
            if rep.is_kuratowski:
                assert rep.is_topology
            if rep.is_topology:
                assert rep.is_supratopology


def test_named_family_examples(s2, c3, d2):
    assert named_family(s2, "RO") == (0, 3)
    assert named_family(c3, "SO") == (0, 0b001, 0b011, 0b101, 0b111)
    assert named_family(d2, "SR") == (0, 1, 2, 3)
    assert named_family(s2, "tau_s") == (0, 3)
    with pytest.raises(ValueError):
        named_family(s2, "XO")


def test_named_families_all_defined(s2):
    for name in NAMED_FAMILIES:
        fam = named_family(s2, name)
        assert fam == tuple(sorted(set(fam)))


def test_catalog_family_identities():
    for top in small_spaces():
        ops = catalog(top)
        assert pair_open_family(OpPair(ops["int"], ops["cl"])) == named_family(top, "tau_theta")
        assert pair_open_family(OpPair(ops["cloint"], ops["scl"])) == named_family(top, "SthetaO")
        assert pair_open_family(OpPair(ops["int"], ops["introcl"])) == named_family(top, "tau_s")
        assert pair_open_family(OpPair(ops["cloint"], ops["cl"])) == named_family(top, "thetaSO")


def test_enlargement_base_examples(s2):
    from topolab import op_open_family

    for top in small_spaces():
        ops = catalog(top)
        assert enlargement_base(OpPair(ops["int"], ops["introcl"])) == named_family(top, "RO")
        assert enlargement_base(OpPair(ops["cloint"], ops["cl"])) == named_family(top, "RC")
        for name in BUILTIN_NAMES:
            p = OpPair(ops[name], ops["identity"])
            assert enlargement_base(p) == op_open_family(ops[name])


def test_base_report_examples(s2):
    ops = catalog(s2)
    rep = base_report(OpPair(ops["int"], ops["introcl"]))
    assert rep.hypothesis_d and rep.is_base
    for top in small_spaces():
        rep = base_report(OpPair(catalog(top)["cloint"], catalog(top)["scl"]))
        assert rep.hypothesis_d and rep.is_base
        ident = base_report(OpPair(catalog(top)["cl"], catalog(top)["identity"]))
        assert ident.is_base


def test_base_report_implications():
    for top in small_spaces():
        for p in all_pairs(top):
            rep = base_report(p)
            if rep.hypothesis_a:
                assert rep.base_in_pair_and_selector
            if rep.hypothesis_b or rep.hypothesis_c or rep.hypothesis_d:
                assert rep.is_base


def test_enlargers_agreeing_on_selector_family(s2):
    # semi-closure and the interior of the closure agree on open sets
    for top in small_spaces():
        ops = catalog(top)
        scl_pair = OpPair(ops["int"], ops["scl"])
        ic_pair = OpPair(ops["int"], ops["introcl"])
        assert all(ops["scl"].table[u] == ops["introcl"].table[u] for u in top.opens)
        assert pair_open_family(scl_pair) == pair_open_family(ic_pair)


def test_pair_topology_from_kuratowski_closure(s2):
    ops = catalog(s2)
    p = OpPair(ops["int"], ops["cl"])
    fam = pair_open_family(p)
    ptop = Topology(s2.ground, fam)
    for a in s2.subsets():
        assert pair_closure(p, a) == ptop.closure(a)


def test_pair_duality_on_random_spaces():
    import random

    from topolab import random_topology

    rng = random.Random(23)
    for trial in range(8):
        top = random_topology(5, rng.randrange(10**6), 4)
        ops = catalog(top)
        for a, b in (("int", "cl"), ("cloint", "scl"), ("scl", "introcl")):
            p = OpPair(ops[a], ops[b])
            for s in top.subsets():
                assert top.full ^ pair_interior(p, s) == pair_closure(p, top.full ^ s)
                assert pair_closure(p, s) == pair_closure_by_points(p, s)
