import itertools
import random

import pytest

from topolab import (
    BUILTIN_NAMES,
    NAMED_CLASSES,
    CoverSystem,
    OpPair,
    additive_enlarger_flags,
    brute_force_compact,
    catalog,
    closed_space_predicates,
    compactness_kind,
    cover_kind_flags,
    enumerate_topologies,
    filter_compactness_flags,
    is_compact,
    is_cover,
    named_set_class,
    random_topology,
    space_compactness_flags,
)
from topolab.compact import _capped_members, _default_w_families, antichain_families, sampled_families
from topolab.bits import canonical_family
from topolab.ops import dual_table, op_closed_family
from topolab.pairs import pair_closed_family, pair_closure, pair_closure_by_points

from oracles import (
    all_families_of_nonempty,
    base_gap_has_disjoint_member,
    inner_bases_accumulate,
    literal_fip_and_gap,
    meeting_bases_accumulate,
    subfamily_bases_accumulate,
    subfamily_fip_and_gap,
)


def small_spaces():
    return [t for n in (1, 2, 3) for t in enumerate_topologies(n)]


def oracle_spaces():
    """Every space of at most 3 points with all its subsets, then seeded
    4-6-point spaces with seeded subsets."""
    out = [(top, list(top.subsets())) for top in small_spaces()]
    rng = random.Random(23)
    for n in (4, 5, 6):
        top = random_topology(n, rng.randrange(10**6), n)
        picked = {0, top.full, *(rng.randrange(1 << n) for _ in range(4))}
        out.append((top, sorted(picked)))
    return out


def pair(top, a, b):
    ops = catalog(top)
    return OpPair(ops[a], ops[b])


def test_is_cover(s2, c3):
    assert is_cover((s2.full,), 0b01)
    assert not is_cover((0b01,), 0b11)
    assert is_cover((0, 0b001, 0b011, 0b101), c3.full)
    assert is_cover((), 0)


def test_is_compact_examples(s2):
    ops = catalog(s2)
    sint_all = CoverSystem(tuple(s2.subsets()), ops["sint"])
    verdict = is_compact(sint_all, 0b10)
    assert not verdict.compact
    assert verdict.witness_point == 1
    assert verdict.witness_cover == (0b10,)
    assert is_compact(sint_all, 0).compact
    for top in small_spaces():
        cs = CoverSystem(top.opens, catalog(top)["cl"])
        for a in top.subsets():
            assert is_compact(cs, a).compact


def test_cover_system_requires_full(s2):
    with pytest.raises(ValueError):
        CoverSystem((0, 1), catalog(s2)["cl"])


def test_witnesses_are_valid(s2):
    ops = catalog(s2)
    for enl in BUILTIN_NAMES:
        cs = CoverSystem(tuple(s2.subsets()), ops[enl])
        for a in s2.subsets():
            v = is_compact(cs, a)
            if not v.compact:
                union = 0
                for u in v.witness_cover:
                    union |= u
                assert a & ~union == 0
                assert a >> v.witness_point & 1
                assert all(not ops[enl].table[u] >> v.witness_point & 1 for u in v.witness_cover)


def test_brute_force_agrees_everywhere_small():
    for top in small_spaces():
        if top.n > 2:
            continue
        others = [m for m in top.subsets() if m != top.full]
        ops = catalog(top)
        for sel in range(1 << len(others)):
            fam = tuple(sorted([others[i] for i in range(len(others)) if sel >> i & 1] + [top.full]))
            for enl in BUILTIN_NAMES:
                cs = CoverSystem(fam, ops[enl])
                for a in top.subsets():
                    assert is_compact(cs, a).compact == brute_force_compact(cs, a)


def test_brute_force_cap(s2):
    cs = CoverSystem(tuple(s2.subsets()), catalog(s2)["cl"])
    big = CoverSystem.__new__(CoverSystem)
    object.__setattr__(big, "ambient", tuple(range(21)))
    object.__setattr__(big, "enlarger", catalog(s2)["cl"])
    with pytest.raises(ValueError, match="cap"):
        brute_force_compact(big, 0)
    assert brute_force_compact(cs, s2.full)


def test_compactness_kind_examples(s2):
    theta = pair(s2, "int", "cl")
    for a in s2.subsets():
        assert compactness_kind(theta, a, "pair") == named_set_class(s2, a, "H")
    with pytest.raises(ValueError):
        compactness_kind(theta, 0, "nope")


def test_named_set_class_examples(s2):
    for top in small_spaces():
        assert all(named_set_class(top, 0, k) for k in NAMED_CLASSES)
    with pytest.raises(ValueError):
        named_set_class(s2, 0, "Z")
    # enlargements dominate each named class's covers on finite carriers
    for top in small_spaces():
        for a in top.subsets():
            for k in NAMED_CLASSES:
                assert named_set_class(top, a, k)


def test_implication_chain():
    for top in small_spaces():
        for a in top.subsets():
            n_cls = named_set_class(top, a, "N")
            h_cls = named_set_class(top, a, "H")
            s_cls = named_set_class(top, a, "s")
            big_s = named_set_class(top, a, "S")
            assert not n_cls or h_cls
            assert not s_cls or big_s
            assert not big_s or h_cls


def test_filter_flags_agree_on_fixtures(s2, c3, d2, i2):
    for top in (s2, c3, d2, i2):
        for a, b in itertools.product(BUILTIN_NAMES, repeat=2):
            p = pair(top, a, b)
            for s in top.subsets():
                flags = filter_compactness_flags(p, s)
                assert flags.agree(), (top, a, b, s, flags.as_dict())
                assert flags.family_quantifier_complete and flags.closed_quantifier_complete


def test_filter_flags_empty_set_trivially_true(s2):
    flags = filter_compactness_flags(pair(s2, "identity", "sint"), 0)
    assert flags.agree() and flags.cover


def test_non_compact_flags_all_false(s2):
    p = pair(s2, "identity", "sint")
    flags = filter_compactness_flags(p, 0b10)
    assert not flags.cover
    assert flags.agree()


def test_antichain_reduction_matches_full_quantification():
    # two-point carriers are small enough to quantify over every family of
    # nonempty sets; the antichain restriction must not change the flags
    for top in enumerate_topologies(2):
        every = list(all_families_of_nonempty(2))
        anti = antichain_families(2)
        for a, b in itertools.product(BUILTIN_NAMES, repeat=2):
            p = pair(top, a, b)
            cl = [pair_closure(p, m) for m in top.subsets()]
            for s in top.subsets():
                fip_all, gap_all = literal_fip_and_gap(cl, every, s, top.full)
                fip_anti, gap_anti = literal_fip_and_gap(cl, anti, s, top.full)
                assert (fip_all, gap_all) == (fip_anti, gap_anti)


def test_flags_against_literal_family_quantification():
    # the closed forms of the three base statements and of both family
    # pairs must match literal scans straight from their wording: over
    # the default universes, and over every family of nonempty sets on
    # two points
    every = list(all_families_of_nonempty(2))
    for top, subsets in oracle_spaces():
        full = top.full
        universe = _default_w_families(top.n)
        for a, b in itertools.product(BUILTIN_NAMES, repeat=2):
            p = pair(top, a, b)
            cl = [pair_closure_by_points(p, m) for m in top.subsets()]
            closed = _capped_members(p, op_closed_family(p.selector), "closed")
            dual = dual_table(p.enlarger)
            duals = [dual[f] for f in closed]
            for s in subsets:
                flags = filter_compactness_flags(p, s)
                assert flags.inner_bases_accumulate == inner_bases_accumulate(cl, s)
                assert flags.meeting_bases_accumulate == meeting_bases_accumulate(cl, s, top.n)
                assert flags.base_gap_has_disjoint_member == base_gap_has_disjoint_member(cl, s, top.n)
                assert (flags.fip_implies_closure_point, flags.closure_gap_has_finite_witness) == \
                    literal_fip_and_gap(cl, universe, s, full)
                assert (flags.closed_fip_implies_point, flags.closed_gap_has_finite_witness) == \
                    subfamily_fip_and_gap(closed, s, full, duals)
                if top.n == 2:
                    flags = filter_compactness_flags(p, s, w_families=every)
                    assert (flags.fip_implies_closure_point, flags.closure_gap_has_finite_witness) == \
                        literal_fip_and_gap(cl, every, s, full)


def test_antichain_families_cap():
    # nonempty subsets of two points: {a}, {b}, {a,b}; the antichains are
    # the empty family, three singletons and {{a},{b}}
    assert len(antichain_families(2)) == 5
    with pytest.raises(ValueError):
        antichain_families(5)
    fams = sampled_families(4, seed=1, count=8)
    assert fams == sampled_families(4, seed=1, count=8)
    assert all(all(m for m in fam) for fam in fams)


def test_cover_kind_hypothesis_examples(s2):
    for top in small_spaces():
        flags = cover_kind_flags(pair(top, "int", "introcl"), top.full)
        assert flags.hypothesis and flags.agree()
        flags = cover_kind_flags(pair(top, "cloint", "scl"), top.full)
        assert flags.hypothesis and flags.agree()


def test_complement_statements_hold_literally():
    # cover_kind_flags reports the four complement statements as True
    # without a scan, and additive_enlarger_flags reads restricted
    # accumulation off the least members of the bases; the literal
    # subfamily scans must agree
    for top, subsets in oracle_spaces():
        full = top.full
        for a, b in itertools.product(BUILTIN_NAMES, repeat=2):
            p = pair(top, a, b)
            enl = p.enlarger.table
            cl = [pair_closure_by_points(p, m) for m in top.subsets()]
            residues = canonical_family(full ^ enl[u] for u in p.selector_open())
            residues = _capped_members(p, residues, "residues")
            closed = _capped_members(p, pair_closed_family(p), "closed")
            for s in subsets:
                assert subfamily_fip_and_gap(residues, s, full) == (True, True)
                assert subfamily_fip_and_gap(closed, s, full) == (True, True)
                assert additive_enlarger_flags(p, s).restricted_bases_accumulate == \
                    subfamily_bases_accumulate(residues, cl, s)


def test_space_flags_examples(s2):
    flags = space_compactness_flags(pair(s2, "int", "introcl"))
    assert flags.hypothesis and flags.agree()
    for top in small_spaces():
        flags = space_compactness_flags(pair(top, "cloint", "cl"))
        if flags.hypothesis:
            assert flags.agree()


def test_additive_hypothesis_examples(s2):
    for top in small_spaces():
        assert additive_enlarger_flags(pair(top, "cloint", "cl"), top.full).hypothesis
        assert additive_enlarger_flags(pair(top, "int", "cl"), top.full).hypothesis
    # the interior of the closure is not union-additive in general
    broken = [
        top for top in small_spaces()
        if not additive_enlarger_flags(pair(top, "identity", "introcl"), 0).hypothesis
    ]
    assert broken


def test_additive_flags_agree_under_hypothesis():
    for top in small_spaces():
        for a, b in itertools.product(BUILTIN_NAMES, repeat=2):
            flags = additive_enlarger_flags(pair(top, a, b), top.full)
            if flags.hypothesis:
                assert flags.agree()


def test_empty_ground_set_is_compact():
    empty = next(enumerate_topologies(0))
    ops = catalog(empty)
    p = OpPair(ops["int"], ops["cl"])
    assert compactness_kind(p, 0, "pair")
    assert filter_compactness_flags(p, 0).agree()
    assert all(named_set_class(empty, 0, k) for k in NAMED_CLASSES)


def test_oracle_agreement_on_random_spaces():
    import random as _random

    from topolab import random_topology

    # the full power set as ambient family is the richest source of
    # non-compact instances; one enlarger per seeded space keeps it quick
    rng = _random.Random(17)
    enlargers = ("sint", "introcl", "identity", "int", "cloint")
    for trial in range(5):
        top = random_topology(4, rng.randrange(10**6), 3)
        ops = catalog(top)
        cs = CoverSystem(tuple(top.subsets()), ops[enlargers[trial]])
        for a in top.subsets():
            assert is_compact(cs, a).compact == brute_force_compact(cs, a)


def test_closed_space_predicates(s2, d2, i2):
    theta = pair(d2, "int", "cl")
    rep = closed_space_predicates(d2, theta)
    assert rep.hausdorff and rep.s_closed and rep.h_closed and rep.pair_compact_space
    rep = closed_space_predicates(s2, pair(s2, "int", "cl"))
    assert not rep.hausdorff and not rep.s_closed and not rep.h_closed
    rep = closed_space_predicates(i2, pair(i2, "int", "cl"))
    assert not rep.hausdorff
