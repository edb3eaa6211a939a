import itertools
import random

import pytest

from topolab import (
    BUILTIN_NAMES,
    NAMED_CLASSES,
    CoverSystem,
    OpPair,
    additive_hypothesis,
    brute_force_compact,
    brute_force_compact_images,
    catalog,
    closed_space_predicates,
    compactness_kind,
    enumerate_topologies,
    failing_plane,
    is_compact,
    is_cover,
    named_set_class,
    random_topology,
    space_compactness_flags,
)
from topolab.bits import canonical_family
from topolab.ops import dual_table, op_closed_family, op_open_family
from topolab.pairs import base_report, enlargement_base, pair_closure_by_points, pair_open_family

from oracles import (
    antichain_families,
    brute_force_compact_all,
    closed_refuter,
    literal_fip_and_gap,
    per_subset_compact,
    route_check,
    sampled_families,
)

KINDS = ("pair", "pair_open", "base")
#: the filter faces of compactness: the cover kind and its two other routes
FACES = ("pair", "ultra", "closed")


def small_spaces():
    return [t for n in (1, 2, 3) for t in enumerate_topologies(n)]


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


def test_brute_force_cap(s2):
    cs = CoverSystem(tuple(s2.subsets()), catalog(s2)["cl"])
    big = CoverSystem.__new__(CoverSystem)
    object.__setattr__(big, "ambient", tuple(range(21)))
    object.__setattr__(big, "enlarger", catalog(s2)["cl"])
    with pytest.raises(ValueError, match="cap"):
        brute_force_compact(big, 0)
    with pytest.raises(ValueError, match="cap"):
        brute_force_compact_all(big, ())
    assert brute_force_compact(cs, s2.full)


def families_with_full(top):
    """Every family of subsets holding the whole space."""
    others = [m for m in top.subsets() if m != top.full]
    for sel in range(1 << len(others)):
        yield tuple(sorted([others[i] for i in range(len(others)) if sel >> i & 1] + [top.full]))


def derived_ambients(top):
    """The operation-open, pair-open and enlargement-base families: the
    ambient families the oracle suite sweeps above two points."""
    ops = catalog(top)
    out = {op_open_family(op) for op in ops.values()}
    for a, b in itertools.product(BUILTIN_NAMES, repeat=2):
        p = OpPair(ops[a], ops[b])
        out.add(pair_open_family(p))
        out.add(canonical_family(enlargement_base(p) + (top.full,)))
    return sorted(out)


def test_batched_oracle_matches_per_subset_scan():
    # every ambient family up to 2 points and the suite's derived ambient
    # families up to 3, with every enlarger and every subset; then seeded
    # 4-6-point spaces with their derived families, seeded draws from the
    # power set and seeded subsets; then a few targets on the big families
    # the sweep walks whole at 4 points (the power set, and derived
    # families of 12 and 15 members), and on a 17-member draw at 5 points
    cases = []
    for top in [t for n in (0, 1, 2, 3) for t in enumerate_topologies(n)]:
        ambients = list(families_with_full(top)) if top.n <= 2 else derived_ambients(top)
        cases.append((top, ambients, list(top.subsets()), BUILTIN_NAMES))
    rng = random.Random(53)
    for n in (4, 5, 6):
        top = random_topology(n, rng.randrange(10**6), n)
        ambients = [fam for fam in derived_ambients(top) if len(fam) <= 10]
        for _ in range(3):
            drawn = rng.sample(range(top.full), rng.randrange(2, 10))
            ambients.append(canonical_family(drawn + [top.full]))
        targets = list(top.subsets()) if n == 4 else sorted(
            {0, top.full, *(rng.randrange(1 << n) for _ in range(10))})
        cases.append((top, ambients, targets, BUILTIN_NAMES))
    for seed in (0, 6):
        top = random_topology(4, seed, 4)
        derived = derived_ambients(top)
        ambients = [max((fam for fam in derived if len(fam) < 16), key=len)]
        if seed == 0:
            ambients.append(tuple(top.subsets()))
        cases.append((top, ambients, [top.full, *rng.sample(range(1, top.full), 2)], BUILTIN_NAMES))
    top = random_topology(5, rng.randrange(10**6), 5)
    drawn = canonical_family(rng.sample(range(top.full), 16) + [top.full])
    cases.append((top, [drawn], [top.full, *rng.sample(range(1, top.full), 2)], ("int", "cl")))
    assert sorted(len(fam) for case in cases[-3:] for fam in case[1]) == [12, 15, 16, 17]
    checked = refuted = 0
    for top, ambients, targets, enlargers in cases:
        ops = catalog(top)
        for fam in ambients:
            # every enlarger's images in one walk, and each on its own
            rows = [[ops[enl].table[u] for u in fam] for enl in enlargers]
            together = brute_force_compact_images(fam, rows, targets)
            for enl, joint in zip(enlargers, together):
                cs = CoverSystem(fam, ops[enl])
                got = brute_force_compact_all(cs, targets)
                expected = tuple(per_subset_compact(cs, s) for s in targets)
                assert got == expected == joint, (top, fam, enl)
                checked += len(targets)
                refuted += expected.count(False)
    assert refuted and refuted < checked


def test_batched_oracle_target_order(s2):
    # verdicts follow the targets as given: unsorted, repeated or none
    cs = CoverSystem(tuple(s2.subsets()), catalog(s2)["sint"])
    single = {a: per_subset_compact(cs, a) for a in s2.subsets()}
    assert single[0b10] is False and single[0b01] is True
    for targets in ((3, 0, 2, 1), (2, 2, 1, 2), (2,), ()):
        assert brute_force_compact_all(cs, targets) == tuple(single[a] for a in targets)
    assert brute_force_compact(cs, 0b10) is False


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


def verdicts(p, s, kinds=FACES):
    """Whether ``s`` passes each statement, read off its failing plane."""
    return tuple(not failing_plane(p, k) >> s & 1 for k in kinds)


def test_filter_flags_agree_on_fixtures(s2, c3, d2, i2):
    for top in (s2, c3, d2, i2):
        for a, b in itertools.product(BUILTIN_NAMES, repeat=2):
            p = pair(top, a, b)
            for s in top.subsets():
                got = verdicts(p, s)
                assert len(set(got)) == 1, (top, a, b, s, got)
                assert got == tuple(compactness_kind(p, s, k) for k in FACES)


def test_filter_flags_empty_set_trivially_true(s2):
    assert verdicts(pair(s2, "identity", "sint"), 0) == (True, True, True)


def test_non_compact_flags_all_false(s2):
    p = pair(s2, "identity", "sint")
    assert verdicts(p, 0b10) == (False, False, False)


def test_antichain_families_cap():
    # nonempty subsets of two points: {a}, {b}, {a,b}; the antichains are
    # the empty family, three singletons and {{a},{b}}
    assert len(antichain_families(2)) == 5
    with pytest.raises(ValueError):
        antichain_families(5)
    fams = sampled_families(4, seed=1, count=8)
    assert fams == sampled_families(4, seed=1, count=8)
    assert all(all(m for m in fam) for fam in fams)


def test_singleton_families_refute_closure_gap():
    # a 64-draw family sample read True here; the singleton families of
    # the complete universe refute
    top = random_topology(5, 723985, 5)
    p = pair(top, "introcl", "int")
    cl = pair_closure_by_points(p, top.subsets())
    singletons = [(1 << y,) for y in range(top.n)]
    literal = literal_fip_and_gap(cl, singletons, 26, top.full)
    assert literal == (False, False)
    assert verdicts(p, 26) == (False, False, False)


def test_full_closed_family_refutes_closed_gap():
    # a 10-member draw of the selector-closed family read True here
    top = random_topology(6, 967127, 6)
    p = pair(top, "identity", "int")
    closed = op_closed_family(p.selector)
    assert len(closed) > 10
    assert not compactness_kind(p, 3, "closed")
    assert closed_refuter(closed, dual_table(p.enlarger), 3, top.full) is not None
    assert verdicts(p, 3) == (False, False, False)


def test_every_residue_decides_restricted_accumulation():
    # a 10-member draw of the 18 residues read True here
    top = random_topology(5, 833820, 5)
    p = pair(top, "identity", "sint")
    enl = p.enlarger.table
    residues = canonical_family(top.full ^ enl[u] for u in p.kernel.family)
    assert len(residues) == 18
    rule = all(c & 22 for c in pair_closure_by_points(p, (r for r in residues if r & 22)))
    assert verdicts(p, 22, ("restricted",)) == (rule,)
    assert not rule
    assert compactness_kind(p, 22, "restricted") == compactness_kind(p, 22) == rule


def test_cover_kind_hypothesis_examples(s2):
    # the four complement statements hold for every set, so the kinds
    # agree when the set is compact in all three
    for top in small_spaces():
        for p in (pair(top, "int", "introcl"), pair(top, "cloint", "scl")):
            assert base_report(p).hypothesis_d
            assert verdicts(p, top.full, KINDS) == (True, True, True)


def test_space_flags_examples(s2):
    flags = space_compactness_flags(pair(s2, "int", "introcl"))
    assert flags.hypothesis and flags.agree()
    for top in small_spaces():
        flags = space_compactness_flags(pair(top, "cloint", "cl"))
        if flags.hypothesis:
            assert flags.agree()


def test_additive_hypothesis_examples(s2):
    for top in small_spaces():
        assert additive_hypothesis(pair(top, "cloint", "cl"))
        assert additive_hypothesis(pair(top, "int", "cl"))
    # the interior of the closure is not union-additive in general
    broken = [
        top for top in small_spaces()
        if not additive_hypothesis(pair(top, "identity", "introcl"))
    ]
    assert broken


def test_additive_flags_agree_under_hypothesis():
    # compactness matches restricted accumulation on every set
    for top in small_spaces():
        for a, b in itertools.product(BUILTIN_NAMES, repeat=2):
            p = pair(top, a, b)
            if additive_hypothesis(p):
                assert failing_plane(p, "restricted") == failing_plane(p), (top, a, b)


def test_empty_ground_set_is_compact():
    empty = next(enumerate_topologies(0))
    ops = catalog(empty)
    p = OpPair(ops["int"], ops["cl"])
    assert compactness_kind(p, 0, "pair")
    assert verdicts(p, 0) == (True, True, True)
    assert all(named_set_class(empty, 0, k) for k in NAMED_CLASSES)


def test_closed_space_predicates(s2, d2, i2):
    theta = pair(d2, "int", "cl")
    rep = closed_space_predicates(d2, theta)
    assert rep.hausdorff and rep.s_closed and rep.h_closed and rep.pair_compact_space
    rep = closed_space_predicates(s2, pair(s2, "int", "cl"))
    assert not rep.hausdorff and not rep.s_closed and not rep.h_closed
    rep = closed_space_predicates(i2, pair(i2, "int", "cl"))
    assert not rep.hausdorff


def test_unknown_kind_names_every_statement():
    for check in (failing_plane, lambda p, kind: compactness_kind(p, 1, kind)):
        with pytest.raises(ValueError, match="'pair_open', 'base', 'ultra', 'closed' or 'restricted'"):
            check(pair(small_spaces()[0], "int", "cl"), "nope")


# Checks that became rows of oracles.ROUTES, kept under their names.
test_antichain_reduction_matches_full_quantification = route_check("antichain_reduction")
test_brute_force_agrees_everywhere_small = route_check("brute_force")
test_oracle_agreement_on_random_spaces = route_check("brute_force_all")
test_failing_planes_match_the_per_set_scan = route_check("failing_planes")
test_witness_covers_match_the_trial_removals = route_check("witness_covers", "minimal_cover")
test_compactness_kind_matches_avoidance_criterion = route_check("cover_kinds")
test_flags_against_literal_family_quantification = route_check("family_statements")
test_complement_statements_hold_literally = route_check("complement_statements")
test_space_flags_match_the_per_set_scan = route_check("space_flags")
test_additive_hypothesis_matches_the_pairwise_scan = route_check("additive_hypothesis")
test_ultra_plane_matches_maximal_filters = route_check("ultra_plane")
test_avoidance_row_equals_the_filter_routes = route_check("avoidance_row")
