import random

import pytest

from topolab import (
    BUILTIN_NAMES,
    NAMED_FAMILIES,
    Operation,
    OpPair,
    Topology,
    base_report,
    catalog,
    classify_structure,
    enlargement_base,
    enumerate_topologies,
    is_monotone,
    leq,
    named_family,
    op_open_family,
    pair_closed_family,
    pair_closure,
    pair_interior,
    pair_open_family,
    random_topology,
)
from topolab.compact import (
    _additive_scan, _closed_meets, _failing_plane, _residue_row, _row,
    additive_hypothesis, failing_plane,
)
from topolab.filters import _envelope_planes, _point_limits, neighbourhood_images, principal_rows
from topolab.ops import is_regular_wrt
from topolab.pairs import (
    _kernel_report, _selector_at, enlarger_is_regular, envelopes, image_groups, int_lanes,
    int_table, pair_closure_by_points, regular_scan,
)
from topolab.space import EXHAUSTIVE_POINTS, indiscrete

from oracles import (
    catalog_kernels,
    literal_is_regular_wrt,
    literal_named_family,
    literal_pair_closure_by_points,
    literal_structure,
    member_walk_base,
    member_walk_image_stable,
    member_walk_interior,
    member_walk_nested,
    naive_interior,
    naive_pair_interior,
    pairwise_intersection_closed,
    pairwise_union_closed,
    pointwise_pair_closure,
    scan_above_identity,
    scan_base_flags,
    scan_envelope,
    scan_image_stable,
    scan_within,
)


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
            by_points = pair_closure_by_points(p, top.subsets())
            for a in top.subsets():
                assert pair_interior(p, a) == naive_pair_interior(p, a)
                assert pair_closure(p, a) == by_points[a]
                assert top.full ^ pair_interior(p, a) == pair_closure(p, top.full ^ a)


def test_one_pass_closure_matches_per_point_rule():
    for top in small_spaces():
        for p in all_pairs(top):
            expect = [pointwise_pair_closure(p, a) for a in top.subsets()]
            assert pair_closure_by_points(p, top.subsets()) == expect
    rng = random.Random(41)
    for n in range(5, 9):
        for _ in range(2):
            top = random_topology(n, rng.randrange(10**6), n)
            picks = [0, top.full] + [rng.randrange(1 << n) for _ in range(14)]
            for p in all_pairs(top):
                expect = [pointwise_pair_closure(p, a) for a in picks]
                assert pair_closure_by_points(p, picks) == expect


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


def custom_pairs(seed: int, count: int) -> list:
    """Seeded pairs on 1-5 points whose members are custom tables
    int(a) | random bits (most of them not monotone) or catalog
    operations, as the CLI's ``custom:`` operations allow."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randrange(1, 6)
        top = random_topology(n, rng.randrange(10**6), n)
        inner = top.int_table()
        ops = catalog(top)

        def member():
            if rng.random() < 0.25:
                return ops[rng.choice(BUILTIN_NAMES)]
            bits = [rng.getrandbits(n) & rng.getrandbits(n) if a else 0 for a in top.subsets()]
            return Operation(top, [i | b for i, b in zip(inner, bits)])

        out.append(OpPair(member(), member()))
    return out


def test_structure_flag_implications():
    # the closed forms of classify_structure against the five flags read
    # off their wording: every space of at most 3 points, 40 seeded
    # 4-point spaces, seeded 5-7-point spaces (all 49 catalog pairs each)
    # and seeded custom pairs
    rng = random.Random(97)
    seeded = [random_topology(4, rng.randrange(10**6), 4) for _ in range(40)]
    seeded += [random_topology(n, rng.randrange(10**6), n) for n in (5, 6, 7)]
    custom = custom_pairs(17, 60)
    assert {is_monotone(op) for p in custom for op in (p.selector, p.enlarger)} == {True, False}
    pairs = [p for top in small_spaces() + seeded for p in all_pairs(top)] + custom
    seen = set()
    for p in pairs:
        rep = classify_structure(p)
        assert rep.is_supratopology
        flags = (rep.is_supratopology, rep.is_topology, rep.closed_iff_cl_subset,
                 rep.closed_iff_cl_equal, rep.is_kuratowski)
        assert flags == literal_structure(p), p
        fam = pair_open_family(p)
        assert rep.is_supratopology == pairwise_union_closed(fam)
        assert rep.is_topology == (pairwise_union_closed(fam) and pairwise_intersection_closed(fam))
        if rep.is_kuratowski:
            assert rep.is_topology
        if rep.is_topology:
            assert rep.is_supratopology
        seen |= {("equal", rep.closed_iff_cl_equal), ("kuratowski", rep.is_kuratowski)}
    assert seen == {(flag, value) for flag in ("equal", "kuratowski") for value in (True, False)}


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
    rng = random.Random(23)
    for trial in range(8):
        top = random_topology(5, rng.randrange(10**6), 4)
        ops = catalog(top)
        for a, b in (("int", "cl"), ("cloint", "scl"), ("scl", "introcl")):
            p = OpPair(ops[a], ops[b])
            by_points = pair_closure_by_points(p, top.subsets())
            for s in top.subsets():
                assert top.full ^ pair_interior(p, s) == pair_closure(p, top.full ^ s)
                assert pair_closure(p, s) == by_points[s]


def test_base_report_matches_the_scans():
    # image stability over the base against the scan over every
    # selector-open set, and "above the identity" as a count of the
    # enlarger-open sets against the scan over all subsets: every space of
    # at most 3 points and seeded 4-9-point spaces (all 49 pairs), and
    # seeded custom pairs.  The table lookups and planes of the other four
    # flags are checked against sets built by scans and the pairwise union
    # closure up to 6 points (the pointwise interior scan is cubic)
    rng = random.Random(101)
    spaces = small_spaces() + [random_topology(n, rng.randrange(10**6), n) for n in range(4, 10)]
    pairs = [p for top in spaces for p in all_pairs(top)] + custom_pairs(29, 60)
    seen, seen_flags = set(), set()
    for p in pairs:
        top = p.topology
        rep = base_report(p)
        above = scan_above_identity(p)
        assert (len(op_open_family(p.enlarger)) == 1 << top.n) == above, (top, p)
        assert rep.image_stable == scan_image_stable(p), (top, p)
        assert rep.order_dominates == (above or leq(p.selector, p.enlarger)), (top, p)
        seen.add((rep.image_stable, above))
        if top.n <= 6:
            flags = (rep.family_nested, rep.base_pair_open, rep.base_in_pair_and_selector, rep.is_base)
            assert flags == scan_base_flags(p), (top, p)
            seen_flags |= set(enumerate(flags))
    assert seen == {(True, True), (True, False), (False, True), (False, False)}
    assert seen_flags == {(i, value) for i in range(4) for value in (True, False)}


def test_envelopes_match_the_per_point_scan():
    # all n envelopes from one pass over the distinct enlargements against
    # the meet over each point's selector-open sets: every space of at
    # most 3 points and seeded 4-9-point spaces (all 49 pairs), and
    # seeded custom pairs
    rng = random.Random(103)
    spaces = small_spaces() + [random_topology(n, rng.randrange(10**6), n) for n in range(4, 10)]
    pairs = [p for top in spaces for p in all_pairs(top)] + custom_pairs(31, 60)
    for p in pairs:
        for x in range(p.topology.n):
            assert p.envelope(x) == scan_envelope(p, x), (p, x)


KINDS = ("pair", "pair_open", "base", "ultra", "closed", "restricted")


def kernel_rows(p) -> dict:
    """Every row a pair reads off its kernel."""
    return {
        "int": int_table(p),
        "open": pair_open_family(p),
        "groups": image_groups(p),
        "envelopes": tuple(p.envelope(x) for x in range(p.topology.n)),
        "regular": enlarger_is_regular(p),
        "base": base_report(p),
        "additive": (additive_hypothesis(p), _additive_scan(p)),
        "planes": tuple(failing_plane(p, k) for k in KINDS),
    }


def unshared_pair(top, a, b) -> OpPair:
    """The pair (a, b) over a fresh copy of ``top``, sharing no kernel or
    memo with any other pair."""
    ops = catalog(Topology(top.ground, top.opens))
    return OpPair(ops[a], ops[b])


def assert_kernel_rows_unshared(top):
    pairs = {p.name: p for p in all_pairs(top)}
    assert pairs["identity,cl"].kernel is pairs["cl,cl"].kernel
    for name, p in pairs.items():
        assert kernel_rows(p) == kernel_rows(unshared_pair(top, *name.split(","))), (top, name)


def test_kernel_rows_match_unshared_pairs():
    # the 49 catalog pairs of a space share kernels (identity,cl and cl,cl
    # always do): each reads the rows a pair sharing nothing builds, over
    # every space of at most 3 points and seeded 4-10-point spaces
    rng = random.Random(211)
    spaces = small_spaces() + [random_topology(n, rng.randrange(10**6), n) for n in range(4, 11)]
    for top in spaces:
        assert_kernel_rows_unshared(top)


def memoized_rows(owner) -> dict:
    """Every memoized kernel row, read through ``owner``: a pair or its
    kernel."""
    rows = {
        "int": int_table(owner), "open": pair_open_family(owner), "groups": image_groups(owner),
        "envelopes": envelopes(owner), "regular": enlarger_is_regular(owner),
        "lanes": int_lanes(owner), "regular_scan": regular_scan(owner),
        "base": enlargement_base(owner), "report": _kernel_report(owner),
        "additive": _additive_scan(owner), "limits": _point_limits(owner),
        "principal": principal_rows(owner), "images": neighbourhood_images(owner),
        "env_planes": _envelope_planes(owner), "meets": _closed_meets(owner),
        "residues": _residue_row(owner),
    }
    for x in range(owner.topology.n):
        rows["at", x] = _selector_at(owner, x)
    for kind in KINDS:
        rows["row", kind] = _row(owner, kind)
        rows["plane", kind] = failing_plane(owner, kind)
    return rows


def test_rows_read_through_a_pair_are_its_kernels():
    # a pair shares its kernel's memo, so each row read through it is the
    # kernel's object; a row with no arguments is keyed by its builder and
    # the others by a tuple, so the two never collide; and the space's
    # n and full are fixed slots
    for top in small_spaces():
        assert (top.n, top.full) == (top.ground.size, top.ground.full)
        for name in ("n", "full"):
            with pytest.raises(AttributeError):
                setattr(top, name, 0)
        for p in all_pairs(top):
            assert p._memo is p.kernel._memo
            through_pair = memoized_rows(p)
            through_kernel = memoized_rows(p.kernel)
            for key, row in through_pair.items():
                assert through_kernel[key] is row, (p, key)
            assert p._memo[int_table.__wrapped__] is through_pair["int"]
            fresh = unshared_pair(top, p.selector.name, p.enlarger.name)
            planes = {kind: failing_plane(fresh, kind) for kind in KINDS}  # arguments first
            for kind in KINDS:
                assert p._memo[_failing_plane.__wrapped__, kind] is through_pair["plane", kind]
                assert through_pair["plane", kind] == planes[kind], (p, kind)
            assert int_table(fresh) == through_pair["int"] == tuple(
                naive_pair_interior(p, a) for a in top.subsets()
            ), p


def test_selector_readings_stay_off_the_kernel():
    # custom non-monotone selectors with a catalog selector's open family
    # share that catalog pair's kernel, built before or after it: the two
    # readings of the selector's table stay the pair's own
    def custom(top, name):
        if name == "identity":  # expansive, so P(X) is its open family
            return Operation(top, [top.full if a == 1 else a for a in top.subsets()], "custom")
        # {0} mapped to {1}: not open, so the family stays the opens
        return Operation(top, [0b010 if a == 1 else i for a, i in enumerate(top.int_table())], "custom")

    def readings(p):
        rep = base_report(p)
        return additive_hypothesis(p), rep.order_dominates, rep.hypothesis_c, rep.hypothesis_d

    for sel, enl in (("identity", "cl"), ("int", "int")):
        expected = {}
        for first in ("custom", "catalog"):
            top = indiscrete(3)
            ops = catalog(top)
            made = {"custom": custom(top, sel), "catalog": ops[sel]}
            assert not is_monotone(made["custom"])
            assert op_open_family(made["custom"]) == op_open_family(ops[sel])
            order = (first, "catalog" if first == "custom" else "custom")
            pairs = {name: OpPair(made[name], ops[enl]) for name in order}
            assert pairs["custom"].kernel is pairs["catalog"].kernel
            got = {name: readings(pairs[name]) for name in order}
            fresh = Topology(top.ground, top.opens)
            expected = {
                "custom": readings(OpPair(custom(fresh, sel), catalog(fresh)[enl])),
                "catalog": readings(unshared_pair(top, sel, enl)),
            }
            assert got == expected, (sel, enl, first)
        assert expected["custom"] != expected["catalog"], (sel, enl)


def lane_kernels(seed: int):
    """(space, pairs, one pair per kernel) for every space of at most 4
    points, n = 0 included, then one seeded space of each size from 5 to
    16 points."""
    rng = random.Random(seed)
    spaces = [top for n in range(5) for top in enumerate_topologies(n)]
    spaces += [random_topology(n, rng.randrange(10**6), n) for n in range(5, 17)]
    for top in spaces:
        pairs = all_pairs(top)
        yield top, pairs, list({id(p.kernel): p for p in pairs}.values())


def test_pair_open_family_is_the_zero_lanes():
    # the zero lanes of identity & ~int_lanes against the entry scan of
    # the pointwise pair interior up to 4 points, of the unpacked table
    # above; the fixed points behind closed_iff_cl_equal likewise
    for top, pairs, kernels in lane_kernels(103):
        for p in kernels:
            table = int_table(p)
            if top.n <= 4:
                assert table == tuple(naive_pair_interior(p, a) for a in top.subsets())
            assert pair_open_family(p) == scan_within(table), p
            fixed = [a for a in pair_open_family(p) if table[a] == a]
            assert classify_structure(p).closed_iff_cl_equal == (len(fixed) == len(pair_open_family(p)))


def test_pointwise_closure_planes_match_the_group_loop():
    # every subset up to 8 points, the ends and seeded subsets above
    rng = random.Random(107)
    for top, pairs, kernels in lane_kernels(107):
        sets = list(top.subsets()) if top.n <= 8 else [0, top.full] + [
            rng.randrange(1 << top.n) for _ in range(14)
        ]
        for p in pairs:
            got = pair_closure_by_points(p, sets)
            assert got == literal_pair_closure_by_points(p, sets), p
            if top.n <= 2:
                assert got == [pointwise_pair_closure(p, a) for a in sets], p


def test_kernel_regularity_scan_matches_the_literal_quantifiers():
    # the kernel's scan and the fast-path verdict against the literal
    # cubic quantifiers up to 3 points and on seeded 4-6-point spaces,
    # and against the from-scratch regrouping everywhere; besides the
    # catalog, seeded lawful enlargers (the interior with seeded extra
    # points) up to 6 points, whose meets are often an image away from
    # the point
    rng = random.Random(109)
    for top, pairs, kernels in lane_kernels(109):
        if top.n <= 6:
            for sel in catalog(top).values():
                for _ in range(2):
                    table = [i | rng.randrange(1 << top.n) for i in top.int_table()]
                    table[0] = 0
                    kernels.append(OpPair(sel, Operation(top, table)))
        for p in kernels:
            k = p.kernel
            scan = regular_scan(p)
            assert scan is regular_scan(k) is k._memo[regular_scan.__wrapped__]
            assert scan == is_regular_wrt(k.enlarger, k.family), p
            if top.n <= 3 or (top.n <= 6 and len(k.family) <= 40):
                assert scan == literal_is_regular_wrt(k.enlarger, k.family), p
                assert enlarger_is_regular(p) == scan, p


def test_named_families_on_lanes_match_their_rules_subset_by_subset():
    # every named family of every space of at most 4 points, n = 0
    # included, and of seeded 5-9-point spaces, against its defining rule
    # read one subset at a time over the naive interior
    rng = random.Random(127)
    spaces = [top for n in range(5) for top in enumerate_topologies(n)]
    spaces += [random_topology(n, rng.randrange(10**6), n) for n in range(5, 10)]
    for top in spaces:
        inner = [naive_interior(top, a) for a in top.subsets()]
        for name in NAMED_FAMILIES:
            assert named_family(top, name) == literal_named_family(top, name, inner), (top, name)


def assert_rows_match_the_member_walks(k, subsets) -> tuple[bool, bool]:
    """The kernel rows read off the image groups and planes against the
    walks over its selector-open family; returns the two flags."""
    inner = int_table(k)
    for a in subsets:
        assert inner[a] == member_walk_interior(k, a), (k.topology, k.enlarger, a)
    assert enlargement_base(k) == member_walk_base(k), (k.topology, k.enlarger)
    rep = _kernel_report(k)
    flags = (member_walk_nested(k), member_walk_image_stable(k))
    assert (rep.family_nested, rep.image_stable) == flags, (k.topology, k.enlarger)
    return flags


def test_kernel_rows_match_the_member_walks():
    # the pair interior, the enlargement base, family_nested and
    # image_stable against walks over the selector-open family: every
    # kernel of every space of at most 4 points and of seeded custom
    # pairs, on every subset; then every kernel of seeded 8-, 12- and
    # 16-point spaces, on the ends and 16 seeded subsets
    seen = set()
    kernels = [k for n in range(EXHAUSTIVE_POINTS + 1) for top in enumerate_topologies(n)
               for k in catalog_kernels(top)]
    kernels += [p.kernel for p in custom_pairs(37, 80)]
    for k in kernels:
        seen.add(assert_rows_match_the_member_walks(k, k.topology.subsets()))
    assert seen == {(a, b) for a in (True, False) for b in (True, False)}
    rng = random.Random(307)
    for n in (8, 12, 16):
        top = random_topology(n, rng.randrange(10**6), n)
        subsets = [0, top.full] + [rng.getrandbits(n) for _ in range(16)]
        for k in catalog_kernels(top):
            assert_rows_match_the_member_walks(k, subsets)
