import dataclasses
import random
import struct

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
from topolab.pairs import (
    _kernel_report, _selector_at, enlarger_is_regular, envelopes, image_groups, int_lanes,
    int_table, regular_scan,
)
from topolab.bits import LanePairs, canonical_family
from topolab.ops import group_by_image, op_lanes, op_open_plane
from topolab.space import indiscrete

from oracles import catalog_pairs, custom_pairs, exhaustive_spaces, naive_pair_interior, route_check, seeded_spaces


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


def test_pair_families_examples(s2):
    ops = catalog(s2)
    assert pair_open_family(OpPair(ops["int"], ops["cl"])) == (0, 3)
    assert pair_open_family(OpPair(ops["int"], ops["identity"])) == s2.opens
    assert pair_open_family(OpPair(ops["int"], ops["introcl"])) == (0, 3)
    assert pair_closed_family(OpPair(ops["int"], ops["cl"])) == (0, 3)


def test_classify_structure_examples(s2):
    ops = catalog(s2)
    rep = classify_structure(OpPair(ops["int"], ops["cl"]))
    assert rep == type(rep)(True, True, True, True, True)
    rep = classify_structure(OpPair(ops["int"], ops["identity"]))
    assert rep.is_supratopology and rep.is_topology
    for top in small_spaces():
        p = OpPair(catalog(top)["cloint"], catalog(top)["scl"])
        assert classify_structure(p).is_supratopology


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


KINDS = ("pair", "pair_open", "base", "ultra", "closed", "restricted")


def kernel_rows(p) -> dict:
    """Every row a pair reads off its kernel."""
    return {
        "int": tuple(int_table(p)),
        "open": pair_open_family(p),
        "groups": tuple(image_groups(p)),
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
            assert tuple(int_table(fresh)) == tuple(through_pair["int"]) == tuple(
                naive_pair_interior(p, a) for a in top.subsets()
            ), p


def test_compact_rows_are_read_only_and_match_the_tuple_route():
    # from 9 points on, a space's and each kernel's interior table is a
    # read-only memoryview of its 2-byte lanes, and the image groups and
    # residue rows are LanePairs of two such views; assignment to any
    # raises, and each equals, entry for entry, its tuple route: the
    # lanes unpacked by struct, the groups' items, and the (residue, pair
    # closure) pairs off that table
    for top in seeded_spaces(233, (9, 10, 11, 12)):
        full, count = top.full, 1 << top.n

        def unpacked(lanes: tuple[int, int]) -> tuple[int, ...]:
            assert lanes[1] == 16
            return struct.unpack(f"<{count}H", lanes[0].to_bytes(2 * count, "little"))

        rows = [(top.int_table(), unpacked(top.int_lanes()))]
        for p in {p.kernel: p for p in all_pairs(top)}.values():
            inner = unpacked(int_lanes(p))
            groups = tuple(group_by_image(p.enlarger.table, p.kernel.family).items())
            residues = canonical_family(full ^ t for t, _ in groups)
            rows += [(int_table(p), inner), (image_groups(p), groups),
                     (_residue_row(p), tuple((r, full ^ inner[full ^ r]) for r in residues if r))]
        for row, expect in rows:
            assert tuple(row) == expect, (top, expect[:4])
            views = (row.first, row.second) if type(row) is LanePairs else (row,)
            assert all(type(v) is memoryview and v.readonly for v in views), type(row)
            for view in views:
                with pytest.raises(TypeError):
                    view[0] = 0
            if type(row) is LanePairs:
                for name in ("first", "second"):
                    with pytest.raises(AttributeError):
                        setattr(row, name, views[0])
        assert sum(type(row) is LanePairs and len(expect) > 1 for row, expect in rows) > 1, top


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


def test_a_kernel_is_keyed_by_its_contents():
    # a pair's kernel key is the selector-open plane and the enlarger's
    # lanes, and two pairs of a space share a kernel exactly when their
    # keys are equal, that is when they hold one selector-open family and
    # one enlarger table: every catalog pair of the spaces of at most 3
    # points, and of a seeded 10-point space, whose lanes are 2 bytes wide
    spaces = small_spaces() + list(seeded_spaces(241, (10,)))
    assert op_lanes(catalog(spaces[-1])["int"])[1] == 16
    for top in spaces:
        pairs = all_pairs(top)
        for p in pairs:
            assert p.kernel.key == (op_open_plane(p.selector), op_lanes(p.enlarger)[0]), (top, p)
        for p in pairs:
            for q in pairs:
                same = op_open_family(p.selector) == op_open_family(q.selector) and p.enlarger == q.enlarger
                assert (p.kernel is q.kernel) == (p.kernel.key == q.kernel.key) == same, (top, p, q)


# Checks that became rows of oracles.ROUTES, kept under their names.
def test_report_flags_are_exactly_bools():
    # plane arithmetic yields ints (``plane >> x & 1``), which the CLI
    # would print as 1 or 0: every field of both reports must be a bool,
    # on every catalog pair of every space of at most 3 points, seeded
    # 8- and 11-point spaces and seeded custom pairs
    tops = exhaustive_spaces(3) + seeded_spaces(59, (8, 8, 11, 11))
    pairs = [p for top in tops for p in catalog_pairs(top)] + custom_pairs(61, 40)
    seen = set()
    for p in pairs:
        for rep in (classify_structure(p), base_report(p)):
            for field in dataclasses.fields(rep):
                value = getattr(rep, field.name)
                assert type(value) is bool, (p, field.name, value)
                seen.add((field.name, value))
    # every flag takes both values but the two that always hold: a
    # pair-open family is a supratopology, and closed_iff_cl_subset holds
    # by construction
    assert len(seen) == 2 * 11 - 2


test_pair_families_complement_each_other = route_check("pair_closed_family")
test_pair_interior_matches_pointwise_rule = route_check("interior_pointwise")
test_structure_flag_implications = route_check("structure")
test_pair_duality_on_random_spaces = route_check("closure_table")
test_base_report_matches_the_scans = route_check("base_report")
test_envelopes_match_the_per_point_scan = route_check("envelopes")
test_pair_open_family_is_the_zero_lanes = route_check("pair_open_family")
test_pair_open_plane_matches_the_subset_walk = route_check("pair_open_plane")
test_pointwise_closure_planes_match_the_group_loop = route_check("closure_by_points")
test_one_pass_closure_matches_per_point_rule = route_check("closure_pointwise")
test_kernel_regularity_scan_matches_the_literal_quantifiers = route_check("regularity")
test_named_families_on_lanes_match_their_rules_subset_by_subset = route_check("named_families")
test_kernel_rows_match_the_member_walks = route_check("interior_walk", "enlargement_base", "kernel_flags")
