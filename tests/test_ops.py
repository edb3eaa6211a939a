import pickle
import random

import pytest

from topolab import (
    BUILTIN_NAMES,
    Operation,
    builtin,
    catalog,
    discrete,
    dual,
    dual_table,
    enumerate_topologies,
    is_monotone,
    is_operation,
    is_regular_wrt,
    leq,
    neighborhoods,
    op_closed_family,
    op_open_family,
    random_topology,
)
from topolab import ops as ops_module
from topolab.bits import intersection_closure, pack_lanes, union_closure
from topolab.ops import at_point, op_lanes, table_violation, tabulate
from topolab.space import Topology

from oracles import (
    lane_test_spaces,
    lawful_tables,
    naive_interior,
    naive_is_monotone,
    route_check,
    scan_open_family,
)


def small_spaces():
    return [t for n in (1, 2, 3) for t in enumerate_topologies(n)]


def test_builtin_examples(s2, c3):
    ops = catalog(s2)
    assert ops["scl"].table[0b10] == 0b10
    assert ops["introcl"].table[0] == 0
    assert catalog(c3)["cloint"].table[0b101] == c3.full
    assert ops["identity"].table == (0, 1, 2, 3)


def test_builtin_rejects_unknown(s2):
    with pytest.raises(ValueError):
        builtin(s2, "nope")


def test_builtins_satisfy_operation_laws():
    for top in small_spaces():
        for name in BUILTIN_NAMES:
            assert is_operation(top, builtin(top, name).table)


def test_is_operation_examples(d2):
    assert is_operation(d2, (0, 1, 2, 3))
    broken = (0, 0, 2, 3)  # {a} maps to {}, losing its own interior
    assert not is_operation(d2, broken)
    condition, witness = table_violation(d2, broken)
    assert "interior" in condition and witness == 1
    constant = tuple(0 if a == 0 else d2.full for a in d2.subsets())
    assert is_operation(d2, constant)


def test_operation_constructor_validates(d2):
    with pytest.raises(ValueError):
        Operation(d2, (0, 0, 2, 3))
    with pytest.raises(ValueError):
        Operation(d2, (0, 1, 2))
    with pytest.raises(ValueError):
        Operation(d2, (1, 1, 2, 3))


def test_dual_catalog_identities():
    for top in small_spaces():
        ops = catalog(top)
        assert dual(ops["int"]).table == ops["cl"].table
        assert dual(ops["cl"]).table == ops["int"].table
        assert dual(ops["cloint"]).table == ops["introcl"].table
        assert dual(ops["scl"]).table == ops["sint"].table
        for name in BUILTIN_NAMES:
            assert dual(dual(ops[name])).table == ops[name].table


def test_dual_can_fail_the_laws(d2):
    constant = tabulate(d2, lambda a: d2.full if a else 0, "blob")
    # the conjugate collapses everything except X to the empty set
    assert dual_table(constant) == (0, 0, 0, 3)
    with pytest.raises(ValueError, match="dual"):
        dual(constant)


def test_dual_validates_once(d2, monkeypatch):
    # the constructor's check is the only one, and its error names the
    # dual and the witness mask
    calls = []

    def counted(topology, table, *rest):
        calls.append(table)
        return table_violation(topology, table, *rest)

    monkeypatch.setattr(ops_module, "table_violation", counted)
    ops = catalog(d2)
    calls.clear()
    assert dual(ops["int"]).table == ops["cl"].table
    assert len(calls) == 1
    blob = tabulate(d2, lambda a: d2.full if a else 0, "blob")
    with pytest.raises(ValueError, match=r"'dual\(blob\)' is not an operation: .* \(witness mask 0x1\)"):
        dual(blob)


def test_derived_tables_live_in_their_owners_memo():
    # the three space tables (the minimal-neighbourhood row among them) and
    # the two operation tables are built once, kept in their owner's _memo
    # and equal to a naive recomputation; the owners keep no other slot for
    # them, keep no per-point wrapper, and still refuse assignment
    rng = random.Random(23)
    spaces = small_spaces() + [random_topology(10, rng.randrange(10**6), 10)]
    for top in spaces:
        n, memo = top.n, top._memo
        nbhds = top.min_nbhds()
        assert top.min_nbhds() is nbhds is memo[Topology.min_nbhds.__wrapped__]
        assert len(nbhds) == n
        for x, got in enumerate(nbhds):
            around = [u for u in top.opens if u >> x & 1]
            assert got in around and all(got & ~u == 0 for u in around)
        table = top.int_table()
        assert top.int_table() is table is memo[Topology.int_table.__wrapped__]
        assert tuple(table) == tuple(naive_interior(top, a) for a in top.subsets())
        families = [top.opens] + [
            tuple(sorted({rng.randrange(1 << n) for _ in range(rng.randrange(1, 5))}))
            for _ in range(4)
        ]
        for fam in families:
            props, plane = top.family_props(fam), top.family_plane(fam)
            assert top.family_props(fam) is props is memo[Topology.plane_props.__wrapped__, plane]
            assert props == (intersection_closure(fam, n) == fam, union_closure(fam, n) == fam)
        for op in catalog(top).values():
            fam = op_open_family(op)
            assert op_open_family(op) is fam is op._memo[op_open_family.__wrapped__]
            assert fam == scan_open_family(op)
            lanes = op_lanes(op)
            assert op_lanes(op) is lanes is op._memo[op_lanes.__wrapped__]
            width = lanes[1]
            assert width % 8 == 0 and max(op.table) < 1 << width
            assert lanes[0] == sum(t << (a * width) for a, t in enumerate(op.table))
            for name in ("_memo", "_open_family", "_lanes", "table"):
                with pytest.raises(AttributeError):
                    setattr(op, name, None)
            assert not hasattr(op, "_open_family") and not hasattr(op, "_lanes")
        for name in ("_memo", "_min_nbhd", "_int_table", "_verdicts", "opens"):
            with pytest.raises(AttributeError):
                setattr(top, name, None)
        assert not any(hasattr(top, name) for name in ("_min_nbhd", "_int_table", "_verdicts"))
        assert not hasattr(top, "min_nbhd")


def test_operation_pickle_round_trip(s2):
    # a catalog operation whose memo holds its lanes and open family, and
    # a custom one: equal, equal hashes, the name kept, and a memo holding
    # only the copy's own validation lanes, none of the original's objects
    ops = catalog(s2)
    cl = ops["cl"]
    op_lanes(cl)
    op_open_family(cl)
    assert cl._memo
    custom = Operation(s2, ops["scl"].table, "blob")
    for op in (cl, custom):
        copy = pickle.loads(pickle.dumps(op))
        assert copy == op and hash(copy) == hash(op) and copy.name == op.name
        assert copy._memo == {op_lanes.__wrapped__: pack_lanes(copy.table)} and copy.topology == s2
        assert all(value is not op._memo.get(key) for key, value in copy._memo.items())


def test_leq_chains_and_errors(s2, d2):
    for top in small_spaces():
        ops = catalog(top)
        for a, b in (("int", "cloint"), ("cloint", "cl"), ("int", "identity"),
                     ("identity", "scl"), ("scl", "cl"), ("int", "introcl"),
                     ("introcl", "scl")):
            assert leq(ops[a], ops[b])
    ops = catalog(s2)
    assert leq(ops["int"], ops["int"])
    assert not leq(catalog(s2)["cloint"], catalog(s2)["sint"])
    with pytest.raises(ValueError):
        leq(ops["int"], catalog(d2)["int"])


def test_every_builtin_is_monotone():
    for top in small_spaces():
        for name in BUILTIN_NAMES:
            assert is_monotone(builtin(top, name))


def test_monotone_counterexample():
    # on two points the bumped set {a} sits under X alone, which keeps the
    # table monotone; three points leave room for a genuine witness
    d3 = discrete(3)
    table = list(range(8))
    table[1] = d3.full  # {a} jumps to X, {a,b} stays put
    op = Operation(d3, table, "bump")
    assert not is_monotone(op)
    assert not naive_is_monotone(op)


def test_open_families(s2, c3, d2):
    assert op_open_family(catalog(s2)["cloint"]) == (0, 1, 3)
    assert op_open_family(catalog(s2)["identity"]) == (0, 1, 2, 3)
    assert op_open_family(catalog(s2)["introcl"]) == (0, 1, 3)
    assert op_closed_family(catalog(s2)["cloint"]) == (0, 2, 3)
    assert op_open_family(catalog(c3)["cloint"]) == (0, 0b001, 0b011, 0b101, 0b111)


def test_open_family_contains_opens_and_ends():
    for top in small_spaces():
        for name in BUILTIN_NAMES:
            fam = set(op_open_family(builtin(top, name)))
            assert 0 in fam and top.full in fam
            assert set(top.opens) <= fam


def test_regularity_examples(s2):
    ops = catalog(s2)
    for top in small_spaces():
        assert is_regular_wrt(builtin(top, "cl"), top.opens)
    assert is_regular_wrt(ops["sint"], (s2.full,))
    bad_family = (0b011, 0b110, 0b111)
    assert not is_regular_wrt(catalog(discrete(3))["identity"], bad_family)


def test_neighborhoods(s2):
    assert neighborhoods(2, s2.opens, 0) == (1, 3)
    assert neighborhoods(2, (), 0) == ()
    assert neighborhoods(2, s2.opens, 1) == (3,)
    assert at_point(s2.opens, 1) == (3,)


def test_inclusion_lemma_forward_and_converse(s2):
    for top in small_spaces():
        ops = catalog(top)
        for a in BUILTIN_NAMES:
            for b in BUILTIN_NAMES:
                if leq(ops[a], ops[b]) or leq(ops["identity"], ops[b]):
                    assert set(op_open_family(ops[a])) <= set(op_open_family(ops[b]))
    # the converse fails: equal families, neither order hypothesis
    ops = catalog(s2)
    assert op_open_family(ops["cloint"]) == op_open_family(ops["sint"])
    assert not leq(ops["cloint"], ops["sint"])
    assert not leq(ops["identity"], ops["sint"])


def test_monotone_open_family_is_supratopology():
    for top in small_spaces():
        for name in BUILTIN_NAMES:
            op = builtin(top, name)
            if is_monotone(op):
                fam = set(op_open_family(op))
                assert all(x | y in fam for x in fam for y in fam)


def test_operations_suite_builds_each_dual_once(monkeypatch):
    # the operations suite builds and validates the seven catalog duals
    # once each; their duals are compared as raw tables, never validated,
    # and the catalog dual identities read the same seven duals
    from topolab.harness import _SUITES, SuiteConfig, _SpaceContext

    calls = []

    def counted(topology, table, *rest):
        calls.append(table)
        return table_violation(topology, table, *rest)

    for top in lane_test_spaces(83)[:40:7]:
        ctx = _SpaceContext("s", top, SuiteConfig())
        monkeypatch.setattr(ops_module, "table_violation", counted)
        calls.clear()
        result = _SUITES["operations"](ctx, SuiteConfig())
        monkeypatch.undo()
        assert len(calls) == len(BUILTIN_NAMES), top
        assert not result.failures


def test_kept_lanes_are_the_packed_table():
    # from construction on, an operation's memo holds exactly the lanes its
    # validation packed, equal to packing its table afresh: catalog
    # operations, their duals and seeded custom tables, on every space of
    # at most 4 points and one seeded space of each size up to 16
    rng = random.Random(97)
    for top in lane_test_spaces(97):
        ops = list(catalog(top).values())
        if top.n <= 8:
            ops += [dual(op) for op in ops]
        ops += [Operation(top, table, "blob") for table in lawful_tables(top, rng)[-2:]]
        for op in ops:
            assert op._memo == {op_lanes.__wrapped__: pack_lanes(op.table)}, (top, op.name)
            assert op_lanes(op) is op._memo[op_lanes.__wrapped__]


# Checks that became rows of oracles.ROUTES, kept under their names.
test_leq_matches_the_entrywise_scan = route_check("leq")
test_is_monotone_matches_naive = route_check("is_monotone")
test_builtin_tables_match_their_definitions = route_check("builtin_tables")
test_regularity_matches_literal_scan = route_check("regular_wrt")
test_neighborhoods_match_literal_scan = route_check("neighborhoods")
test_lane_table_violation_matches_the_entry_walk = route_check("table_violation")
test_open_families_are_the_zero_lanes = route_check("op_open_family")
test_operation_planes_match_the_subset_walk = route_check("op_open_plane", "op_shrink_plane")
