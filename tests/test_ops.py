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
    literal_is_regular_wrt,
    literal_neighborhoods,
    literal_table_violation,
    naive_interior,
    naive_is_monotone,
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


def test_builtin_tables_match_their_definitions():
    # the rules read literally: interior by scanning the opens, closure
    # as its complement dual
    spaces = small_spaces() + [
        random_topology(n, seed, n) for n in range(4, 11) for seed in range(3)
    ]
    for top in spaces:
        full = top.full

        def it(a):
            return naive_interior(top, a)

        def cl(a):
            return full ^ it(full ^ a)

        rules = {
            "identity": lambda a: a,
            "int": it,
            "cl": cl,
            "cloint": lambda a: cl(it(a)),
            "introcl": lambda a: it(cl(a)),
            "scl": lambda a: a | it(cl(a)),
            "sint": lambda a: a & cl(it(a)),
        }
        assert set(rules) == set(BUILTIN_NAMES)
        for name, rule in rules.items():
            assert builtin(top, name).table == tuple(rule(a) for a in top.subsets()), (top, name)


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
        assert table == tuple(naive_interior(top, a) for a in top.subsets())
        families = [top.opens] + [
            tuple(sorted({rng.randrange(1 << n) for _ in range(rng.randrange(1, 5))}))
            for _ in range(4)
        ]
        for fam in families:
            props = top.family_props(fam)
            assert top.family_props(fam) is props is memo[Topology.family_props.__wrapped__, fam]
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


def test_leq_matches_the_entrywise_scan():
    # every catalog pair on every space of at most 3 points, and seeded
    # custom tables int(a) | random bits on 1-6 points
    for top in small_spaces():
        ops = list(catalog(top).values())
        for a in ops:
            for b in ops:
                assert leq(a, b) == all(x & ~y == 0 for x, y in zip(a.table, b.table))
    rng = random.Random(53)
    for _ in range(40):
        n = rng.randrange(1, 7)
        top = random_topology(n, rng.randrange(10**6), n)
        inner = top.int_table()
        a, b = (Operation(top, [i | (rng.getrandbits(n) & rng.getrandbits(n) if m else 0)
                                for m, i in enumerate(inner)]) for _ in range(2))
        for x, y in ((a, b), (b, a), (a, a)):
            assert leq(x, y) == all(s & ~t == 0 for s, t in zip(x.table, y.table))


def test_is_monotone_matches_naive():
    rng = random.Random(3)
    for trial in range(20):
        top = random_topology(4, rng.randrange(10**6), 3)
        for name in BUILTIN_NAMES:
            op = builtin(top, name)
            assert is_monotone(op) == naive_is_monotone(op)
    # builtins with one image widened, monotone or not; nine points make
    # the packed lanes two bytes wide
    verdicts = set()
    for n, trials in ((3, 40), (4, 40), (9, 3)):
        top = random_topology(n, rng.randrange(10**6), n)
        assert all(is_monotone(op) for op in catalog(top).values())
        for trial in range(trials):
            table = list(builtin(top, rng.choice(BUILTIN_NAMES)).table)
            a = rng.randrange(1, 1 << n)
            table[a] |= rng.randrange(1 << n)
            op = Operation(top, table, "widened")
            verdict = is_monotone(op)
            assert verdict == naive_is_monotone(op), (n, trial)
            verdicts.add(verdict)
    assert verdicts == {True, False}


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


def _regularity_cases():
    """(space, families): on every space up to 3 points every family
    holding the whole set; on seeded 4-7-point spaces the catalog's open
    families up to 48 members and seeded families, the empty one and
    ones without the whole set included."""
    for top in small_spaces():
        others = list(range(top.full))
        yield top, [
            tuple(sorted([others[i] for i in range(len(others)) if sel >> i & 1] + [top.full]))
            for sel in range(1 << len(others))
        ]
    rng = random.Random(47)
    for n in range(4, 8):
        for _ in range(2):
            top = random_topology(n, rng.randrange(10**6), n)
            fams = [f for f in map(op_open_family, catalog(top).values()) if len(f) <= 48]
            fams.append(())
            for size in (2, 3, 5, 8, 13, 21):
                picked = {rng.randrange(1 << n) for _ in range(size)}
                fams.append(tuple(sorted(picked | {top.full})))
                fams.append(tuple(sorted(picked - {top.full})))
            yield top, fams


def test_regularity_matches_literal_scan():
    checked = 0
    for top, fams in _regularity_cases():
        for op in catalog(top).values():
            for fam in fams:
                assert is_regular_wrt(op, fam) == literal_is_regular_wrt(op, fam), (top, op, fam)
                checked += 1
    assert checked > 10_000


def test_neighborhoods(s2):
    assert neighborhoods(2, s2.opens, 0) == (1, 3)
    assert neighborhoods(2, (), 0) == ()
    assert neighborhoods(2, s2.opens, 1) == (3,)
    assert at_point(s2.opens, 1) == (3,)


def test_neighborhoods_match_literal_scan():
    # every operation-open family of every space up to 3 points, then
    # seeded families (the empty family and ones without the full set
    # included) on 4-8 points
    cases = [
        (top.n, op_open_family(op))
        for top in small_spaces() for op in catalog(top).values()
    ]
    rng = random.Random(29)
    for n in range(4, 9):
        cases.append((n, ()))
        for _ in range(4):
            cases.append((n, tuple(sorted({rng.randrange(1 << n) for _ in range(rng.randrange(1, 9))}))))
    for n, fam in cases:
        for x in range(n):
            assert neighborhoods(n, fam, x) == literal_neighborhoods(n, fam, x), (n, fam, x)


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


def lane_test_spaces(seed: int):
    """Every space of at most 4 points, n = 0 included, then one seeded
    space of each size from 5 to 16 points."""
    rng = random.Random(seed)
    spaces = [top for n in range(5) for top in enumerate_topologies(n)]
    return spaces + [random_topology(n, rng.randrange(10**6), n) for n in range(5, 17)]


def lawful_tables(top, rng):
    """The catalog tables, their duals up to 8 points, and two seeded
    lawful tables: the interior with seeded extra points, and the whole
    space on the nonempty sets."""
    full = top.full
    tables = [op.table for op in catalog(top).values()]
    if top.n <= 8:
        tables += [dual_table(op) for op in catalog(top).values()]
    grown = [i | rng.randrange(1 << top.n) for i in top.int_table()]
    grown[0] = 0
    tables += [tuple(grown), tuple(full if a else 0 for a in top.subsets())]
    return tables


def corrupted(table, top, rng):
    """Tables that each break the operation laws in one seeded way; some
    break them twice, so that only the first witness is right."""
    n, full = top.n, top.full
    size = 1 << n
    inner = top.int_table()
    out = [table[:-1], table + (0,), (1,) + table[1:]]
    for _ in range(3 if n <= 8 else 1):
        bad = list(table)
        a = rng.randrange(1, size) if n else 0
        bad[a] |= 1 << (n + rng.randrange(3))  # a bit outside the ground set
        out.append(tuple(bad))
        bad = list(table)
        bad[a] = -1 - rng.randrange(4)
        out.append(tuple(bad))
        lost = [b for b in range(size) if inner[b]]
        if lost:
            b = rng.choice(lost)
            bad = list(table)
            bad[b] &= ~(inner[b] & -inner[b])  # drops a point of the interior
            out.append(tuple(bad))
            c = rng.choice(lost)
            bad[c] = 0
            out.append(tuple(bad))
    if n:
        bad = list(table)
        bad[full] = full >> 1
        out.append(tuple(bad))
    return out


def test_lane_table_violation_matches_the_entry_walk():
    # every lawful table passes the lane test, and every corrupted one
    # gets the condition and witness the entry walk names
    rng = random.Random(73)
    for top in lane_test_spaces(73):
        inner = [naive_interior(top, a) for a in top.subsets()] if top.n <= 8 else top.int_table()
        for table in lawful_tables(top, rng):
            assert table_violation(top, table) is None, (top, table)
            assert literal_table_violation(top, table, inner) is None
            for bad in corrupted(table, top, rng):
                expect = literal_table_violation(top, bad, inner)
                assert expect is not None
                assert table_violation(top, bad) == expect, (top, bad, expect)


def test_open_families_are_the_zero_lanes():
    # op_open_family reads the zero lanes of identity & ~table; the entry
    # scan agrees for every lawful table of every space
    rng = random.Random(79)
    for top in lane_test_spaces(79):
        for table in lawful_tables(top, rng):
            op = Operation(top, table)
            assert op_open_family(op) == scan_open_family(op), (top, table)
            assert op_open_family(op)[0] == 0 and op_open_family(op)[-1] == top.full


def test_operations_suite_builds_each_dual_once(monkeypatch):
    # the operations suite builds and validates the seven catalog duals
    # once each; their duals are compared as raw tables, never validated,
    # and the catalog dual identities read the same seven duals
    from topolab.harness import SuiteConfig, _SpaceContext, _suite_operations

    calls = []

    def counted(topology, table, *rest):
        calls.append(table)
        return table_violation(topology, table, *rest)

    for top in lane_test_spaces(83)[:40:7]:
        ctx = _SpaceContext("s", top, SuiteConfig())
        monkeypatch.setattr(ops_module, "table_violation", counted)
        calls.clear()
        result = _suite_operations(ctx, SuiteConfig())
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
