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
from topolab.ops import at_point, table_violation, tabulate

from oracles import literal_is_regular_wrt, literal_neighborhoods, naive_is_monotone


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


def test_is_monotone_matches_naive():
    rng = random.Random(3)
    for trial in range(20):
        top = random_topology(4, rng.randrange(10**6), 3)
        for name in BUILTIN_NAMES:
            op = builtin(top, name)
            assert is_monotone(op) == naive_is_monotone(op)


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
