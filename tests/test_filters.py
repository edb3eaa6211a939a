import pytest

from topolab import (
    BUILTIN_NAMES,
    Filter,
    OpPair,
    accumulates,
    adherence_set,
    catalog,
    convergence_closure,
    converges,
    enumerate_topologies,
    finer_convergent,
    generated_filter,
    is_filterbase,
    is_regular_wrt,
    is_t2,
    limit_set,
    maximal_filters,
    nbhd_filterbase,
    pair_closure,
    random_topology,
)
from topolab import filters

from oracles import (
    blunt3,
    catalog_kernels,
    route_check,
    verdict,
)


def small_spaces():
    return [t for n in (1, 2, 3) for t in enumerate_topologies(n)]


def pair(top, a, b):
    ops = catalog(top)
    return OpPair(ops[a], ops[b])


def test_filter_validation():
    with pytest.raises(ValueError):
        Filter(2, 0)
    with pytest.raises(ValueError):
        Filter(2, 0b100)
    f = Filter(2, 0b01)
    assert f.members() == [0b01, 0b11]
    assert 0b11 in f and 0b10 not in f
    assert Filter(2, 0b01).is_finer_than(Filter(2, 0b11))


def test_is_filterbase_examples():
    assert is_filterbase((0b01, 0b11))
    assert not is_filterbase((0b01, 0b10))
    assert not is_filterbase(())
    assert not is_filterbase((0,))
    assert is_filterbase((0b011, 0b110, 0b010))


def test_generated_filter():
    assert generated_filter(2, (0b11, 0b01)).core == 0b01
    assert generated_filter(2, (0b11,)).core == 0b11
    assert generated_filter(3, (0b011, 0b110, 0b010)).core == 0b010
    with pytest.raises(ValueError):
        generated_filter(2, (0b01, 0b10))


def test_converges_examples(s2, i2):
    theta = pair(s2, "int", "cl")
    f = Filter(2, 0b01)
    assert converges(f, theta, 0) and converges(f, theta, 1)
    plain = pair(s2, "int", "identity")
    g = Filter(2, 0b10)
    assert converges(g, plain, 1) and not converges(g, plain, 0)
    full = Filter(2, i2.full)
    for enl in ("cl", "identity", "scl"):
        assert converges(full, pair(i2, "int", enl), 0)


def test_accumulates_examples(s2):
    theta = pair(s2, "int", "cl")
    assert accumulates(Filter(2, 0b10), theta, 0)
    assert accumulates(Filter(2, 0b01), theta, 0)
    for top in small_spaces():
        p = pair(top, "cloint", "scl")
        for core in range(1, 1 << top.n):
            f = Filter(top.n, core)
            assert limit_set(f, p) & ~adherence_set(f, p) == 0


def test_limit_and_adherence_sets(s2):
    theta = pair(s2, "int", "cl")
    assert limit_set(Filter(2, 0b01), theta) == s2.full
    plain = pair(s2, "int", "identity")
    assert limit_set(Filter(2, 0b10), plain) == 0b10
    assert adherence_set(Filter(2, 0b10), plain) & 0b10
    assert adherence_set(Filter(2, s2.full), theta) == s2.full


def test_redundant_bases_change_nothing(s2):
    theta = pair(s2, "int", "cl")
    lean = (0b01,)
    fat = (0b01, 0b11)  # same filter, one redundant member
    for x in range(2):
        assert converges(lean, theta, x) == converges(fat, theta, x)
        assert accumulates(lean, theta, x) == accumulates(fat, theta, x)


def test_finer_convergent_examples(s2):
    theta = pair(s2, "int", "cl")
    f = Filter(2, s2.full)
    g = finer_convergent(f, theta, 0)
    assert g.core == s2.full and converges(g, theta, 0)
    for m in maximal_filters(s2):
        for x in range(2):
            if accumulates(m, theta, x):
                assert finer_convergent(m, theta, x) == m


def test_finer_convergent_preconditions(s2):
    plain = pair(s2, "int", "identity")
    # {b} is closed, so the principal filter there stays away from a
    f = Filter(2, 0b10)
    assert not accumulates(f, plain, 0)
    with pytest.raises(ValueError, match="accumulate"):
        finer_convergent(f, plain, 0)
    from topolab import op_open_family

    irregular = pair(blunt3(), "introcl", "identity")
    assert not is_regular_wrt(irregular.enlarger, op_open_family(irregular.selector))
    # the verdict is cached on the pair; repeated calls must still refuse
    for _ in range(2):
        with pytest.raises(ValueError, match="regular"):
            finer_convergent(Filter(3, 0b111), irregular, 0)
        with pytest.raises(ValueError, match="regular"):
            nbhd_filterbase(irregular, 0, "enlarged")


def test_maximal_filters(s2):
    ms = maximal_filters(s2)
    assert [m.core for m in ms] == [1, 2]
    assert maximal_filters(enumerate_topologies(0).__next__()) == []
    for m in ms:
        finer = [c for c in range(1, 4) if c & ~m.core == 0 and c != m.core]
        assert finer == []


def test_is_t2_examples(s2, d2, i2):
    assert not is_t2(pair(s2, "int", "identity"))
    assert is_t2(pair(d2, "int", "identity"))
    assert is_t2(pair(d2, "int", "cl"))
    assert not is_t2(pair(i2, "int", "identity"))


def test_t2_forces_unique_limits():
    for top in small_spaces():
        for a in BUILTIN_NAMES:
            for b in BUILTIN_NAMES:
                p = pair(top, a, b)
                if not is_t2(p):
                    continue
                for core in range(1, 1 << top.n):
                    f = Filter(top.n, core)
                    lim = limit_set(f, p)
                    if lim:
                        assert lim.bit_count() == 1
                        assert adherence_set(f, p) == lim


def test_nbhd_filterbase(s2):
    theta = pair(s2, "int", "cl")
    assert nbhd_filterbase(theta, 0, "plain") == (0b01, 0b11)
    assert nbhd_filterbase(theta, 1, "enlarged") == (0b11,)
    with pytest.raises(ValueError, match="variant"):
        nbhd_filterbase(theta, 0, "other")
    # identity selector is intersection-closed but scl-open sets are everything,
    # so nesting holds; int enlarger breaks the nesting precondition instead
    bad = pair(s2, "scl", "int")
    with pytest.raises(ValueError):
        nbhd_filterbase(bad, 0, "plain")


def test_nbhd_base_meet_comes_from_the_members(monkeypatch):
    # with every envelope faulted to the empty set, each base still passes
    # the filterbase laws on its own members and fails only convergence; a
    # meet read off the envelopes would fail the laws instead
    monkeypatch.setattr(filters, "envelopes", lambda k: (0,) * k.topology.n)
    checked = 0
    for top in small_spaces() + [random_topology(8, 5, 8)]:
        for k in catalog_kernels(top):
            for x in range(top.n):
                for variant in ("plain", "enlarged"):
                    got = verdict(nbhd_filterbase, k, x, variant)
                    if got is not ValueError:
                        assert got == "neighbourhood base failed to converge at its point", (top, x)
                        checked += 1
    assert checked > 100


def test_convergence_closure_examples(s2):
    theta = pair(s2, "int", "cl")
    assert convergence_closure(theta, 0b10) == s2.full
    assert convergence_closure(theta, 0) == 0
    for top in small_spaces():
        p = pair(top, "int", "cl")
        for a in top.subsets():
            assert convergence_closure(p, a) == convergence_closure(p, a, exhaustive=True)
            assert convergence_closure(p, a) == pair_closure(p, a)


def test_convergence_closure_requires_regularity_for_equality():
    # without regularity the two closures genuinely differ: here the point c
    # sits in the pair closure of {a,b} but no filter containing {a,b}
    # converges to it
    p = pair(blunt3(), "introcl", "identity")
    assert pair_closure(p, 0b011) >> 2 & 1
    assert not convergence_closure(p, 0b011) >> 2 & 1


# Checks that became rows of oracles.ROUTES, kept under their names.
test_is_filterbase_matches_literal_directedness = route_check("is_filterbase")
test_base_and_generated_filter_agree = route_check("generated_filters")
test_base_sets_match_per_point_rules = route_check("base_sets")
test_t2_matches_literal_scan = route_check("t2")
test_finer_convergent_matches_literal_construction = route_check("finer_convergent")
test_refined_core_matches_literal_construction_without_preconditions = route_check("refined_core")
test_nbhd_bases_match_the_member_walk = route_check("nbhd_bases")
test_base_limit_sets_match_the_scan = route_check("base_limits")
test_exhaustive_convergence_closure_matches_the_submask_scan = route_check("convergence_closure")
test_base_adherence_sets_match_the_member_walk = route_check("base_adherence")
