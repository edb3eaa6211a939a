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

from oracles import (
    literal_finer_convergent,
    literal_is_filterbase,
    literal_is_regular_wrt,
    literal_is_t2,
    pointwise_pair_closure,
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


def test_is_filterbase_matches_literal_directedness():
    for n in (1, 2, 3):
        nonempty = list(range(1, 1 << n))
        for sel in range(1 << len(nonempty)):
            fam = tuple(nonempty[i] for i in range(len(nonempty)) if sel >> i & 1)
            assert is_filterbase(fam) == literal_is_filterbase(fam)


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
    # principal filters take a one-step route; it must match the
    # per-point rules, which a single-member base still goes through
    for top in small_spaces():
        for a in BUILTIN_NAMES:
            for b in BUILTIN_NAMES:
                p = pair(top, a, b)
                for core in range(1, 1 << top.n):
                    f = Filter(top.n, core)
                    points = range(top.n)
                    assert limit_set(f, p) == sum(1 << x for x in points if converges(f, p, x))
                    assert adherence_set(f, p) == sum(1 << x for x in points if accumulates(f, p, x))
                    assert (limit_set(f, p), adherence_set(f, p)) == \
                        (limit_set((core,), p), adherence_set((core,), p))


def test_base_and_generated_filter_agree():
    for top in small_spaces():
        n = top.n
        nonempty = list(range(1, 1 << n))
        bases = [
            tuple(nonempty[i] for i in range(len(nonempty)) if sel >> i & 1)
            for sel in range(1, 1 << len(nonempty))
        ]
        bases = [b for b in bases if is_filterbase(b)]
        for a, b in (("int", "cl"), ("cloint", "scl"), ("identity", "sint")):
            p = pair(top, a, b)
            for base in bases:
                f = generated_filter(n, base)
                for x in range(n):
                    assert converges(base, p, x) == converges(f, p, x)
                    assert accumulates(base, p, x) == accumulates(f, p, x)


def test_base_sets_match_per_point_rules():
    # the one-pass limit set and the meet of closures against the per-point
    # predicates: every filterbase on at most 3 points and, on seeded
    # 4-6-point spaces, seeded bases and arbitrary families (the empty one
    # included), all 49 pairs
    import random

    cases = []
    for top in small_spaces():
        nonempty = list(range(1, 1 << top.n))
        fams = (
            tuple(nonempty[i] for i in range(len(nonempty)) if sel >> i & 1)
            for sel in range(1, 1 << len(nonempty))
        )
        cases.append((top, [f for f in fams if is_filterbase(f)]))
    rng = random.Random(29)
    for n in (4, 5, 6):
        top = random_topology(n, rng.randrange(10**6), n)
        fams = [()]
        for _ in range(12):
            core = rng.randrange(1, 1 << n)
            fams.append(tuple(sorted({core, *(core | rng.randrange(1 << n) for _ in range(2))})))
            fams.append(tuple(rng.randrange(1, 1 << n) for _ in range(rng.randrange(1, 4))))
        cases.append((top, fams))
    for top, fams in cases:
        points = range(top.n)
        for a in BUILTIN_NAMES:
            for b in BUILTIN_NAMES:
                p = pair(top, a, b)
                for fam in fams:
                    assert limit_set(fam, p) == sum(1 << x for x in points if converges(fam, p, x)), (top, a, b, fam)
                    assert adherence_set(fam, p) == sum(1 << x for x in points if accumulates(fam, p, x)), (top, a, b, fam)


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


def _blunt3():
    # opens {}, {a,b}, X: pre-open sets are everything but {c}, and the
    # identity enlarger is not regular against them
    from topolab import Topology, default_ground

    return Topology(default_ground(3), (0, 0b011, 0b111))


def test_finer_convergent_preconditions(s2):
    plain = pair(s2, "int", "identity")
    # {b} is closed, so the principal filter there stays away from a
    f = Filter(2, 0b10)
    assert not accumulates(f, plain, 0)
    with pytest.raises(ValueError, match="accumulate"):
        finer_convergent(f, plain, 0)
    from topolab import op_open_family

    irregular = pair(_blunt3(), "introcl", "identity")
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


def _closed_form_spaces():
    """Every space up to 3 points, then seeded 4-7-point spaces."""
    import random

    rng = random.Random(53)
    seeded = [random_topology(n, rng.randrange(10**6), n) for n in (4, 5, 6, 7) for _ in range(2)]
    return small_spaces() + seeded


def test_t2_matches_literal_scan():
    verdicts = set()
    for top in _closed_form_spaces() + [_blunt3()]:
        for a in BUILTIN_NAMES:
            for b in BUILTIN_NAMES:
                p = pair(top, a, b)
                verdicts.add(is_t2(p))
                assert is_t2(p) == literal_is_t2(p), (top, a, b)
    assert verdicts == {True, False}


def test_finer_convergent_matches_literal_construction():
    # every core of every space up to 3 points; on the seeded spaces the
    # whole set and four seeded cores.  Where the literal preconditions
    # fail the closed form must refuse.
    import random

    rng = random.Random(59)
    built = 0
    for top in _closed_form_spaces() + [_blunt3()]:
        n = top.n
        if n <= 3:
            cores = range(1, 1 << n)
        else:
            cores = sorted({top.full, *(rng.randrange(1, 1 << n) for _ in range(4))})
        for a in BUILTIN_NAMES:
            for b in BUILTIN_NAMES:
                p = pair(top, a, b)
                regular = literal_is_regular_wrt(p.enlarger, p.selector_open())
                assert is_regular_wrt(p.enlarger, p.selector_open()) == regular, (top, a, b)
                for core in cores:
                    f = Filter(n, core)
                    closure = pointwise_pair_closure(p, core)
                    for x in range(n):
                        if regular and closure >> x & 1:
                            built += 1
                            got = finer_convergent(f, p, x).core
                            assert got == literal_finer_convergent(f, p, x), (top, a, b, core, x)
                        else:
                            with pytest.raises(ValueError):
                                finer_convergent(f, p, x)
    assert built > 10_000


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
    p = pair(_blunt3(), "introcl", "identity")
    assert pair_closure(p, 0b011) >> 2 & 1
    assert not convergence_closure(p, 0b011) >> 2 & 1
