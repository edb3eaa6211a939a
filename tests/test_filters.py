import random

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
    member_table,
    nbhd_filterbase,
    pair_closure,
    random_topology,
)
from topolab import filters
from topolab.filters import refined_core
from topolab.pairs import _kernel_report, enlarger_is_regular
from topolab.space import EXHAUSTIVE_POINTS

from oracles import (
    base_adherence_sets,
    base_limit_sets,
    catalog_kernels,
    literal_base_adherence,
    literal_finer_convergent,
    literal_is_filterbase,
    literal_is_regular_wrt,
    literal_is_t2,
    member_walk_nbhd_base,
    member_walk_nested,
    pairwise_intersection_closed,
    pointwise_pair_closure,
    scan_limit_set,
    submask_convergence_closure,
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
                regular = literal_is_regular_wrt(p.enlarger, p.kernel.family)
                assert is_regular_wrt(p.enlarger, p.kernel.family) == regular, (top, a, b)
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


def test_refined_core_matches_literal_construction_without_preconditions():
    # the closed form needs neither regularity nor accumulation: on every
    # core and point of every space up to 3 points, for every pair, it
    # refuses exactly where the literal cuts are no filterbase and
    # otherwise returns their meet
    refused = 0
    for top in small_spaces():
        n = top.n
        for a in BUILTIN_NAMES:
            for b in BUILTIN_NAMES:
                p = pair(top, a, b)
                for core in range(1, 1 << n):
                    for x in range(n):
                        literal = literal_finer_convergent(Filter(n, core), p, x)
                        if literal is None:
                            refused += 1
                            with pytest.raises(RuntimeError):
                                refined_core(p, core, x)
                        else:
                            assert refined_core(p, core, x) == literal, (top, a, b, core, x)
    assert refused > 10_000


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


def nbhd_verdict(k, point: int, variant: str):
    """The library's neighbourhood base, or the error it raises."""
    try:
        return nbhd_filterbase(k, point, variant)
    except ValueError:
        return ValueError
    except RuntimeError as err:
        return str(err)


def test_nbhd_bases_match_the_member_walk():
    # both neighbourhood bases on their planes against the walk over the
    # selector-open family: every point of every kernel of every space of
    # at most 4 points, with the preconditions read pairwise and literally;
    # then every kernel of seeded 8-, 12- and 16-point spaces at three
    # points, with the library's preconditions (checked literally above)
    seen = set()
    small = [top for n in range(EXHAUSTIVE_POINTS + 1) for top in enumerate_topologies(n)]
    for top in small:
        for k in catalog_kernels(top):
            nested = member_walk_nested(k)
            ok = {
                "plain": nested and pairwise_intersection_closed(k.family),
                "enlarged": nested and literal_is_regular_wrt(k.enlarger, k.family),
            }
            for x in range(top.n):
                for variant, holds in ok.items():
                    want = member_walk_nbhd_base(k, x, variant) if holds else ValueError
                    assert nbhd_verdict(k, x, variant) == want, (top, k.enlarger, x, variant)
                    seen.add((variant, holds))
    assert seen == {(v, h) for v in ("plain", "enlarged") for h in (True, False)}
    rng = random.Random(311)
    for n in (8, 12, 16):
        top = random_topology(n, rng.randrange(10**6), n)
        for k in catalog_kernels(top):
            nested = _kernel_report(k).family_nested
            ok = {
                "plain": nested and top.family_props(k.family)[0],
                "enlarged": nested and enlarger_is_regular(k),
            }
            for x in (0, rng.randrange(n), n - 1):
                for variant, holds in ok.items():
                    want = member_walk_nbhd_base(k, x, variant) if holds else ValueError
                    assert nbhd_verdict(k, x, variant) == want, (n, k.enlarger, x, variant)


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
                    got = nbhd_verdict(k, x, variant)
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
    p = pair(_blunt3(), "introcl", "identity")
    assert pair_closure(p, 0b011) >> 2 & 1
    assert not convergence_closure(p, 0b011) >> 2 & 1


def _seeded_spaces(seed: int):
    """Seeded 4-8-point spaces, one per size."""
    import random

    rng = random.Random(seed)
    return [random_topology(n, rng.randrange(10**6), n) for n in (4, 5, 6, 7, 8)]


def test_base_limit_sets_match_the_scan():
    # every filterbase on at most 3 points, and on seeded 4-8-point spaces
    # seeded bases, arbitrary families and the empty family; all 49 pairs,
    # with the member table built inside and passed in
    import random

    rng = random.Random(67)
    cases = []
    for top in small_spaces():
        nonempty = list(range(1, 1 << top.n))
        fams = (
            tuple(nonempty[i] for i in range(len(nonempty)) if sel >> i & 1)
            for sel in range(1, 1 << len(nonempty))
        )
        cases.append((top, [f for f in fams if is_filterbase(f)]))
    for top in _seeded_spaces(71):
        n = top.n
        fams = [()]
        for _ in range(10):
            core = rng.randrange(1, 1 << n)
            fams.append(tuple(sorted({core, *(core | rng.randrange(1 << n) for _ in range(2))})))
            fams.append(tuple(rng.randrange(1 << n) for _ in range(rng.randrange(1, 4))))
        cases.append((top, fams))
    for top, fams in cases:
        has = member_table(fams, top.n)
        for a in BUILTIN_NAMES:
            for b in BUILTIN_NAMES:
                p = pair(top, a, b)
                scans = [scan_limit_set(f, p) for f in fams]
                assert base_limit_sets(p, fams) == scans, (top, a, b)
                assert base_limit_sets(p, fams, has) == scans, (top, a, b)
                assert [limit_set(f, p) for f in fams[:4]] == scans[:4], (top, a, b)


def test_exhaustive_convergence_closure_matches_the_submask_scan():
    # every subset of every space of at most 3 points and seeded subsets of
    # seeded 4-8-point spaces, all 49 pairs
    import random

    rng = random.Random(73)
    cases = [(top, list(top.subsets())) for top in small_spaces()]
    for top in _seeded_spaces(79):
        cases.append((top, sorted({0, top.full, *(rng.randrange(1 << top.n) for _ in range(6))})))
    for top, subsets in cases:
        for a in BUILTIN_NAMES:
            for b in BUILTIN_NAMES:
                p = pair(top, a, b)
                for s in subsets:
                    literal = submask_convergence_closure(p, s)
                    assert convergence_closure(p, s, exhaustive=True) == literal, (top, a, b, s)
                    assert convergence_closure(p, s) == literal, (top, a, b, s)


def test_base_adherence_sets_match_the_member_walk():
    # every kernel of every space of at most 4 points, n = 0 included, and
    # of seeded 5-16-point spaces: every filterbase up to 3 points, seeded
    # bases, arbitrary families and the empty family above, with the
    # member table built inside and passed in.  The literal walk over the
    # members' pointwise closures up to 8 points, the pair-interior
    # table's route everywhere
    import random

    rng = random.Random(113)
    spaces = [top for n in range(5) for top in enumerate_topologies(n)]
    spaces += [random_topology(n, rng.randrange(10**6), n) for n in range(5, 17)]
    for top in spaces:
        n = top.n
        if n <= 3:
            nonempty = list(range(1, 1 << n))
            fams = [
                tuple(nonempty[i] for i in range(len(nonempty)) if sel >> i & 1)
                for sel in range(1, 1 << len(nonempty))
            ]
            fams = [()] + [f for f in fams if is_filterbase(f)]
        else:
            fams = [()]
            for _ in range(4):
                core = rng.randrange(1, 1 << n)
                fams.append(tuple(sorted({core, *(core | rng.randrange(1 << n) for _ in range(2))})))
                fams.append(tuple(rng.randrange(1 << n) for _ in range(rng.randrange(1, 4))))
        has = member_table(fams, n)
        ops = catalog(top)
        kernels = {}
        for a in BUILTIN_NAMES:
            for b in BUILTIN_NAMES:
                p = OpPair(ops[a], ops[b])
                kernels.setdefault(p.kernel, p)
        for p in kernels.values():
            got = base_adherence_sets(p, fams, has)
            assert got == base_adherence_sets(p, fams), p
            assert got == [adherence_set(f, p) for f in fams], p
            if n <= 8:
                assert got == [literal_base_adherence(f, p) for f in fams], p
