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
from topolab.compact import _closed_meets, _minimal_cover, _row
from topolab.filters import _point_limits
from topolab.ops import Operation, dual_table, is_monotone, op_closed_family, op_open_family
from topolab.pairs import (
    base_report,
    enlargement_base,
    pair_closed_family,
    pair_closure,
    pair_closure_by_points,
    pair_open_family,
)
from topolab.space import EXHAUSTIVE_POINTS, discrete

from oracles import (
    all_families_of_nonempty,
    antichain_families,
    base_gap_has_disjoint_member,
    brute_force_compact_all,
    catalog_kernels,
    inner_bases_accumulate,
    literal_fip_and_gap,
    maximal_bases_converge,
    meeting_bases_accumulate,
    pairwise_additive_hypothesis,
    per_subset_compact,
    sampled_families,
    seeded_subfamily,
    subfamily_bases_accumulate,
    subfamily_fip_and_gap,
    trial_minimal_cover,
)

KINDS = ("pair", "pair_open", "base")
#: the filter faces of compactness: the cover kind and its two other routes
FACES = ("pair", "ultra", "closed")
STATEMENTS = KINDS + ("ultra", "closed", "restricted")


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


def test_witness_covers_match_the_trial_removals():
    # the prefix-OR pruning keeps what trying each removal on a copy kept:
    # the witness of every failing subset of every catalog cover system
    # (one per pair kernel) on every space of at most 4 points and on
    # seeded 6- and 8-point spaces, then seeded families, covers or not
    rng = random.Random(401)
    spaces = [top for n in range(EXHAUSTIVE_POINTS + 1) for top in enumerate_topologies(n)]
    spaces += [random_topology(n, rng.randrange(10**6), n) for n in (6, 8)]
    witnesses = 0
    for top in spaces:
        for k in catalog_kernels(top):
            cs, enl = CoverSystem(k.family, k.enlarger), k.enlarger.table
            for a in top.subsets():
                v = is_compact(cs, a)
                if not v.compact:
                    avoid = [u for u in k.family if not enl[u] >> v.witness_point & 1]
                    assert v.witness_cover == trial_minimal_cover(avoid, a), (top, k.enlarger, a)
                    witnesses += 1
    assert witnesses > 10_000
    for _ in range(5000):
        n = rng.randrange(7)
        members = [rng.randrange(1 << n) for _ in range(rng.randrange(12))]
        a = rng.randrange(1 << n)
        assert _minimal_cover(members, a) == trial_minimal_cover(members, a), (members, a)


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


def family_universe(n):
    """Every antichain of nonempty sets up to 4 points; above that every
    singleton family plus seeded samples."""
    if n <= 4:
        return antichain_families(n)
    return tuple((1 << y,) for y in range(n)) + sampled_families(n, seed=n, count=64)


def meet(sets, full):
    out = full
    for m in sets:
        out &= m
    return out


def closed_refuter(closed, dual, s, full):
    """Some y in s whose S_y = {f : y in dual(f)} refutes the closed pair:
    its meet misses s while every finite part's dual meet holds y."""
    for y in range(full.bit_length()):
        sy = [f for f in closed if dual[f] >> y & 1]
        if s >> y & 1 and s & meet(sy, full) == 0 and meet((dual[f] for f in sy), full) >> y & 1:
            return y
    return None


def test_flags_against_literal_family_quantification():
    # the closed forms of the base statements and of both family pairs
    # must match literal scans straight from their wording, over the
    # complete universes: every antichain up to 4 points (singleton
    # families and seeded samples above), every family on two points,
    # and every subfamily of a selector-closed family of at most 10
    # members.  On bigger closed families the record must be False
    # exactly when some S_y refutes by definition, and any refuting
    # subfamily of a seeded 10-member draw must force False.
    every = list(all_families_of_nonempty(2))
    for top, subsets in oracle_spaces():
        full = top.full
        universe = family_universe(top.n)
        for a, b in itertools.product(BUILTIN_NAMES, repeat=2):
            p = pair(top, a, b)
            cl = pair_closure_by_points(p, top.subsets())
            closed = op_closed_family(p.selector)
            dual = dual_table(p.enlarger)
            drawn = seeded_subfamily(closed, f"{top.n},{a},{b}")
            for s in subsets:
                # six of the ten statements are the pair plane's verdict,
                # the two closed ones the closed plane's
                cover, _, closed_ok = verdicts(p, s)
                assert cover == inner_bases_accumulate(cl, s)
                assert cover == meeting_bases_accumulate(cl, s, top.n)
                assert cover == base_gap_has_disjoint_member(cl, s, top.n)
                family = (cover, cover)
                assert family == literal_fip_and_gap(cl, universe, s, full)
                if top.n == 2:
                    assert family == literal_fip_and_gap(cl, every, s, full)
                closed_pair = (closed_ok, closed_ok)
                literal = subfamily_fip_and_gap(drawn, s, full, [dual[f] for f in drawn])
                if drawn == closed:
                    assert closed_pair == literal
                    continue
                if literal != (True, True):
                    assert closed_pair == (False, False)
                refuter = closed_refuter(closed, dual, s, full)
                assert closed_pair == ((True, True) if refuter is None else (False, False))


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


def kind_system(p, kind, identity):
    """The cover system a compactness kind quantifies over."""
    if kind == "pair":
        return CoverSystem(p.kernel.family, p.enlarger)
    if kind == "pair_open":
        return CoverSystem(pair_open_family(p), identity)
    return CoverSystem(canonical_family(enlargement_base(p) + (p.topology.full,)), identity)


def test_compactness_kind_matches_avoidance_criterion():
    # every kind's row against is_compact on the kind's cover system, and
    # against the literal oracle wherever the ambient family is small
    spaces = [(top, list(top.subsets())) for top in small_spaces()]
    rng = random.Random(41)
    for n in (4, 5, 6, 7, 8):
        top = random_topology(n, rng.randrange(10**6), n)
        spaces.append((top, sorted({0, top.full, *(rng.randrange(1 << n) for _ in range(6))})))
    for top, subsets in spaces:
        ops = catalog(top)
        literal = {}  # many pairs share one cover system; scan each once
        for a, b in itertools.product(BUILTIN_NAMES, repeat=2):
            p = OpPair(ops[a], ops[b])
            for kind in KINDS:
                cs = kind_system(p, kind, ops["identity"])
                key = (cs.ambient, cs.enlarger.table)
                if len(cs.ambient) <= 12 and key not in literal:
                    literal[key] = dict(zip(subsets, brute_force_compact_all(cs, subsets)))
                for s in subsets:
                    got = compactness_kind(p, s, kind)
                    assert got == is_compact(cs, s).compact, (top, a, b, kind, s)
                    if key in literal:
                        assert got == literal[key][s], (top, a, b, kind, s)


def test_cover_kind_hypothesis_examples(s2):
    # the four complement statements hold for every set, so the kinds
    # agree when the set is compact in all three
    for top in small_spaces():
        for p in (pair(top, "int", "introcl"), pair(top, "cloint", "scl")):
            assert base_report(p).hypothesis_d
            assert verdicts(p, top.full, KINDS) == (True, True, True)


def test_complement_statements_hold_literally():
    # the cover-kind check takes the four complement statements as True
    # without a scan, and the restricted plane reads restricted
    # accumulation off every nonempty residue; the literal subfamily
    # scans must agree over residue and closed families of at most 10
    # members.  Bigger ones are scanned over a seeded 10-member draw (any
    # refuting base among them must force False), and the record must be
    # False exactly when some residue r has its base {r} refuting by
    # definition.
    for top, subsets in oracle_spaces():
        full = top.full
        for a, b in itertools.product(BUILTIN_NAMES, repeat=2):
            p = pair(top, a, b)
            enl = p.enlarger.table
            cl = pair_closure_by_points(p, top.subsets())
            residues = canonical_family(full ^ enl[u] for u in p.kernel.family)
            drawn = seeded_subfamily(residues, f"residues,{top.n},{a},{b}")
            closed = seeded_subfamily(pair_closed_family(p), f"closed,{top.n},{a},{b}")
            for s in subsets:
                assert subfamily_fip_and_gap(drawn, s, full) == (True, True)
                assert subfamily_fip_and_gap(closed, s, full) == (True, True)
                (restricted,) = verdicts(p, s, ("restricted",))
                literal = subfamily_bases_accumulate(drawn, cl, s)
                if drawn == residues:
                    assert restricted == literal
                    continue
                if not literal:
                    assert not restricted
                assert restricted == all(subfamily_bases_accumulate((r,), cl, s) for r in residues)


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
        literal = brute_force_compact_all(cs, top.subsets())
        for a in top.subsets():
            assert is_compact(cs, a).compact == literal[a]


def test_closed_space_predicates(s2, d2, i2):
    theta = pair(d2, "int", "cl")
    rep = closed_space_predicates(d2, theta)
    assert rep.hausdorff and rep.s_closed and rep.h_closed and rep.pair_compact_space
    rep = closed_space_predicates(s2, pair(s2, "int", "cl"))
    assert not rep.hausdorff and not rep.s_closed and not rep.h_closed
    rep = closed_space_predicates(i2, pair(i2, "int", "cl"))
    assert not rep.hausdorff


def _plane_spaces(seed: int):
    """Every space of at most 3 points, then seeded 4-8-point spaces."""
    rng = random.Random(seed)
    return small_spaces() + [random_topology(n, rng.randrange(10**6), n) for n in (4, 5, 6, 7, 8)]


def test_failing_planes_match_the_per_set_scan():
    # every subset, every statement and all 49 pairs: bit a of a plane is
    # set exactly when the per-set scan of the statement's row fails a
    for top in _plane_spaces(83):
        for a, b in itertools.product(BUILTIN_NAMES, repeat=2):
            p = pair(top, a, b)
            for kind in STATEMENTS:
                plane = failing_plane(p, kind)
                assert plane >> (1 << top.n) == 0
                for s in top.subsets():
                    assert bool(plane >> s & 1) != compactness_kind(p, s, kind), (top, a, b, kind, s)
    # an unknown kind names every statement the planes know
    for check in (failing_plane, lambda p, kind: compactness_kind(p, 1, kind)):
        with pytest.raises(ValueError, match="'pair_open', 'base', 'ultra', 'closed' or 'restricted'"):
            check(pair(small_spaces()[0], "int", "cl"), "nope")


def test_space_flags_match_the_per_set_scan():
    # the space-level record read off planes against compactness_kind over
    # the whole space, every nonempty residue and every pair-closed set
    for top in _plane_spaces(89):
        full = top.full
        for a, b in itertools.product(BUILTIN_NAMES, repeat=2):
            p = pair(top, a, b)
            enl = p.enlarger.table
            residues = [r for r in canonical_family(full ^ enl[u] for u in p.kernel.family) if r]
            closed = pair_closed_family(p)

            def compact_all(sets, kind):
                return all(compactness_kind(p, s, kind) for s in sets)

            expected = tuple(
                compact_all(sets, kind)
                for sets, kinds in (((full,), ("pair", "base", "pair_open")),
                                    (residues, ("pair", "pair_open", "base")),
                                    (closed, ("pair", "pair_open", "base")))
                for kind in kinds
            )
            flags = space_compactness_flags(p)
            assert flags.statements() == expected, (top, a, b)


def test_additive_hypothesis_matches_the_pairwise_scan():
    # monotone selector first, then (u, j) with j empty or union-irreducible,
    # against the pairwise scan over every pair of selector-open sets
    seen = set()
    for top in _plane_spaces(97):
        for a, b in itertools.product(BUILTIN_NAMES, repeat=2):
            p = pair(top, a, b)
            got = additive_hypothesis(p)
            assert got == pairwise_additive_hypothesis(p), (top, a, b)
            seen.add(got)
    assert seen == {True, False}
    # a selector that is not monotone but whose enlarger is additive over
    # its open sets: only the monotone test refutes the hypothesis
    top = discrete(3)
    table = list(top.subsets())
    table[0b001] = 0b011
    p = OpPair(Operation(top, table), catalog(top)["identity"])
    assert not is_monotone(p.selector)
    assert additive_hypothesis(p) is False and pairwise_additive_hypothesis(p) is False


def test_ultra_plane_matches_maximal_filters():
    # the two maximal-base statements, read literally: every singleton
    # filter inside a set converges to some point of it
    seen = set()
    for top, subsets in oracle_spaces():
        for a, b in itertools.product(BUILTIN_NAMES, repeat=2):
            p = pair(top, a, b)
            plane = failing_plane(p, "ultra")
            for s in subsets:
                literal = maximal_bases_converge(p, s)
                assert (not plane >> s & 1) == literal, (top, a, b, s)
                seen.add(literal)
    assert seen == {True, False}


def test_avoidance_row_equals_the_filter_routes():
    # outside[x] of the pair kind is full ^ cl({x}) (the same table entry,
    # and the pointwise closure rule), full ^ the point's limits through
    # the envelopes, and full ^ the closed meets through the dual table:
    # every space of at most 4 points and seeded 5-10-point spaces
    rng = random.Random(107)
    spaces = [t for n in range(5) for t in enumerate_topologies(n)]
    spaces += [random_topology(n, rng.randrange(10**6), n) for n in range(5, 11) for _ in range(4)]
    for top in spaces:
        full = top.full
        ops = catalog(top)
        for a, b in itertools.product(BUILTIN_NAMES, repeat=2):
            p = OpPair(ops[a], ops[b])
            outside = tuple(m for (m,) in _row(p, "pair"))
            by_points = pair_closure_by_points(p, (1 << x for x in range(top.n)))
            for x in range(top.n):
                assert outside[x] == full ^ pair_closure(p, 1 << x), (top, a, b, x)
                assert outside[x] == full ^ by_points[x], (top, a, b, x)
            assert outside == tuple(full ^ m for m in _point_limits(p)), (top, a, b)
            assert outside == tuple(full ^ m for m in _closed_meets(p)), (top, a, b)
