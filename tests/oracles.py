"""Independent reference implementations used only to check the library,
and the differential table ``ROUTES`` that pairs each fast route of the
library with one of them.

Each oracle recomputes a quantity the way its definition reads, or the
way the library computed it before a faster route replaced it: subset
by subset, point by point, member by member, pair by pair, or by
pairwise fixpoints.  The oracles import no code path they validate,
but where a docstring names the library row an oracle reads, and the
table at the end, which imports the fast routes it compares.
"""

from __future__ import annotations

import functools
import itertools
import operator
import random
from typing import Callable, NamedTuple

from topolab.bits import submasks_desc


def intersection_dp(members, full: int) -> list[int]:
    """dp[sel] = intersection of the members picked by the bits of
    ``sel``; dp[0] = full."""
    dp = [full] * (1 << len(members))
    for sel in range(1, 1 << len(members)):
        low = sel & -sel
        dp[sel] = dp[sel ^ low] & members[low.bit_length() - 1]
    return dp


def union_table(members) -> list[int]:
    """dp[sel] = union of the members picked by the bits of ``sel``."""
    dp = [0] * (1 << len(members))
    for sel in range(1, 1 << len(members)):
        low = sel & -sel
        dp[sel] = dp[sel ^ low] | members[low.bit_length() - 1]
    return dp


def per_subset_compact(cs, a: int) -> bool:
    """The compactness quantifiers read literally for one set: every
    subfamily of the ambient family covering ``a`` is scanned, and for
    each the finite subfamilies until one has enlargements covering
    ``a``."""
    members = list(cs.ambient)
    plain = union_table(members)
    enl = cs.enlarger.table
    enlarged = union_table([enl[u] for u in members])
    for cover_sel in range(1 << len(members)):
        if a & ~plain[cover_sel]:
            continue
        if not any(a & ~enlarged[sub] == 0 for sub in submasks_desc(cover_sel)):
            return False
    return True


def literal_contained_union_table(pairs, n: int) -> list[int]:
    """table[a] = OR of the payloads whose key lies inside ``a``,
    scanned subset by subset over every pair."""
    pairs = list(pairs)
    table = []
    for a in range(1 << n):
        acc = 0
        for key, payload in pairs:
            if key & ~a == 0:
                acc |= payload
        table.append(acc)
    return table


def literal_point_meets(rows, n: int) -> tuple:
    """out[x] = meet of the t over the rows (t, u) whose u holds x, the
    whole set where no row does: one walk over the points of each u."""
    out = [(1 << n) - 1] * n
    for t, u in rows:
        while u:
            low = u & -u
            out[low.bit_length() - 1] &= t
            u ^= low
    return tuple(out)


def literal_neighborhoods(n: int, family, point: int) -> tuple:
    """Every subset of an n-point carrier holding some member of
    ``family`` that contains ``point``, scanned subset by subset."""
    local = [u for u in family if u >> point & 1]
    if not local:
        return ()
    return tuple(m for m in range(1 << n) if any(u & ~m == 0 for u in local))


def count_preorders(n: int) -> int:
    """Reflexive transitive relations on n labelled points.

    Finite topologies and preorders are in bijection (specialization
    order one way, down-set topology the other), so this count must
    match the enumerator's output exactly.
    """
    if n == 0:
        return 1
    off_diagonal = [(i, j) for i in range(n) for j in range(n) if i != j]
    count = 0
    for bits in range(1 << len(off_diagonal)):
        rel = [[i == j for j in range(n)] for i in range(n)]
        for k, (i, j) in enumerate(off_diagonal):
            if bits >> k & 1:
                rel[i][j] = True
        # transitive: the composition rel;rel adds no pair to rel
        composed = [
            (i, k) for i in range(n) for j in range(n) if rel[i][j]
            for k in range(n) if rel[j][k]
        ]
        if all(rel[i][k] for i, k in composed):
            count += 1
    return count


def literal_topologies(n: int) -> list[tuple]:
    """The open families of every topology on n points, in the order of
    their characteristic bitmask over P(X): each of the 2**(2**n)
    families holding the empty and the whole set, kept when every two
    members have their union and intersection in it."""
    count = 1 << n
    top_bit = 1 << (count - 1)
    found = []
    for fam_bits in range(1 << count):
        if not fam_bits & 1 or not fam_bits & top_bit:
            continue
        members = [m for m in range(count) if fam_bits >> m & 1]
        if all(
            fam_bits >> (a | b) & 1 and fam_bits >> (a & b) & 1
            for i, a in enumerate(members) for b in members[i + 1:]
        ):
            found.append(tuple(members))
    return found


def naive_interior(top, a: int) -> int:
    out = 0
    for u in top.opens:
        if u & ~a == 0:
            out |= u
    return out


def naive_is_monotone(op) -> bool:
    size = 1 << op.topology.n
    for x in range(size):
        for y in range(size):
            if x & ~y == 0 and op.table[x] & ~op.table[y]:
                return False
    return True


def naive_pair_interior(p, a: int) -> int:
    """Pointwise rule: keep x when some selector-open set around it has
    its enlargement inside a."""
    from topolab.ops import op_open_family

    fam = op_open_family(p.selector)
    enl = p.enlarger.table
    out = 0
    for x in range(p.topology.n):
        if any(u >> x & 1 and enl[u] & ~a == 0 for u in fam):
            out |= 1 << x
    return out


def pointwise_pair_closure(p, a: int) -> int:
    """Pointwise rule, point by point: keep x when every selector-open
    set around it has an enlargement meeting a."""
    from topolab.ops import op_open_family

    fam = op_open_family(p.selector)
    enl = p.enlarger.table
    out = 0
    for x in range(p.topology.n):
        if all(enl[u] & a for u in fam if u >> x & 1):
            out |= 1 << x
    return out


def literal_structure(p) -> tuple[bool, bool, bool, bool, bool]:
    """The five structure flags straight from their wording, in
    StructureReport field order: pairwise closure scans for the family,
    the pointwise closure, and additivity over every pair of subsets."""
    top = p.topology
    full = top.full
    subs = range(1 << top.n)
    fam = {a for a in subs if a & ~naive_pair_interior(p, a) == 0}
    cl = [pointwise_pair_closure(p, a) for a in subs]
    supra = full in fam and 0 in fam and pairwise_union_closed(fam)
    topo = supra and pairwise_intersection_closed(fam)
    subset_ok = all(((full ^ k) in fam) == (cl[k] & ~k == 0) for k in subs)
    equal_ok = all(((full ^ k) in fam) == (cl[k] == k) for k in subs)
    kur = cl[0] == 0 and all(
        a & ~cl[a] == 0 and cl[cl[a]] == cl[a] and all(cl[a | b] == cl[a] | cl[b] for b in subs)
        for a in subs
    )
    return supra, topo, subset_ok, equal_ok, kur


def literal_is_filterbase(family) -> bool:
    members = tuple(family)
    if not members or any(m == 0 for m in members):
        return False
    for b1, b2 in itertools.product(members, repeat=2):
        meet = b1 & b2
        if not any(b3 & ~meet == 0 for b3 in members):
            return False
    return True


def literal_is_regular_wrt(op, family) -> bool:
    """Regularity read literally: any two family members around a point
    admit a third around it whose image squeezes under the meet of
    theirs."""
    table = op.table
    for x in range(op.topology.n):
        local = [u for u in family if u >> x & 1]
        for u in local:
            for v in local:
                target = table[u] & table[v]
                if not any(table[w] & ~target == 0 for w in local):
                    return False
    return True


def literal_is_t2(p) -> bool:
    """Separation read literally: every two distinct points sit in
    selector-open sets with disjoint enlargements."""
    from topolab.ops import op_open_family

    fam = op_open_family(p.selector)
    enl = p.enlarger.table
    n = p.topology.n
    for x in range(n):
        for y in range(x + 1, n):
            if not any(
                enl[u] & enl[v] == 0
                for u in fam if u >> x & 1
                for v in fam if v >> y & 1
            ):
                return False
    return True


def literal_finer_convergent(f, p, point: int):
    """The refinement construction read literally: cut every enlarged
    selector-open set around ``point`` with every member of ``f`` and
    return the core of the filter the cuts generate, or None when they
    fail the quadratic directedness test.  The preconditions are left to
    the caller."""
    from topolab.ops import op_open_family

    enl = p.enlarger.table
    free = p.topology.full ^ f.core
    members = [f.core | extra for extra in submasks_desc(free)]
    base = {enl[u] & m for u in op_open_family(p.selector) if u >> point & 1 for m in members}
    # smallest members first, so a directed base answers each pair at once
    if not literal_is_filterbase(sorted(base, key=int.bit_count)):
        return None
    return functools.reduce(operator.and_, base)


def all_families_of_nonempty(n: int):
    """Every family of nonempty subsets of an n-point carrier, the empty
    family included; only feasible for tiny n."""
    nonempty = list(range(1, 1 << n))
    for sel in range(1 << len(nonempty)):
        yield tuple(nonempty[i] for i in range(len(nonempty)) if sel >> i & 1)


def is_antichain(members) -> bool:
    """No member sits inside another, checked pair by pair."""
    for i, a in enumerate(members):
        for b in members[i + 1:]:
            if a & ~b == 0 or b & ~a == 0:
                return False
    return True


@functools.lru_cache(maxsize=None)
def antichain_families(n: int) -> tuple:
    """All antichains of nonempty subsets, the empty family included.

    Any family of nonempty sets is interchangeable with the antichain of
    its minimal members in the closure/meet statements (closures and
    meets are monotone), so these are the complete family universe.
    Practical up to n = 4.
    """
    if n > 4:
        raise ValueError("exhaustive antichain enumeration is capped at n = 4")
    return tuple(fam for fam in all_families_of_nonempty(n) if is_antichain(fam))


def sampled_families(n: int, seed: int, count: int) -> tuple:
    """Seeded random families of nonempty subsets, for carriers too big
    to sweep; deterministic in (n, seed, count)."""
    rng = random.Random(seed)
    out = [()]
    for _ in range(count):
        size = rng.randrange(1, 5)
        out.append(tuple(sorted({rng.randrange(1, 1 << n) for _ in range(size)})))
    return tuple(out)


def seeded_subfamily(members, seed, cap: int = 10) -> tuple:
    """At most ``cap`` members of ``members``, drawn with a fixed seed."""
    members = sorted(members)
    if len(members) <= cap:
        return tuple(members)
    return tuple(sorted(random.Random(seed).sample(members, cap)))


def literal_fip_and_gap(cl, families, a: int, full: int) -> tuple[bool, bool]:
    """The two closure/meet statements quantified over ``families``
    directly from their wording, with no derived tables."""
    gap = True
    fip = True
    for fam in families:
        meet_cl = full
        for f in fam:
            meet_cl &= cl[f]
        subfamilies = list(itertools.chain.from_iterable(
            itertools.combinations(fam, r) for r in range(len(fam) + 1)
        ))
        def inter(sub):
            out = full
            for f in sub:
                out &= f
            return out
        if a & meet_cl == 0 and not any(a & inter(sub) == 0 for sub in subfamilies):
            gap = False
        if all(a & inter(sub) for sub in subfamilies) and a & meet_cl == 0:
            fip = False
    return fip, gap


def pairwise_union_closed(family) -> bool:
    """Every union of two members is a member, checked pair by pair."""
    members = set(family)
    return all(a | b in members for a in members for b in members)


def pairwise_intersection_closed(family) -> bool:
    """Every intersection of two members is a member, checked pair by pair."""
    members = set(family)
    return all(a & b in members for a in members for b in members)


def pairwise_fixpoint(seed, *combines) -> tuple:
    """Close ``seed`` under the binary maps ``combines`` (``operator.or_``,
    ``operator.and_``) by adding every pairwise image until nothing new
    appears; the result sorted ascending."""
    acc = set(seed)
    while True:
        new = {c(a, b) for a in acc for b in acc for c in combines} - acc
        if not new:
            return tuple(sorted(acc))
        acc |= new


def pairwise_fixpoint_topology(n: int, subbasis) -> tuple:
    """Open sets of the smallest topology containing ``subbasis``: the
    subbasis with the empty and full sets, closed under pairwise unions
    and intersections."""
    return pairwise_fixpoint({0, (1 << n) - 1, *subbasis}, operator.or_, operator.and_)


def subfamily_fip_and_gap(members, a: int, full: int, images=None) -> tuple[bool, bool]:
    """FIP and gap statements for the subfamilies of one fixed family,
    scanned literally over subfamily tables.

    fip: every subfamily whose finite parts' image meets all meet ``a``
         meets ``a`` too.
    gap: every subfamily missing ``a`` has a finite part whose image
         meet misses it.

    ``images`` holds one set per member and defaults to the members
    themselves; with the dual enlargements of the selector-closed sets
    these are the closed-family statements of the filter compactness
    record.
    """
    plain = intersection_dp(list(members), full)
    dp = plain if images is None else intersection_dp(list(images), full)
    fip = True
    gap = True
    for sel in range(1 << len(members)):
        if a & plain[sel]:
            continue  # gap hypothesis idle, fip conclusion already holds
        if not any(a & dp[sub] == 0 for sub in submasks_desc(sel)):
            gap = False
        if all(a & dp[sub] for sub in submasks_desc(sel)):
            fip = False
    return fip, gap


def meeting_bases_accumulate(cl, a: int, n: int) -> bool:
    """Every nonempty core meeting ``a`` has a point of ``a`` in its
    ``cl`` image, scanned over all 2**n cores."""
    return all(
        any(cl[core] >> x & 1 for x in range(n) if a >> x & 1)
        for core in range(1, 1 << n)
        if core & a
    )


def base_gap_has_disjoint_member(cl, a: int, n: int) -> bool:
    """Every nonempty core whose ``cl`` image misses ``a`` misses ``a``
    itself, scanned over all 2**n cores."""
    return all(
        core & a == 0
        for core in range(1, 1 << n)
        if a & cl[core] == 0
    )


def inner_bases_accumulate(cl, a: int) -> bool:
    """Every nonempty core inside ``a`` has its ``cl`` image meeting
    ``a``, scanned over all submasks."""
    return all(cl[core] & a for core in submasks_desc(a) if core)


@functools.lru_cache(maxsize=64)
def subfamily_filterbases(members: tuple) -> tuple:
    """Every subfamily of ``members`` that is a filterbase."""
    subfamilies = (
        [members[i] for i in range(len(members)) if sel >> i & 1]
        for sel in range(1, 1 << len(members))
    )
    return tuple(base for base in subfamilies if literal_is_filterbase(base))


def subfamily_bases_accumulate(members, cl, a: int) -> bool:
    """Every subfamily of ``members`` that is a filterbase and meets
    ``a`` (each member does) has a point of ``a`` in the ``cl`` image of
    every member; the literal scan over all 2**k subfamilies."""
    for base in subfamily_filterbases(tuple(members)):
        if any(m & a == 0 for m in base):
            continue
        if not any(all(cl[m] >> x & 1 for m in base) for x in range(a.bit_length()) if a >> x & 1):
            return False
    return True


def maximal_bases_converge(p, a: int) -> bool:
    """Every maximal filter inside ``a`` converges to some point of
    ``a``, read literally off the library's maximal filters (the
    singleton filters) and its convergence test."""
    from topolab.filters import converges, maximal_filters

    points = [y for y in range(p.topology.n) if a >> y & 1]
    return all(
        any(converges(f, p, y) for y in points)
        for f in maximal_filters(p.topology)
        if f.core & ~a == 0
    )


def scan_limit_set(base, p) -> int:
    """Limit set of a family of members, one pass over the selector-open
    family: a selector-open set whose enlargement holds no member puts
    its points outside."""
    from topolab.ops import op_open_family

    enl = p.enlarger.table
    outside = 0
    for u in op_open_family(p.selector):
        if not any(m & ~enl[u] == 0 for m in base):
            outside |= u
    return p.topology.full ^ outside


def family_converges(core: int, p, point: int, family) -> bool:
    """The principal filter at ``core`` converges to ``point`` with the
    neighbourhoods drawn from ``family``: every member around the point
    has an enlargement holding the core."""
    enl = p.enlarger.table
    return all(core & ~enl[u] == 0 for u in family if u >> point & 1)


def family_accumulates(core: int, p, point: int, family) -> bool:
    """The principal filter at ``core`` accumulates at ``point`` with
    the neighbourhoods drawn from ``family``: every member around the
    point has an enlargement meeting the core."""
    enl = p.enlarger.table
    return all(enl[u] & core for u in family if u >> point & 1)


def submask_convergence_closure(p, a: int) -> int:
    """Points some filter containing ``a`` converges to: every nonempty
    core inside ``a``, submask by submask, against every point's
    enlarged selector-open neighbourhoods."""
    from topolab.ops import op_open_family

    fam = op_open_family(p.selector)
    enl = p.enlarger.table
    cores = [c for c in submasks_desc(a) if c]
    out = 0
    for x in range(p.topology.n):
        images = [enl[u] for u in fam if u >> x & 1]
        if any(all(c & ~t == 0 for t in images) for c in cores):
            out |= 1 << x
    return out


def pairwise_additive_hypothesis(p) -> bool:
    """A monotone selector, and enl[u | v] == enl[u] | enl[v] over every
    pair of selector-open sets."""
    from topolab.ops import op_open_family

    fam = op_open_family(p.selector)
    enl = p.enlarger.table
    return naive_is_monotone(p.selector) and all(
        enl[u | v] == enl[u] | enl[v] for u in fam for v in fam
    )


def scan_image_stable(p) -> bool:
    """Every enlarged selector-open set is selector-open and its own
    enlargement does not grow it, over every selector-open set."""
    from topolab.ops import op_open_family

    fam = set(op_open_family(p.selector))
    enl = p.enlarger.table
    return all(enl[u] in fam and enl[enl[u]] & ~enl[u] == 0 for u in fam)


def scan_above_identity(p) -> bool:
    """Every subset sits inside its enlargement, over all 2**n subsets."""
    return all(a & ~image == 0 for a, image in enumerate(p.enlarger.table))


def scan_open_family(op) -> tuple:
    """Every subset inside its own image, one subset at a time."""
    return tuple(a for a in range(1 << op.topology.n) if a & ~op.table[a] == 0)


def scan_envelope(p, point: int) -> int:
    """The meet of the enlargements of the selector-open sets around
    ``point``, one selector-open set at a time."""
    enl = p.enlarger.table
    out = p.topology.full
    for u in scan_open_family(p.selector):
        if u >> point & 1:
            out &= enl[u]
    return out


def scan_base_flags(p) -> tuple[bool, bool, bool, bool]:
    """(family_nested, base_pair_open, base_in_pair_and_selector, is_base)
    read off their wording: the selector-open family inside the
    enlarger-open one, the enlargement base against the pair-open family
    of the pointwise interior rule, and every pair-open set in the
    pairwise union closure of the base."""
    n = p.topology.n
    sel_open = set(scan_open_family(p.selector))
    enl = p.enlarger.table
    base = {enl[u] for u in sel_open}
    pair_open = {a for a in range(1 << n) if a & ~naive_pair_interior(p, a) == 0}
    nested = sel_open <= set(scan_open_family(p.enlarger))
    base_pair_open = base <= pair_open
    in_both = base_pair_open and base <= sel_open
    is_base = pair_open <= set(pairwise_fixpoint({0, *base}, operator.or_))
    return nested, base_pair_open, in_both, is_base


def per_core_filter_records(ctx, a: str, b: str, rows, mask_str) -> list[tuple]:
    """The filters suite's per-core statements for the named pair (a, b),
    one core and one point at a time: the loops the suite ran before its
    rows were indexed by core position.  Records are (pair, statement,
    subject, witness) in the suite's order.  The limit and adherence rows
    come from ``rows(pair)`` (core -> set); the neighbourhoods, the
    enlarged neighbourhoods, the envelopes, separation, the pair closure
    and the refinement construction are read literally."""
    from topolab import Filter
    from topolab.harness import _PairRun
    from topolab.ops import leq

    p = ctx.pairs[(a, b)]
    n, full = ctx.n, ctx.full
    fam = scan_open_family(p.selector)
    enl = p.enlarger.table
    regular = _PairRun(ctx, a, b).regular  # gated reads None
    lim, adh = rows(p)
    env = [scan_envelope(p, x) for x in range(n)]
    cores = ctx.universe.core_list
    out = []

    def fail(subject: str, statement: str, witness: str = "") -> None:
        out.append((f"{a},{b}", statement, subject, witness))

    if ctx.monotone[b] and (1 << n) * max(len(fam), 1) <= 10**7:
        around = [{enl[m] for m in literal_neighborhoods(n, fam, x)} for x in range(n)]
        for core in cores:
            for x in range(n):
                if bool(lim[core] >> x & 1) != all(core & ~t == 0 for t in around[x]) or \
                   bool(adh[core] >> x & 1) != all(t & core for t in around[x]):
                    fail(mask_str(core), "neighbourhood variant agrees", str(x))
                    break

    for core in cores:
        if lim[core] & ~adh[core]:
            fail(mask_str(core), "limits are adherent")
        for x in range(n):
            if bool(lim[core] >> x & 1) != family_converges(core, p, x, fam):
                fail(mask_str(core), "convergence is enlarged-members containment", str(x))
                break

    for core in cores:
        literal = 0
        if n <= 4:
            for c2 in submasks_desc(core):
                if c2:
                    literal |= lim[c2]
        for x in range(n):
            acc = bool(adh[core] >> x & 1)
            finer = bool(core & env[x])
            if n <= 4 and bool(literal >> x & 1) != finer:
                fail(mask_str(core), "singleton cores decide finer convergence", str(x))
            if finer and not acc:
                fail(mask_str(core), "convergent refinements accumulate", str(x))
            if regular:
                if acc != finer:
                    fail(mask_str(core), "regular: accumulation iff finer convergence", str(x))
                if acc:
                    g = literal_finer_convergent(Filter(n, core), p, x)
                    if g is None or g & ~core or not family_converges(g, p, x, fam):
                        fail(mask_str(core), "refinement construction converges", str(x))

    if literal_is_t2(p):
        for core in cores:
            if lim[core] and (adh[core] != lim[core] or lim[core].bit_count() > 1):
                fail(mask_str(core), "separated pairs give unique limits")

    for s in ctx.universe.subsets:
        pc = pointwise_pair_closure(p, s)
        if n <= 4:
            within = [c for c in submasks_desc(s) if c]
        else:
            within = sorted({s, *(1 << i for i in range(n) if s >> i & 1)} - {0})
        acc_exists = conv_exists = 0
        for c in within:
            acc_exists |= adh[c]
            conv_exists |= lim[c]
        for x in range(n):
            if acc_exists >> x & 1 and not pc >> x & 1:
                fail(mask_str(s), "accumulating filters land in the closure", str(x))
            if regular and (pc ^ conv_exists) >> x & 1:
                fail(mask_str(s), "regular: closure points are filter limits", str(x))
        if regular and (pc & ~s == 0) != (conv_exists & ~s == 0):
            fail(mask_str(s), "regular: closed iff limits stay inside")

    for c, d in ctx.pair_names:
        if not (set(ctx.open_sets[c]) <= set(ctx.open_sets[a]) and leq(ctx.ops[b], ctx.ops[d])):
            continue
        wide_lim, wide_adh = rows(ctx.pairs[(c, d)])
        for core in cores:
            if lim[core] & ~wide_lim[core] or adh[core] & ~wide_adh[core]:
                fail(f"{c},{d}", "transfer to a wider pair", mask_str(core))
                break
    return out


def per_name_pair_records(ctx, statement: str, rows) -> tuple[int, list[tuple]]:
    """The instances and records of one statement over pairs of requested
    names, one name pair at a time: the loops the families and
    compactness suites ran before they compared one pair per kernel.
    Records are (pair, statement, subject, witness) in the suites' order.
    Partners (same selector, enlargers agreeing on the selector-open
    family) and wider pairs (smaller selector-open family, enlarger
    above) are read off the tables; ``rows`` is ``pair_open_plane`` for
    the families statement and ``failing_plane`` for the others."""
    from topolab.ops import leq

    names = ctx.pair_names
    quantified = sum(1 << s for s in ctx.universe.subsets)
    count, out = 0, []

    def first(plane: int) -> str:
        return ctx.top.ground.braced((plane & -plane).bit_length() - 1)

    for a, b in names:
        p = ctx.pairs[(a, b)]
        if statement == "compact sets transfer to wider pairs":
            for c, d in names:
                if set(ctx.open_sets[c]) <= set(ctx.open_sets[a]) and leq(ctx.ops[b], ctx.ops[d]):
                    count += 1
                    strict = rows(ctx.pairs[(c, d)]) & ~rows(p) & quantified
                    if strict:
                        out.append((f"{a},{b}", statement, f"{c},{d}", first(strict)))
            continue
        enl = ctx.ops[b].table
        for s, d in names:
            if s != a or any(ctx.ops[d].table[u] != enl[u] for u in ctx.open_sets[a]):
                continue
            q = ctx.pairs[(a, d)]
            if statement == "agreeing enlargers induce one family":
                count += 1
                if rows(p) != rows(q):
                    out.append((f"{a},{b}", statement, f"{a},{d}", ""))
            elif d != b:
                count += 1
                diff = quantified & ((rows(p) ^ rows(q)) | (rows(p, "pair_open") ^ rows(q, "pair_open")))
                if diff:
                    out.append((f"{a},{b}", statement, f"{a},{d}", first(diff)))
    return count, out


def literal_table_violation(top, table, inner) -> tuple | None:
    """The operation laws walked entry by entry, against the interior
    table ``inner``: the first violated law as (condition, witness
    mask), else None.  This is the walk every table went through before
    the lane test, and still the one that names a rejected table's
    witness."""
    count = 1 << top.n
    if len(table) != count:
        return (f"table has {len(table)} entries, expected {count}", 0)
    if table[0] != 0:
        return ("the empty set must map to the empty set", 0)
    full = top.full
    for a in range(count):
        if table[a] & ~full:
            return ("image uses bits outside the ground set", a)
        if inner[a] & ~table[a]:
            return ("image must contain the interior of the argument", a)
    return None


def literal_family_violation(ground, family) -> str | None:
    """Why ``family`` fails the topology axioms, with the smallest
    missing union (then intersection) found by pairwise fixpoints: the
    verdict and message ``family_violation`` gave before its Alexandroff
    acceptance."""
    full = ground.full
    for m in family:
        if m & ~full:
            return f"member {m:#x} uses bits outside the ground set"
    members = set(family)
    if 0 not in members:
        return "the empty set is missing"
    if full not in members:
        return "the whole space is missing"

    def braced(mask: int) -> str:
        return "{" + ",".join(lab for i, lab in enumerate(ground.labels) if mask >> i & 1) + "}"

    unions = set(pairwise_fixpoint(members, operator.or_)) - members
    if unions:
        return f"not closed under union: {braced(min(unions))} is a union of members but is missing"
    meets = set(pairwise_fixpoint(members, operator.and_)) - members
    if meets:
        return (
            f"not closed under intersection: {braced(min(meets))} "
            "is an intersection of members but is missing"
        )
    return None


def scan_within(table) -> tuple:
    """Every a inside ``table[a]``, one entry at a time."""
    return tuple(a for a, image in enumerate(table) if a & ~image == 0)


def literal_pair_closure_by_points(p, sets) -> list[int]:
    """The pair-closure of each set by the pointwise rule: a point falls
    outside when some selector-open set u around it has an enlargement
    missing the set.  The pairs (u, enl[u]) are walked here, once, into
    the union of the u per distinct enlargement, and each set is read
    against those unions: the loop ``pair_closure_by_points`` ran before
    its planes, with no row of the library's kernel."""
    enl, full = p.enlarger.table, p.topology.full
    groups: dict = {}
    for u in p.kernel.family:
        groups[enl[u]] = groups.get(enl[u], 0) | u
    out = []
    for a in sets:
        outside = 0
        for t, union in groups.items():
            if not t & a:
                outside |= union
        out.append(full ^ outside)
    return out


def literal_base_adherence(base, p) -> int:
    """The points a family of members accumulates at: the AND of the
    members' pair-closures, each by the pointwise rule."""
    out = p.topology.full
    for m in base:
        out &= pointwise_pair_closure(p, m)
    return out


def literal_named_family(top, name: str, inner) -> tuple:
    """A named family by its defining rule read one subset at a time,
    against the interior table ``inner``: the witness families
    (tau_theta and the semi-theta families) ask, point by point, for a
    neighbourhood of the right kind whose measure fits inside."""
    full = top.full
    subs = range(1 << top.n)

    def cl(a):
        return full ^ inner[full ^ a]

    def compl(fam):
        return tuple(sorted(full ^ a for a in fam))

    def by_points(nbhds, measure):
        return tuple(
            a for a in subs
            if all(any(u >> x & 1 and measure(u) & ~a == 0 for u in nbhds) for x in range(top.n) if a >> x & 1)
        )

    so = tuple(a for a in subs if a & ~cl(inner[a]) == 0)
    po = tuple(a for a in subs if a & ~inner[cl(a)] == 0)
    ro = tuple(a for a in subs if a == inner[cl(a)])
    rules = {
        "SO": lambda: so,
        "SC": lambda: compl(so),
        "PO": lambda: po,
        "PC": lambda: compl(po),
        "RO": lambda: ro,
        "RC": lambda: tuple(a for a in subs if a == cl(inner[a])),
        "SR": lambda: tuple(sorted(set(so) & set(compl(so)))),
        "tau_theta": lambda: by_points(top.opens, cl),
        "tau_s": lambda: pairwise_fixpoint_topology(top.n, ro),
        "SthetaO": lambda: by_points(so, lambda u: u | inner[cl(u)]),
        "SthetaC": lambda: compl(by_points(so, lambda u: u | inner[cl(u)])),
        "thetaSO": lambda: by_points(so, cl),
        "thetaSC": lambda: compl(by_points(so, cl)),
    }
    return rules[name]()


def catalog_kernels(top) -> list:
    """The distinct pair kernels of the 49 catalog pairs on ``top``."""
    return list({id(p.kernel): p.kernel for p in catalog_pairs(top)}.values())


def member_walk_interior(k, a: int) -> int:
    """The pair-interior of ``a`` for a kernel, walking the selector-open
    family: the union of the members u whose enlargement sits inside a."""
    enl = k.enlarger.table
    out = 0
    for u in k.family:
        if enl[u] & ~a == 0:
            out |= u
    return out


def member_walk_base(k) -> tuple:
    """The enlargement base of a kernel: the distinct images of the
    selector-open sets, sorted."""
    enl = k.enlarger.table
    return tuple(sorted({enl[u] for u in k.family}))


def member_walk_nested(k) -> bool:
    """Every selector-open set sits inside its enlargement."""
    enl = k.enlarger.table
    return all(u & ~enl[u] == 0 for u in k.family)


def member_walk_image_stable(k) -> bool:
    """Every enlarged selector-open set is selector-open and its own
    enlargement does not grow it, one selector-open set at a time."""
    fam, enl = set(k.family), k.enlarger.table
    return all(enl[u] in fam and enl[enl[u]] & ~enl[u] == 0 for u in k.family)


def member_walk_nbhd_base(k, point: int, variant: str):
    """The neighbourhood filterbase at ``point`` walking the selector-open
    family, its preconditions left to the caller: the members around the
    point (plain) or their distinct enlargements (enlarged).  The meet is
    folded over the base's members, and the filter it generates is asked
    to sit inside the enlargement of each member around the point.
    Returns the base, or the message of the RuntimeError the library
    raises."""
    enl = k.enlarger.table
    around = [u for u in k.family if u >> point & 1]
    base = sorted(set(around) if variant == "plain" else {enl[u] for u in around})
    meet = functools.reduce(operator.and_, base, k.topology.full)
    if not base or 0 in base or meet not in base:
        return "neighbourhood base failed the filterbase laws"
    if any(meet & ~enl[u] for u in around):
        return "neighbourhood base failed to converge at its point"
    return tuple(base)


def trial_minimal_cover(members, a: int) -> tuple:
    """A cover of ``a`` no proper subfamily of which covers it, pruned
    from the highest mask down by trying each removal on a copy of the
    kept list: the quadratic routine ``compact._minimal_cover`` replaced."""
    def covers(family) -> bool:
        union = 0
        for u in family:
            union |= u
        return a & ~union == 0

    kept = sorted(members)
    for i in range(len(kept) - 1, -1, -1):
        trial = kept[:i] + kept[i + 1:]
        if covers(trial):
            kept = trial
    return tuple(kept)


# The last three are not independent routes: they read the library's own
# batched rows one set or one target at a time, so the tests can compare
# them with the scans above.


def base_limit_sets(p, bases, has=None) -> list[int]:
    """The limit set of each base: the limit rows of
    :func:`topolab.filters.base_rows` transposed."""
    from topolab.filters import base_rows, point_rows

    return point_rows(base_rows(p, bases, has)[0], len(bases))


def base_adherence_sets(p, bases, has=None) -> list[int]:
    """The adherence set of each base: the adherence rows of
    :func:`topolab.filters.base_rows` transposed."""
    from topolab.filters import base_rows, point_rows

    return point_rows(base_rows(p, bases, has)[1], len(bases))


def brute_force_compact_all(cs, targets) -> tuple[bool, ...]:
    """The literal verdict for every target in one cover system:
    :func:`topolab.compact.brute_force_compact_images` on the enlarger's
    images, read only once the ambient family has passed the cap."""
    from topolab.compact import brute_force_compact_images

    enl = cs.enlarger.table
    row = ([enl[u] for u in cs.ambient] for _ in range(1))
    return brute_force_compact_images(cs.ambient, row, targets)[0]


def family_universe(n: int) -> tuple:
    """Every antichain of nonempty sets up to 4 points; above that every
    singleton family plus seeded samples."""
    if n <= 4:
        return antichain_families(n)
    return tuple((1 << y,) for y in range(n)) + sampled_families(n, seed=n, count=64)


def meet(sets, full: int) -> int:
    out = full
    for m in sets:
        out &= m
    return out


def closed_refuter(closed, dual, s: int, full: int):
    """Some y in s whose S_y = {f : y in dual(f)} refutes the closed pair:
    its meet misses s while every finite part's dual meet holds y."""
    for y in range(full.bit_length()):
        sy = [f for f in closed if dual[f] >> y & 1]
        if s >> y & 1 and s & meet(sy, full) == 0 and meet((dual[f] for f in sy), full) >> y & 1:
            return y
    return None


def custom_pairs(seed: int, count: int) -> list:
    """Seeded pairs on 1-5 points whose members are custom tables
    int(a) | random bits (most of them not monotone) or catalog
    operations, as the CLI's ``custom:`` operations allow."""
    from topolab import BUILTIN_NAMES, Operation, OpPair, catalog, random_topology

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


def special_pairs() -> list:
    """Hand-built pairs that refute a tempting shortcut: on the discrete
    3-point space a selector that is not monotone though its enlarger is
    additive over its open sets; on the indiscrete 3-point space the
    selector A -> A for |A| >= 2 (empty otherwise) and the enlarger
    {a,b} -> {a}, {b,c} -> {b}, {a,c} -> {c} (identity elsewhere), where
    enl[u] is the OR of enl[j] over the union-irreducible j inside every
    selector-open u, yet enl[{a,b} | {b,c}] is X: the zeta form of the
    additivity scan reads True there."""
    from topolab import Operation, OpPair, catalog, discrete, indiscrete

    top = discrete(3)
    table = list(top.subsets())
    table[0b001] = 0b011
    out = [OpPair(Operation(top, table), catalog(top)["identity"])]
    top = indiscrete(3)
    select = [a if a.bit_count() >= 2 else 0 for a in top.subsets()]
    enlarge = list(top.subsets())
    enlarge[0b011], enlarge[0b110], enlarge[0b101] = 0b001, 0b010, 0b100
    return out + [OpPair(Operation(top, select, "pairs"), Operation(top, enlarge, "shrink"))]


def blunt3():
    """Opens {}, {a,b}, X: the pre-open sets are everything but {c}, and
    the identity enlarger is not regular over them."""
    from topolab import Topology, default_ground

    return Topology(default_ground(3), (0, 0b011, 0b111))


def catalog_pairs(top) -> list:
    """The 49 catalog pairs of ``top``, selector-major."""
    from topolab import OpPair, catalog

    ops = list(catalog(top).values())
    return [OpPair(sel, enl) for sel in ops for enl in ops]


def lane_test_spaces(seed: int) -> list:
    """Every space of at most 4 points, then one seeded space of each size
    from 5 to 16, built afresh so that no memo is shared with a caller."""
    from topolab import enumerate_topologies

    return [top for n in range(5) for top in enumerate_topologies(n)] + list(seeded_spaces(seed, UP16))


def lawful_tables(top, rng) -> list:
    """The catalog tables, their duals up to 8 points, and two seeded
    lawful tables: the interior with seeded extra points, and the whole
    space on the nonempty sets."""
    from topolab import catalog, dual_table

    full = top.full
    tables = [op.table for op in catalog(top).values()]
    if top.n <= 8:
        tables += [dual_table(op) for op in catalog(top).values()]
    grown = [i | rng.randrange(1 << top.n) for i in top.int_table()]
    grown[0] = 0
    tables += [tuple(grown), tuple(full if a else 0 for a in top.subsets())]
    return tables


def corrupted(table, top, rng) -> list:
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


def verdict(route, *args):
    """``route(*args)``, ValueError if it refuses, or its RuntimeError's message."""
    try:
        return route(*args)
    except ValueError:
        return ValueError
    except RuntimeError as err:
        return str(err)


# ---------------------------------------------------------------------------
# The differential table: each row of ROUTES pairs a fast route of the
# library with a literal route over a named universe of cases.  A row's
# own universe is built when the row runs; one that several rows read is
# kept from the first of them to the last.  The spaces of at most 4
# points are one list for all; the seeded spaces, and the subsets, cores,
# points and bases drawn on them, replay the generators of the checks the
# rows replaced, draw for draw.  A row that reads only a pair's kernel
# runs on one pair per kernel, as the pairs sharing it read the same
# memoized rows.  Each row is run by one test, ``route_check`` under the
# name of a check it replaced; tests/mutants.py names the rows that must
# catch each seeded fault.


class Route(NamedTuple):
    """A fast and a literal route, each a function of one case; cases on
    spaces of more than ``max_n`` points are left out.  ``seen``, if given,
    must hold of the (case, literal result) pairs, so that a universe that
    turned degenerate cannot make the routes agree trivially."""

    name: str
    fast: Callable
    literal: Callable
    universe: str
    max_n: int = 16
    seen: Callable | None = None


class Case(NamedTuple):
    """A pair (or a space) with what its rows read: ``sets``, every subset
    up to 8 points, else the ends; ``picks``, every subset up to 4 points,
    else the ends; ``points``, every point; ``bases``, the empty family and
    every filterbase up to 3 points, with their member table ``has``.  A
    seeded space reads, in their place, what the check its row replaced
    drew for it (:func:`_replay`)."""

    p: object
    sets: tuple
    picks: tuple
    points: tuple
    bases: tuple
    has: tuple

    @property
    def top(self):
        return getattr(self.p, "topology", self.p)

    def __repr__(self) -> str:
        return f"{getattr(self.p, 'name', 'space')} on {self.top!r}"


def seeded_spaces(seed: int, sizes: tuple, density: int = 0) -> tuple:
    """``random_topology(n, draw, density or n)`` per n in ``sizes``, the
    draws from one ``random.Random(seed)``."""
    from topolab import random_topology

    rng = random.Random(seed)
    return tuple(random_topology(n, rng.randrange(10**6), density or n) for n in sizes)


@functools.lru_cache(maxsize=None)
def exhaustive_spaces(max_n: int) -> tuple:
    from topolab import enumerate_topologies

    return tuple(top for n in range(max_n + 1) for top in enumerate_topologies(n))


def _with_bases(bases: list, n: int) -> dict:
    from topolab.filters import member_table

    return {"bases": tuple(bases), "has": tuple(member_table(bases, n))}


def _case(top) -> Case:
    n, ends = top.n, (0, top.full)
    every = tuple(top.subsets())
    bases = [f for f in all_families_of_nonempty(n) if not f or literal_is_filterbase(f)] if n <= 3 else [()]
    return Case(top, every if n <= 8 else ends, every if n <= 4 else ends, tuple(range(n)), **_with_bases(bases, n))


def _pair_case(p) -> Case:
    return _case(p.topology)._replace(p=p)


def _cases(top, every_pair: bool) -> tuple:
    """A case per catalog pair of ``top``, or per kernel, with the first
    pair of it in catalog order."""
    case, firsts = _case(top), {}
    for p in catalog_pairs(top):
        firsts.setdefault(p if every_pair else id(p.kernel), p)
    return tuple(case._replace(p=p) for p in firsts.values())


def _replay(seed: int, sizes: tuple, draw=None, draws: int | None = None, density: int = 0, every_pair=False):
    """The cases of seeded spaces as the check a row replaced drew them:
    ``random_topology(n, r, density or n)`` per n in ``sizes``, r from one
    ``random.Random(seed)``, each space's cases reading the fields
    ``draw(rng, space)`` returns, drawn from the same generator right
    after the space, or in turn from ``random.Random(draws)``."""
    from topolab import random_topology

    rng = random.Random(seed)
    other = rng if draws is None else random.Random(draws)
    for n in sizes:
        top = random_topology(n, rng.randrange(10**6), density or n)
        fields = draw(other, top) if draw else {}
        yield from (c._replace(**fields) for c in _cases(top, every_pair))


def _subsets(count: int, low: int = 0):
    """A draw: the ends and ``count`` seeded sets from ``low`` up, as picks."""
    def draw(rng, top):
        return {"picks": tuple(sorted({0, top.full, *(rng.randrange(low, 1 << top.n) for _ in range(count))}))}
    return draw


def _sets(count: int, above: int = 0):
    """A draw: on more than ``above`` points, the ends and ``count`` seeded sets, as sets."""
    return lambda rng, top: {"sets": (0, top.full, *(rng.randrange(1 << top.n) for _ in range(count)))
                             } if top.n > above else {}


def _bases(count: int, low: int = 0):
    """A draw: the empty family, then ``count`` times a seeded filterbase
    around a core and a seeded family of members from ``low`` up."""
    def draw(rng, top):
        n, bases = top.n, [()]
        for _ in range(count):
            core = rng.randrange(1, 1 << n)
            bases.append(tuple(sorted({core, *(core | rng.randrange(1 << n) for _ in range(2))})))
            bases.append(tuple(rng.randrange(low, 1 << n) for _ in range(rng.randrange(1, 4))))
        return _with_bases(bases, n)
    return draw


def _kernels(max_n: int, *seeded, extra=tuple, every_pair: bool = False):
    """A case per kernel (or per catalog pair) of the spaces of at most
    ``max_n`` points, the cases ``_replay(*part)`` gives for each part of
    ``seeded``, then one per pair ``extra()`` lists."""
    def build():
        small = (c for t in exhaustive_spaces(max_n) for c in _cases(t, every_pair))
        return (*small, *(c for part in seeded for c in _replay(*part, every_pair=every_pair)),
                *map(_pair_case, extra()))
    return build


def _adherence_cases() -> list:
    """The adherence check's kernels: the spaces of at most 4 points and
    seeded 5-16-point ones, and from 4 points the bases it drew from the
    same generator after all its spaces."""
    from topolab import random_topology

    rng, draw = random.Random(113), _bases(4)
    tops = exhaustive_spaces(4) + tuple(random_topology(n, rng.randrange(10**6), n) for n in UP16)
    return [c._replace(**fields) for t in tops for fields in [draw(rng, t) if t.n >= 4 else {}]
            for c in _cases(t, False)]


def _nbhd_cases() -> list:
    """Kernels of seeded 8-, 12- and 16-point spaces at the ends and one
    point drawn per kernel, as the neighbourhood-base check drew them."""
    from topolab import random_topology

    rng, out = random.Random(311), []
    for n in (8, 12, 16):
        top = random_topology(n, rng.randrange(10**6), n)
        out += [c._replace(points=(0, rng.randrange(n), n - 1)) for c in _cases(top, False)]
    return out


def _table_cases(seed: int, corrupt: bool) -> list:
    """(space, lawful table, corrupted tables) over ``lane_test_spaces``."""
    rng = random.Random(seed)
    return [(top, table, corrupted(table, top, rng) if corrupt else ())
            for top in lane_test_spaces(seed) for table in lawful_tables(top, rng)]


def _cover_cases(seed: int, count: int) -> list:
    """(members, a): seeded families of 0-6 points, covers or not, drawn
    after the two spaces of the witness-cover universe."""
    rng = random.Random(seed)
    rng.randrange(10**6), rng.randrange(10**6)

    def draw(n):
        return [rng.randrange(1 << n) for _ in range(rng.randrange(12))], rng.randrange(1 << n)
    return [draw(rng.randrange(7)) for _ in range(count)]


def _grown_pairs(seed: int) -> list:
    """Per catalog selector up to 6 points, two enlargers growing the interior
    by seeded points: lawful, their meets often an image away from a point."""
    from topolab import Operation, OpPair, catalog

    rng = random.Random(seed)

    def grown(top):
        table = [i | rng.randrange(1 << top.n) for i in top.int_table()]
        return Operation(top, [0, *table[1:]])
    return [OpPair(sel, grown(top)) for top in lane_test_spaces(seed) if top.n <= 6
            for sel in catalog(top).values() for _ in range(2)]


def fixed_spaces(draws: tuple) -> tuple:
    """``random_topology(n, seed, n)`` for each (n, seed) of ``draws``."""
    from topolab import random_topology

    return tuple(random_topology(n, seed, n) for n, seed in draws)


def regularity_cases():
    """(space, families): every family holding the whole set up to 3 points;
    on seeded 4-7-point spaces open families of up to 48 and seeded ones."""
    from topolab import catalog, op_open_family, random_topology

    for top in exhaustive_spaces(3)[1:]:
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


def neighbourhood_cases() -> list:
    """(n, family): every operation-open family up to 3 points, then seeded
    families on 4-8 points, empty or without the whole set among them."""
    from topolab import catalog, op_open_family

    out = [(top.n, op_open_family(op)) for top in exhaustive_spaces(3)[1:] for op in catalog(top).values()]
    rng = random.Random(29)
    for n in range(4, 9):
        out.append((n, ()))
        for _ in range(4):
            out.append((n, tuple(sorted({rng.randrange(1 << n) for _ in range(rng.randrange(1, 9))}))))
    return out


def defined_tables(top) -> tuple:
    """The catalog's tables by definition: interior by scan, closure as its dual."""
    full = top.full
    inner = [naive_interior(top, a) for a in top.subsets()]
    cl = [full ^ inner[full ^ a] for a in top.subsets()]
    rules = (lambda a: a, inner.__getitem__, cl.__getitem__, lambda a: cl[inner[a]], lambda a: inner[cl[a]],
             lambda a: a | inner[cl[a]], lambda a: a & cl[inner[a]])
    return tuple(tuple(map(rule, top.subsets())) for rule in rules)


def _interior_spaces() -> list:
    """The spaces of at most 4 points, 30 seeded 5-point ones and one of each
    size from 6 to 16, read on the ends and 30 seeded subsets above 8."""
    from topolab import random_topology

    rng = random.Random(5)
    out = [_case(top) for top in exhaustive_spaces(4)]
    out += [_case(random_topology(5, rng.randrange(10**6), 4)) for _ in range(30)]
    for n in range(6, 17):
        top = random_topology(n, rng.randrange(10**6), n)
        picks = top.subsets() if n <= 8 else [0, top.full] + [rng.randrange(1 << n) for _ in range(30)]
        out.append(_case(top)._replace(sets=tuple(picks)))
    return out


def _order_cases() -> list:
    """Catalog pairs up to 3 points, then 40 pairs of seeded tables
    int(a) | random bits on 1-6 points, both ways and each with itself."""
    from topolab import Operation, catalog, random_topology

    out = [(a, b) for top in exhaustive_spaces(3)[1:] for a in catalog(top).values()
           for b in catalog(top).values()]
    rng = random.Random(53)
    for _ in range(40):
        n = rng.randrange(1, 7)
        top = random_topology(n, rng.randrange(10**6), n)
        a, b = (Operation(top, [i | (rng.getrandbits(n) & rng.getrandbits(n) if m else 0)
                                for m, i in enumerate(top.int_table())]) for _ in range(2))
        out += [(a, b), (b, a), (a, a)]
    return out


def _widened_operations() -> list:
    """The catalog on 20 seeded 4-point spaces, then on seeded 3-, 4- and
    9-point ones with its tables widened at one image, monotone or not."""
    from topolab import Operation, builtin, catalog, random_topology

    rng = random.Random(3)
    out = [op for top in [random_topology(4, rng.randrange(10**6), 3) for _ in range(20)]
           for op in catalog(top).values()]
    for n, trials in ((3, 40), (4, 40), (9, 3)):
        top = random_topology(n, rng.randrange(10**6), n)
        out += catalog(top).values()
        for _ in range(trials):
            table = list(builtin(top, rng.choice(tuple(catalog(top)))).table)
            table[rng.randrange(1, 1 << n)] |= rng.randrange(1 << n)
            out.append(Operation(top, table, "widened"))
    return out


def _partner_contexts() -> list:
    """Sweep contexts of the spaces of 1-3 points and seeded 4-, 6-, 8-point
    ones, the catalog pairs requested in order, reversed and every other."""
    from topolab.harness import CATALOG_PAIRS, SuiteConfig, _SpaceContext

    tops = exhaustive_spaces(3)[1:] + seeded_spaces(103, (4, 6, 8))
    return [_SpaceContext("s", top, SuiteConfig(pairs=pairs))
            for pairs in (CATALOG_PAIRS, CATALOG_PAIRS[::-1], CATALOG_PAIRS[::-2]) for top in tops]


def _scanned_partners(ctx) -> tuple:
    """The requested names, then per pair the names whose enlarger agrees
    with its own on the selector-open family, scanned name by name."""
    names, ops = ctx.pair_names, ctx.ops
    return names, {(a, b): [c for s, c in names if s == a and all(
        ops[b].table[u] == ops[c].table[u] for u in ctx.open_sets[a])] for a, b in names}


def _cover_systems(power_sets: bool) -> list:
    """Every family holding the whole set up to 2 points with each catalog
    enlarger, or the power sets of seeded 4-point spaces, one enlarger each."""
    from topolab import CoverSystem, catalog

    if power_sets:
        return [CoverSystem(tuple(t.subsets()), catalog(t)[e]) for t, e in zip(
            seeded_spaces(17, (4,) * 5, 3), ("sint", "introcl", "identity", "int", "cloint"))]
    return [CoverSystem(f, op) for top, fams in itertools.takewhile(lambda t: t[0].n <= 2, regularity_cases())
            for f in fams for op in catalog(top).values()]


def _lane_tables(seed: int) -> list:
    """(table, n): per n up to 10 and per top entry length of 1 to 72
    bits, a seeded table whose entries are zero, nonzero only above
    their low byte, or drawn whole, a third of each on average."""
    rng = random.Random(seed)
    return [(tuple(rng.getrandbits(bits) & rng.choice((0, ~255, -1)) for _ in range(1 << n)), n)
            for n in range(11) for bits in (1, 8, 9, 16, 17, 32, 33, 64, 65, 72)]


def every_family(max_n: int) -> list:
    """(n, family) for every family of subsets of n points, n up to ``max_n``."""
    return [(n, tuple(m for m in range(1 << n) if bits >> m & 1)) for n in range(max_n + 1)
            for bits in range(1 << (1 << n))]


def _drawn_families(seed: int, sizes, least: int) -> list:
    """(n, family): per n in ``sizes``, six seeded families of ``least`` to 6 drawn sets."""
    from topolab.bits import canonical_family

    rng = random.Random(seed)
    return [(n, canonical_family(rng.randrange(1 << n) for _ in range(rng.randrange(least, 7))))
            for n in sizes for _ in range(6)]


def _props_cases() -> list:
    """(space, family): every family up to 3 points on a space of its size,
    then per seeded 4-16-point space a drawn family, and the ends with four
    drawn opens, with the lattice they generate, their unions and their meets."""
    from topolab import random_topology
    from topolab.bits import canonical_family

    tops = [random_topology(n, 0, 1) for n in range(4)]
    out = [(tops[n], fam) for n, fam in every_family(3)]
    rng = random.Random(101)
    for n in range(4, 17):
        top = random_topology(n, rng.randrange(10**6), n)
        picks = [top.opens[rng.randrange(len(top.opens))] for _ in range(4)]
        drawn = [rng.randrange(1 << n) for _ in range(rng.randrange(1, 6))]
        lattice = pairwise_fixpoint(picks, operator.or_, operator.and_)
        out += [(top, canonical_family(f)) for f in (drawn, [0, top.full, *picks], [0, top.full, *lattice],
                                                      pairwise_fixpoint(picks, operator.or_),
                                                      pairwise_fixpoint(picks, operator.and_))]
    return out


def _memo_cases() -> list:
    """(space, families): per space of at most 3 points its opens and six seeded families."""
    from topolab.bits import canonical_family

    rng = random.Random(17)
    return [(top, [top.opens] + [canonical_family(rng.randrange(1 << top.n) for _ in range(rng.randrange(1, 5)))
                                 for _ in range(6)]) for top in exhaustive_spaces(3)]


def _subbases() -> list:
    """(n, subbasis): every family up to 3 points, then 200 seeded ones on 5-8 points."""
    rng = random.Random(29)
    return [*every_family(3), *((n, [rng.randrange(1 << n) for _ in range(rng.randrange(n + 1))])
                                for n in (rng.randrange(5, 9) for _ in range(200)))]


def _violation_cases(wide: bool) -> list:
    """(ground, families, the families whose literal verdicts they must get):
    every family up to 3 points, shuffled with a repeated member (the
    family's verdict) and with a member outside the ground set; or per
    seeded topology of 5-12 points its opens, less a member, with a drawn
    set, both, and with a second topology's opens."""
    from topolab import default_ground, random_topology

    rng, out = random.Random(97 if wide else 89), []
    if not wide:
        for n, fam in every_family(3):
            fam, outside = list(fam), [*fam, 1 << n]
            shuffled = fam + fam[:1]
            rng.shuffle(shuffled)
            out.append((default_ground(n), (fam, shuffled, outside), (fam, fam, outside)))
        return out
    for n in (n for n in range(5, 13) for _ in range(3)):
        opens = list(random_topology(n, rng.randrange(10**6), rng.randrange(2, 6)).opens)
        other = random_topology(n, rng.randrange(10**6), 2).opens
        dropped = opens[:]
        if len(dropped) > 2:
            del dropped[rng.randrange(1, len(dropped) - 1)]
        added = opens + [rng.randrange(1 << n)]
        fams = (opens, dropped, added, dropped + added[-1:], sorted(set(opens) | set(other)))
        out.append((default_ground(n), fams, fams))
    return out


UP16 = tuple(range(5, 17))
UP8 = (4, 5, 6, 7, 8)

#: name -> builder of the universe's cases, called once per session.
UNIVERSES = {
    "kernels+47": _kernels(4, (47, UP16)),
    "kernels+103": _kernels(4, (103, UP16)),
    "kernels+107": _kernels(4, (107, UP16, _sets(14, above=8), 107)),
    "kernels+109": _kernels(4, (109, UP16), extra=lambda: _grown_pairs(109)),
    "kernels+113": _adherence_cases,
    "kernels+307": _kernels(4, (307, (8, 12, 16), lambda rng, t: {"sets": (
        0, t.full, *(rng.getrandbits(t.n) for _ in range(16)))}), extra=lambda: custom_pairs(37, 80)),
    "kernels+311": lambda: (*_kernels(4)(), *_nbhd_cases()),
    "kernels+401": _kernels(4, (401, (6, 8))),
    "kernels+107x4": _kernels(4, (107, tuple(n for n in range(5, 11) for _ in range(4)))),
    "kernels3+23": _kernels(3, (23, (4, 5, 6), _subsets(4)), (23, (5,) * 8, None, None, 4)),
    "pairs3+23": _kernels(3, (23, (4, 5, 6), _subsets(4)), every_pair=True),
    "kernels3+29": _kernels(3, (29, (4, 5, 6), _bases(12, low=1))),
    "kernels3+41": _kernels(3, (41, (*UP8, 9), _subsets(6))),
    "kernels3+41x2": _kernels(3, (41, (5, 5, 6, 6, 7, 7, 8, 8), _sets(14))),
    "pairs3+53": _kernels(3, (53, (4, 4, 5, 5, 6, 6, 7, 7), _subsets(4, low=1), 59), every_pair=True,
                          extra=lambda: special_pairs() + catalog_pairs(blunt3())),
    "kernels3+71": _kernels(3, (71, UP8, _bases(10), 67)),
    "kernels3+79": _kernels(3, (79, UP8, _subsets(6), 73)),
    "kernels3+83": _kernels(3, (83, UP8)),
    "kernels3+89": _kernels(3, (89, UP8)),
    "kernels3+97": _kernels(3, (97, UP8), extra=special_pairs),
    "kernels3+97x40": _kernels(3, (97, (4,) * 40 + (5, 6, 7)), extra=lambda: custom_pairs(17, 60)),
    "pairs3+101": _kernels(3, (101, (4, 5, 6, 7, 8, 9)), every_pair=True, extra=lambda: custom_pairs(29, 60)),
    "kernels3+103": _kernels(3, (103, (4, 5, 6, 7, 8, 9)), extra=lambda: custom_pairs(31, 60)),
    "spaces+47": lambda: tuple(map(_case, exhaustive_spaces(4) + seeded_spaces(47, UP16))),
    "spaces+127": lambda: tuple(map(_case, exhaustive_spaces(4) + seeded_spaces(127, (5, 6, 7, 8, 9)))),
    "spaces3+0-2": lambda: tuple(map(_case, exhaustive_spaces(3)[1:] + fixed_spaces(
        tuple((n, seed) for n in range(4, 11) for seed in range(3))))),
    "kernels3+41-43": lambda: (*_kernels(3)(), *(c for t in fixed_spaces(((4, 41), (5, 42), (6, 43)))
                                                 for c in _cases(t, False))),
    "systems2": lambda: _cover_systems(power_sets=False),
    "powersets+17": lambda: _cover_systems(power_sets=True),
    "families4": lambda: every_family(4),
    "families+101": _props_cases,
    "families+17": _memo_cases,
    "families+43": lambda: _drawn_families(43, range(5, 13), 0),
    "families+71": lambda: _drawn_families(71, range(13), 1),
    "subbases+29": _subbases,
    "families+89": lambda: _violation_cases(wide=False),
    "families+97": lambda: _violation_cases(wide=True),
    "contexts+103": _partner_contexts,
    "families+47": lambda: list(regularity_cases()),
    "families+29": neighbourhood_cases,
    "spaces+5": _interior_spaces,
    "nonempty3": lambda: [fam for n in (1, 2, 3) for fam in all_families_of_nonempty(n)],
    "grounds4": lambda: range(1, 5),
    "operations+53": _order_cases,
    "operations+3": _widened_operations,
    "tables+73": lambda: _table_cases(73, corrupt=True),
    "tables+79": lambda: _table_cases(79, corrupt=False),
    "lanes+61": lambda: _lane_tables(61),
    "covers+401": lambda: _cover_cases(401, 5000),
}


# The two sides of the rows, one case at a time.


@functools.lru_cache(maxsize=1)  # read by both sides of a case in turn
def _meet_rows(p) -> tuple:
    """The rows a kernel meets per point: its envelope groups, its closed sets
    with their dual images, and the rows of :func:`topolab.filters.is_t2`."""
    from topolab.ops import dual_table
    from topolab.pairs import image_groups, int_table

    full, fam = p.topology.full, p.kernel.family
    enl, dual, inner = p.enlarger.table, dual_table(p.enlarger), int_table(p)
    return (list(image_groups(p)), [(full ^ u, dual[full ^ u]) for u in fam],
            [(full ^ inner[full ^ enl[u]], u) for u in fam])


def _literal_regularity(c):
    """The cubic quantifiers where quick; the library's regrouping always."""
    from topolab.ops import is_regular_wrt

    k = c.p.kernel
    regrouped = is_regular_wrt(k.enlarger, k.family)
    small = c.top.n <= 3 or (c.top.n <= 6 and len(k.family) <= 40)
    return (literal_is_regular_wrt(k.enlarger, k.family) if small else regrouped,) * 2 + (regrouped,)


def _literal_adherences(c):
    """The walk over the members' pointwise closures up to 8 points (each
    member's closure computed once per case), the pair-interior table's
    route above."""
    from topolab import adherence_set

    if c.top.n > 8:
        return ([adherence_set(f, c.p) for f in c.bases],) * 3
    closure = functools.lru_cache(maxsize=None)(functools.partial(pointwise_pair_closure, c.p))
    return ([meet(map(closure, f), c.top.full) for f in c.bases],) * 3


def _finer_convergent(c):
    from topolab import Filter, finer_convergent, is_regular_wrt

    k, n = c.p.kernel, c.top.n
    return (is_regular_wrt(k.enlarger, k.family), *(
        verdict(lambda f, x: finer_convergent(f, c.p, x).core, Filter(n, core), x)
        for core in c.picks if core for x in range(n)))


def _literal_finer_convergent(c):
    """The literal construction where the literal preconditions hold;
    refused elsewhere."""
    from topolab import Filter

    k, n = c.p.kernel, c.top.n
    regular = literal_is_regular_wrt(k.enlarger, k.family)
    return (regular, *(
        literal_finer_convergent(Filter(n, core), c.p, x)
        if regular and pointwise_pair_closure(c.p, core) >> x & 1 else ValueError
        for core in c.picks if core for x in range(n)))


def _literal_nbhd_bases(c):
    """The member walk, its preconditions read pairwise and literally up
    to 4 points and off the library's checked flags above."""
    from topolab.pairs import _kernel_report, enlarger_is_regular

    k = c.p.kernel
    if c.top.n <= 4:
        nested = member_walk_nested(k)
        ok = {"plain": nested and pairwise_intersection_closed(k.family),
              "enlarged": nested and literal_is_regular_wrt(k.enlarger, k.family)}
    else:
        nested = _kernel_report(k).family_nested
        ok = {"plain": nested and k.topology.family_props(k.family)[0],
              "enlarged": nested and enlarger_is_regular(k)}
    return tuple(member_walk_nbhd_base(k, x, v) if ok[v] else ValueError
                 for x in c.points for v in ("plain", "enlarged"))


REFUSED = "refinement base failed the filterbase laws"
STATEMENTS = ("pair", "pair_open", "base", "ultra", "closed", "restricted")
KINDS = STATEMENTS[:3]


def _space_flags(c):
    """The space-level statements read set by set: the whole space, every
    nonempty residue and every pair-closed set, in the three kinds."""
    from topolab import compactness_kind, pair_closed_family

    full, enl = c.top.full, c.p.enlarger.table
    residues = [r for r in {full ^ enl[u] for u in c.p.kernel.family} if r]
    groups = (((full,), ("pair", "base", "pair_open")), (residues, KINDS), (pair_closed_family(c.p), KINDS))
    return tuple(all(compactness_kind(c.p, s, kind) for s in sets)
                 for sets, kinds in groups for kind in kinds)


def _avoidance_rows(c):
    """outside[x] of the pair kind, full ^ the limits of {x} through the
    envelopes, and full ^ the closed meets through the dual table."""
    from topolab.compact import _closed_meets, _row
    from topolab.filters import _point_limits

    full = c.top.full
    return (tuple(m for (m,) in _row(c.p, "pair")), tuple(full ^ m for m in _point_limits(c.p)),
            tuple(full ^ m for m in _closed_meets(c.p)))


@functools.lru_cache(maxsize=1)  # read by both sides of a case in turn
def _failing_verdicts(c) -> tuple:
    """(set, verdict) for each set failing in the pair's cover system."""
    from topolab import CoverSystem, is_compact

    cs = CoverSystem(c.p.kernel.family, c.p.enlarger)
    return tuple((a, v) for a, v in ((a, is_compact(cs, a)) for a in c.sets) if not v.compact)


def _trial_covers(c) -> tuple:
    """Per failing set, its witness x and the trial-removal cover avoiding x."""
    enl, fam = c.p.enlarger.table, c.p.kernel.family
    return tuple((x, trial_minimal_cover([u for u in fam if not enl[u] >> x & 1], a))
                 for a, x in ((a, v.witness_point) for a, v in _failing_verdicts(c)))


def _kind_systems(c):
    """The cover system each compactness kind quantifies over."""
    from topolab import CoverSystem, catalog, enlargement_base, pair_open_family
    from topolab.bits import canonical_family

    identity, p = catalog(c.top)["identity"], c.p
    return (CoverSystem(p.kernel.family, p.enlarger), CoverSystem(pair_open_family(p), identity),
            CoverSystem(canonical_family(enlargement_base(p) + (c.top.full,)), identity))


def _literal_kinds(c):
    """The avoidance criterion on each kind's cover system, and the
    literal oracle wherever its ambient family has at most 12 members."""
    from topolab import is_compact

    out = []
    for cs in _kind_systems(c):
        brute = brute_force_compact_all(cs, c.picks) if len(cs.ambient) <= 12 else None
        out += ((is_compact(cs, s).compact, brute[i] if brute else is_compact(cs, s).compact)
                for i, s in enumerate(c.picks))
    return tuple(out)


def _family_statements(c):
    """Per set, the pair plane's verdict as the three base statements and
    the two family statements, and the closed plane's as the closed
    pair."""
    from topolab import failing_plane

    pair, closed = failing_plane(c.p, "pair"), failing_plane(c.p, "closed")
    return tuple(((not pair >> s & 1,) * 3, (not pair >> s & 1,) * 2, (not closed >> s & 1,) * 2)
                 for s in c.picks)


def _literal_family_statements(c):
    """The statements straight from their wording, over every antichain up
    to 4 points (singleton families and seeded samples above) and every
    subfamily of a selector-closed family of at most 10 members.  Above
    10, the closed pair fails exactly when some S_y refutes by
    definition, and a refuting subfamily of a seeded 10-member draw must
    make it fail."""
    from topolab.ops import dual_table, op_closed_family

    top, p = c.top, c.p
    n, full = top.n, top.full
    closed, dual = op_closed_family(p.selector), dual_table(p.enlarger)
    drawn = seeded_subfamily(closed, f"{n},{p.name}")
    out = []
    for s in c.picks:
        literal = _subfamily_statements(drawn, s, full, tuple(dual[f] for f in drawn))
        if drawn != closed:
            refuted = closed_refuter(closed, dual, s, full) is not None
            literal = (not refuted,) * 2 if refuted or literal == (True, True) else "a drawn part refutes"
        out.append((*_base_and_family_statements(p.kernel, s), literal))
    return tuple(out)


@functools.lru_cache(maxsize=4096)  # a space's kernels and sets
def _base_and_family_statements(k, s: int) -> tuple:
    """The three base statements and the family pair for one kernel and
    set, read literally off the pointwise pair closure."""
    n, full = k.topology.n, k.topology.full
    cl = _closures(k)
    bases = (inner_bases_accumulate(cl, s), meeting_bases_accumulate(cl, s, n),
             base_gap_has_disjoint_member(cl, s, n))
    return bases, literal_fip_and_gap(cl, family_universe(n), s, full)


@functools.lru_cache(maxsize=64)
def _closures(k) -> list:
    from topolab.pairs import pair_closure_by_points

    return pair_closure_by_points(k, k.topology.subsets())


#: pairs sharing a kernel draw the same subfamilies unless they have more
#: than 10 members, so each scan runs once per family, set and images
_subfamily_statements = functools.lru_cache(maxsize=4096)(subfamily_fip_and_gap)


def _literal_complement_statements(c):
    """The literal subfamily scans over residue and pair-closed families
    of at most 10 members, or seeded 10-member draws of bigger ones: any
    refuting base among the drawn residues must fail the set, which fails
    exactly when some residue r has its base {r} refuting by
    definition."""
    from topolab import pair_closed_family
    from topolab.bits import canonical_family

    top, p = c.top, c.p
    full, enl = top.full, p.enlarger.table
    cl = _closures(p.kernel)
    residues = canonical_family(full ^ enl[u] for u in p.kernel.family)
    drawn = seeded_subfamily(residues, f"residues,{top.n},{p.name}")
    closed = seeded_subfamily(pair_closed_family(p), f"closed,{top.n},{p.name}")
    out = []
    for s in c.picks:
        literal = subfamily_bases_accumulate(drawn, cl, s)
        if drawn != residues:
            each = all(subfamily_bases_accumulate((r,), cl, s) for r in residues)
            literal = "a drawn base refutes" if each and not literal else each
        out.append((_subfamily_statements(drawn, s, full), _subfamily_statements(closed, s, full), literal))
    return tuple(out)


def _base_report(c):
    from topolab import base_report, op_open_family

    p, n = c.p, c.top.n
    rep = base_report(p)
    flags = (rep.family_nested, rep.base_pair_open, rep.base_in_pair_and_selector, rep.is_base)
    above = len(op_open_family(p.enlarger)) == 1 << n
    return above, rep.image_stable, rep.order_dominates, flags if n <= 6 else ()


def _scanned_base_report(c):
    """Image stability over every selector-open set, "above the identity"
    over all subsets, and up to 6 points (the pointwise interior scan is
    cubic) the four base flags by scans and the pairwise union closure."""
    from topolab import leq

    above = scan_above_identity(c.p)
    flags = scan_base_flags(c.p) if c.top.n <= 6 else ()
    return above, scan_image_stable(c.p), above or leq(c.p.selector, c.p.enlarger), flags


def _routes() -> tuple:
    from topolab import (
        NAMED_FAMILIES, Filter, Operation, accumulates, additive_hypothesis, adherence_set, brute_force_compact,
        catalog, classify_structure, compactness_kind, convergence_closure, converges, enlargement_base,
        failing_plane, generated_filter, is_compact, is_filterbase, is_monotone, is_regular_wrt, is_t2, leq,
        limit_set,
        named_family, nbhd_filterbase, neighborhoods, op_open_family, pair_closed_family, pair_closure,
        pair_open_family, space_compactness_flags,
    )
    from topolab.bits import (
        close_unions, complement_plane, family_plane, intersection_closure, pack_lanes, plane_props,
        point_meets, union_closure, upward_closure, zero_lanes, zero_plane)
    from topolab.compact import _minimal_cover
    from topolab.filters import principal_rows, refined_core
    from topolab.harness import _plane_closure, _Universe
    from topolab.ops import op_open_plane, op_shrink_plane, table_violation
    from topolab.space import build_topology, default_ground, family_violation, is_topology
    from topolab.pairs import (
        _kernel_report, enlarger_is_regular, int_table, pair_closure_by_points, pair_open_plane, regular_scan)

    def structure(p):
        rep = classify_structure(p)
        return (rep.is_supratopology, rep.is_topology, rep.closed_iff_cl_subset, rep.closed_iff_cl_equal,
                rep.is_kuratowski)

    def walked_violations(top, table, bad):  # the lawful table passes, every corrupted one fails
        inner = [naive_interior(top, a) for a in top.subsets()] if top.n <= 8 else top.int_table()
        out = tuple(literal_table_violation(top, t, inner) for t in (table, *bad))
        return out if out[0] is None and None not in out[1:] else "a lawful table fails or a corrupted one passes"

    def where(rule, f, c):
        """The points ``rule(f, p, x)`` holds at, one point at a time."""
        return sum(rule(f, c.p, x) << x for x in range(c.top.n))

    def principal(c):
        return [Filter(c.top.n, core) for core in range(1, 1 << c.top.n)]

    def pairwise(route, t):
        return tuple(route(op, f) for op in catalog(t[0]).values() for f in t[1])

    def fixed(c):
        return tuple(a for a in scan_within(int_table(c.p)) if int_table(c.p)[a] == a)

    def topology_closures(closure):  # the closure of each set in the pair topology, where the family is one
        return lambda c: tuple(closure(c, s) for s in c.sets) if structure(c.p)[1] else None

    def member_union_closure(c, s):  # X minus the union of the pair-open sets missing s
        return c.top.full ^ functools.reduce(operator.or_, (u for u in scan_within(int_table(c.p)) if not u & s), 0)

    def fip_and_gap(families):  # the family pair of each set, over ``families(n)``
        return lambda c: tuple(literal_fip_and_gap(_closures(c.p.kernel), families(c.top.n), s, c.top.full)
                               for s in c.picks)

    def closed(n, fam):  # under unions with the empty set, under meets with the whole set
        return 0 in fam and pairwise_union_closed(fam), (1 << n) - 1 in fam and pairwise_intersection_closed(fam)

    def fixpoints(n, fam):  # the union and the meet closures
        return pairwise_fixpoint({0, *fam}, operator.or_), pairwise_fixpoint({(1 << n) - 1, *fam}, operator.and_)

    def walked_plane(sets):  # the plane of ``sets``, one set at a time
        return sum(1 << a for a in sets)

    def planes(n, fam):
        plane = family_plane(fam, n)
        comp = complement_plane(plane, n)
        return comp, complement_plane(comp, n), close_unions(plane, n), complement_plane(close_unions(comp, n), n)

    def plane_rules(n, fam):
        unions, meets = fixpoints(n, fam)
        return tuple(family_plane(f, n) for f in ([(1 << n) - 1 ^ m for m in fam], fam, unions, meets))

    def memo_rules(t):  # the closure kernel's verdicts, read twice, which the pairwise scans must share
        kernel = [(intersection_closure(f, t[0].n) == f, union_closure(f, t[0].n) == f) for f in t[1]]
        return tuple(k if k == closed(t[0].n, f)[::-1] else "the kernel and the scans disagree"
                     for k, f in zip(kernel, t[1])) * 2

    def violation(t):
        return tuple(family_violation(t[0], f) for f in t[1])

    def literal_violation(t):
        return tuple(literal_family_violation(t[0], f) for f in t[2])

    def violations(seen):  # the small families: one per space up to 3 points passes, some fail a closure law
        verdicts = [out[0] for c, out in seen if len(c[1]) == 3]
        return verdicts.count(None) == 1 + 1 + 4 + 29 and any(v and "closed under" in v for v in verdicts)

    def covered(cs):
        return tuple(is_compact(cs, a).compact for a in cs.enlarger.topology.subsets())

    def all_closures(c, closure):
        return tuple((closure(c.p, s, exhaustive=True), closure(c.p, s)) for s in c.picks)

    def both(read=lambda out: (out,)):  # ``read`` takes both truth values on the literal results
        return lambda seen: {v for _, out in seen for v in read(out)} == {True, False}

    def more(than, read=len):  # ``read`` sums to more than ``than`` over the literal results
        return lambda seen: sum(read(out) for _, out in seen) > than

    def principal_reads(c):
        lim, adh = principal_rows(c.p)
        out = [(lim[f.core], limit_set(f, c.p), limit_set((f.core,), c.p), adh[f.core], adherence_set(f, c.p),
                adherence_set((f.core,), c.p)) for f in principal(c)]
        return out, all(f.core in lim and f.core in adh for f in principal(c))  # the rows keep every core read

    def principal_rules(c):
        out = []
        for f in principal(c):
            lim = sum(family_converges(f.core, c.p, x, c.p.kernel.family) << x for x in range(c.top.n))
            adh = pointwise_pair_closure(c.p, f.core)
            out.append((lim,) * 3 + (adh,) * 3 if (lim, adh) == (where(converges, f, c), where(accumulates, f, c))
                       else "the per-point rules disagree with the selector rule")
        return out, True

    return (
        # spaces, operations and families
        Route("builtin_tables", lambda c: tuple(op.table for op in catalog(c.p).values()),
              lambda c: defined_tables(c.p), "spaces3+0-2"),
        Route("interior", lambda c: tuple((c.p.int_table()[a], c.p.interior(a)) for a in c.sets),
              lambda c: tuple((naive_interior(c.p, a),) * 2 for a in c.sets), "spaces+5"),
        Route("min_nbhds", lambda c: c.p.min_nbhds(),
              lambda c: literal_point_meets(zip(c.p.opens, c.p.opens), c.p.n), "spaces+47"),
        Route("named_families", lambda c: tuple(named_family(c.p, name) for name in NAMED_FAMILIES),
              lambda c: tuple(literal_named_family(c.p, name, [naive_interior(c.p, a) for a in c.p.subsets()])
                              for name in NAMED_FAMILIES), "spaces+127"),
        Route("table_violation", lambda t: tuple(table_violation(t[0], table) for table in (t[1], *t[2])),
              lambda t: walked_violations(*t), "tables+73"),
        Route("op_open_family", lambda t: op_open_family(Operation(*t[:2])), lambda t: (  # holding both ends
            f if (f := scan_open_family(Operation(*t[:2])))[0] == 0 == f[-1] ^ t[0].full else "no end"),
              "tables+79"),
        Route("op_open_plane", lambda t: op_open_plane(Operation(*t[:2])),
              lambda t: walked_plane(a for a, image in enumerate(t[1]) if a & ~image == 0), "tables+79"),
        Route("op_shrink_plane", lambda t: op_shrink_plane(Operation(*t[:2])),
              lambda t: walked_plane(a for a, image in enumerate(t[1]) if image & ~a == 0), "tables+79"),
        Route("leq", lambda t: leq(*t), lambda t: all(x & ~y == 0 for x, y in zip(t[0].table, t[1].table)),
              "operations+53"),
        Route("is_monotone", is_monotone, lambda op: naive_is_monotone(op) or (  # the catalog always is
            op.name != "widened" and "a catalog operation is not monotone"), "operations+3", seen=both()),
        Route("regular_wrt", lambda t: pairwise(is_regular_wrt, t),
              lambda t: pairwise(literal_is_regular_wrt, t), "families+47", seen=more(10_000)),
        Route("neighborhoods", lambda t: tuple(neighborhoods(t[0], t[1], x) for x in range(t[0])),
              lambda t: tuple(literal_neighborhoods(t[0], t[1], x) for x in range(t[0])), "families+29"),
        Route("is_filterbase", is_filterbase, literal_is_filterbase, "nonempty3"),
        Route("family_props", lambda t: t[0].family_props(t[1]), lambda t: closed(t[0].n, t[1])[::-1],
              "families+101"),
        Route("plane_props", lambda t: plane_props(family_plane(t[1], t[0]), t[0]),
              lambda t: closed(*t)[::-1], "families4"),
        Route("family_props_memo", lambda t: tuple(map(t[0].family_props, t[1] * 2)), memo_rules, "families+17"),
        Route("closure_kernel", lambda t: (union_closure(t[1], t[0]) == t[1], intersection_closure(t[1], t[0]) == t[1],
                                           is_topology(default_ground(t[0]), t[1])),
              lambda t: (*closed(*t), all(closed(*t))), "families4"),
        Route("closures", lambda t: (union_closure(t[1], t[0]), intersection_closure(t[1], t[0]), upward_closure(
            t[1], t[0])), lambda t: (*fixpoints(*t), tuple(a for a in range(1 << t[0]) if any(
                m & ~a == 0 for m in t[1]))), "families+43"),
        Route("plane_closures", lambda t: planes(*t), lambda t: plane_rules(*t), "families+71"),
        Route("zero_plane", lambda t: (zero_plane(*pack_lanes(t[0]), t[1]), zero_lanes(*pack_lanes(t[0]), t[1])),
              lambda t: (walked_plane(a for a, v in enumerate(t[0]) if v == 0),
                         tuple(a for a, v in enumerate(t[0]) if v == 0)), "lanes+61",
              seen=lambda seen: any(v >> 8 and not v & 255 for t, _ in seen for v in t[0])),  # lanes the fold must read
        Route("build_topology", lambda t: build_topology(default_ground(t[0]), t[1]).opens,
              lambda t: pairwise_fixpoint_topology(*t), "subbases+29"),
        Route("family_violation", violation, literal_violation, "families+89", seen=violations),
        Route("family_violation_wide", violation, literal_violation, "families+97"),
        # kernel rows
        Route("point_meets", lambda c: tuple(point_meets(rows, c.top.n) for rows in _meet_rows(c.p)),
              lambda c: tuple(literal_point_meets(rows, c.top.n) for rows in _meet_rows(c.p)), "kernels+47"),
        Route("interior_pointwise", lambda c: tuple(int_table(c.p)),
              lambda c: tuple(naive_pair_interior(c.p, a) for a in c.top.subsets()), "kernels+103", max_n=4),
        Route("interior_walk", lambda c: tuple(int_table(c.p)[a] for a in c.sets),
              lambda c: tuple(member_walk_interior(c.p.kernel, a) for a in c.sets), "kernels+307"),
        Route("enlargement_base", lambda c: enlargement_base(c.p), lambda c: member_walk_base(c.p.kernel),
              "kernels+307"),
        Route("kernel_flags", lambda c: (_kernel_report(c.p).family_nested, _kernel_report(c.p).image_stable),
              lambda c: (member_walk_nested(c.p.kernel), member_walk_image_stable(c.p.kernel)),
              "kernels+307", seen=lambda seen: len({out for _, out in seen}) == 4),
        Route("closure_by_points", lambda c: pair_closure_by_points(c.p, c.sets),
              lambda c: literal_pair_closure_by_points(c.p, c.sets), "kernels+107"),
        Route("closure_pointwise", lambda c: pair_closure_by_points(c.p, c.sets),
              lambda c: [pointwise_pair_closure(c.p, a) for a in c.sets], "kernels3+41x2"),
        Route("closure_table", lambda c: [pair_closure(c.p, a) for a in c.sets],
              lambda c: literal_pair_closure_by_points(c.p, c.sets), "kernels3+23"),
        Route("pair_open_family",
              lambda c: (pair_open_family(c.p), classify_structure(c.p).closed_iff_cl_equal),
              lambda c: (scan_within(int_table(c.p)), fixed(c) == scan_within(int_table(c.p))),
              "kernels+103"),
        Route("pair_open_plane", lambda c: pair_open_plane(c.p),
              lambda c: walked_plane(scan_within(int_table(c.p))), "kernels+103"),
        Route("pair_topology_closure", topology_closures(lambda c, s: _plane_closure(
            pair_open_plane(c.p), s, c.top.n)), topology_closures(member_union_closure), "kernels+103",
              seen=both(lambda out: (out is None,))),
        Route("pair_closed_family", lambda c: pair_closed_family(c.p),
              lambda c: tuple(sorted(c.top.full ^ a for a in scan_within(int_table(c.p)))), "kernels3+29"),
        Route("structure", lambda c: structure(c.p), lambda c: (  # and the ladder holds
            f if (f := literal_structure(c.p))[0] and f[1] >= f[4] else "off the ladder"), "kernels3+97x40",
              seen=lambda seen: both(lambda f: f[3:])(seen) and {  # and some custom member is not monotone
                  is_monotone(op) for c, _ in seen for op in (c.p.selector, c.p.enlarger)} == {True, False}),
        Route("regularity", lambda c: (regular_scan(c.p), enlarger_is_regular(c.p), regular_scan(c.p)),
              _literal_regularity, "kernels+109"),
        Route("envelopes", lambda c: tuple(map(c.p.envelope, range(c.top.n))),
              lambda c: tuple(scan_envelope(c.p, x) for x in range(c.top.n)), "kernels3+103"),
        Route("base_report", _base_report, _scanned_base_report, "pairs3+101", seen=lambda seen: len(
            {out[:2] for _, out in seen}) == 4 and len({f for _, out in seen for f in enumerate(out[3])}) == 8),
        # filters
        Route("base_adherence", lambda c: (base_adherence_sets(c.p, c.bases, c.has), base_adherence_sets(
            c.p, c.bases), [adherence_set(f, c.p) for f in c.bases]), _literal_adherences, "kernels+113"),
        Route("base_limits", lambda c: (base_limit_sets(c.p, c.bases, c.has), base_limit_sets(c.p, c.bases), [
            limit_set(f, c.p) for f in c.bases]), lambda c: ([scan_limit_set(f, c.p) for f in c.bases],) * 3,
              "kernels3+71", max_n=8),
        Route("base_sets", lambda c: tuple((limit_set(f, c.p), adherence_set(f, c.p)) for f in c.bases),
              lambda c: tuple((where(converges, f, c), where(accumulates, f, c)) for f in c.bases),
              "kernels3+29"),
        Route("principal_sets", principal_reads, principal_rules, "kernels3+41-43"),
        Route("generated_filters", lambda c: tuple((where(converges, b, c), where(accumulates, b, c))
                                                   for b in c.bases if b), lambda c: tuple(
            (where(converges, g, c), where(accumulates, g, c))
            for g in (generated_filter(c.top.n, b) for b in c.bases if b)), "kernels3+29", max_n=3),
        Route("quantified_bases", lambda n: tuple(_Universe(n, 0, None).bases),
              lambda n: tuple(map(tuple, subfamily_filterbases(tuple(range(1, 1 << n))))), "grounds4",
              seen=lambda seen: [len(out) for _, out in seen] == [1, 5, 31, 569]),
        Route("partners", lambda ctx: (ctx.pair_names, {
            nm: [d for _, d in ctx.agreeing(*nm)] for nm in ctx.pair_names}), _scanned_partners, "contexts+103"),
        Route("t2", lambda c: is_t2(c.p), lambda c: literal_is_t2(c.p), "pairs3+53", seen=both()),
        Route("refined_core", lambda c: tuple(verdict(refined_core, c.p, core, x)
                                              for core in range(1, 1 << c.top.n) for x in range(c.top.n)),
              lambda c: tuple(REFUSED if g is None else g for g in (
                  literal_finer_convergent(f, c.p, x) for f in principal(c) for x in range(c.top.n))),
              "pairs3+53", max_n=3, seen=more(10_000, lambda out: out.count(REFUSED))),
        Route("finer_convergent", _finer_convergent, _literal_finer_convergent, "pairs3+53",
              seen=more(10_000, lambda out: len(out) - 1 - out.count(ValueError))),
        Route("nbhd_bases", lambda c: tuple(verdict(nbhd_filterbase, c.p, x, v)
                                            for x in c.points for v in ("plain", "enlarged")),
              _literal_nbhd_bases, "kernels+311", seen=lambda seen: len(
                  {(i % 2, b is ValueError) for c, out in seen if c.top.n <= 4 for i, b in enumerate(out)}) == 4),
        Route("convergence_closure", lambda c: all_closures(c, convergence_closure),
              lambda c: tuple((submask_convergence_closure(c.p, s),) * 2 for s in c.picks), "kernels3+79"),
        # compactness
        Route("brute_force", covered, lambda cs: tuple(
            brute_force_compact(cs, a) for a in cs.enlarger.topology.subsets()), "systems2"),
        Route("brute_force_all", covered, lambda cs: brute_force_compact_all(cs, cs.enlarger.topology.subsets()),
              "powersets+17"),
        Route("failing_planes", lambda c: tuple(failing_plane(c.p, kind) for kind in STATEMENTS),
              lambda c: tuple(sum(1 << s for s in c.sets if not compactness_kind(c.p, s, kind))
                              for kind in STATEMENTS), "kernels3+83", max_n=8),
        Route("space_flags", lambda c: space_compactness_flags(c.p).statements(), _space_flags,
              "kernels3+89"),
        Route("additive_hypothesis", lambda c: additive_hypothesis(c.p),
              lambda c: pairwise_additive_hypothesis(c.p), "kernels3+97", seen=both()),
        Route("avoidance_row", _avoidance_rows, lambda c: (tuple(c.top.full ^ m for m in (
            literal_pair_closure_by_points(c.p, [1 << x for x in range(c.top.n)]))),) * 3, "kernels+107x4"),
        Route("witness_covers",
              lambda c: tuple((v.witness_point, v.witness_cover) for _, v in _failing_verdicts(c)),
              _trial_covers, "kernels+401", seen=more(10_000)),
        Route("minimal_cover", lambda c: _minimal_cover(*c), lambda c: trial_minimal_cover(*c), "covers+401"),
        Route("cover_kinds", lambda c: tuple((compactness_kind(c.p, s, kind),) * 2
                                             for kind in KINDS for s in c.picks),
              _literal_kinds, "kernels3+41"),
        Route("ultra_plane", lambda c: tuple(not failing_plane(c.p, "ultra") >> s & 1 for s in c.picks),
              lambda c: tuple(maximal_bases_converge(c.p, s) for s in c.picks), "kernels3+23", seen=both(tuple)),
        Route("family_statements", _family_statements, _literal_family_statements, "pairs3+23"),
        Route("antichain_reduction", fip_and_gap(antichain_families), fip_and_gap(all_families_of_nonempty),
              "pairs3+23", max_n=2),
        Route("complement_statements",  # the four complement statements hold as stated
              lambda c: tuple(((True, True), (True, True), not failing_plane(c.p, "restricted") >> s & 1)
                              for s in c.picks), _literal_complement_statements, "pairs3+23"),
    )


ROUTES = _routes()
ROUTE_NAMES = {route.name: route for route in ROUTES}


def first_difference(fast, literal) -> str:
    """The path of indices down to the first entries that differ, and them."""
    path = []
    while isinstance(fast, (tuple, list)) and type(fast) is type(literal) and len(fast) == len(literal):
        i = next(i for i, (a, b) in enumerate(zip(fast, literal)) if a != b)
        path.append(i)
        fast, literal = fast[i], literal[i]
    return f"at {path}: fast {fast!r}, literal {literal!r}"


def route_outcome(name: str) -> str | None:
    """Run one row over its universe: None, or where the routes differ,
    or that the literal results fail the row's ``seen``."""
    route, seen = ROUTE_NAMES[name], []
    for case in universe(name):
        if isinstance(case, Case) and case.top.n > route.max_n:
            continue
        fast, literal = route.fast(case), route.literal(case)
        if fast != literal:
            return f"{name} differs on {case!r} {first_difference(fast, literal)}"
        if route.seen:
            seen.append((case, literal))
    return None if not route.seen or route.seen(seen) else f"{name}: its universe is degenerate"


#: the universes several rows read, kept from the first of them to the last
_shared: dict = {}


def universe(row: str) -> tuple:
    """The cases of a row's universe: built afresh for a row of its own, else
    kept until every row naming it has asked."""
    name = ROUTE_NAMES[row].universe
    cases, left = _shared.pop(name, (None, {r.name for r in ROUTES if r.universe == name}))
    cases = cases or tuple(UNIVERSES[name]())
    if left - {row}:
        _shared[name] = cases, left - {row}
    return cases


def route_check(*names: str):
    """A test running the named rows, under the name of a check they replaced."""
    return lambda: check_routes(*names)


def check_routes(*names: str) -> None:
    """Fail on the first difference, or degenerate universe, a named row finds."""
    for name in names:
        outcome = route_outcome(name)
        assert outcome is None, outcome
