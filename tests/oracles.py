"""Independent reference implementations used only to check the library.

Each oracle recomputes a quantity through a different route than the
package: preorder counting and the literal filter over every subset
family for the enumerator, direct scans for interior,
monotonicity, contained-union tables and neighbourhood up-sets, the
per-subset subfamily scan for cover compactness, the raw pointwise rules
for the pair interior and pair closure, the structure flags read
literally off their wording, the quadratic directedness test for
filterbases, pairwise scans and fixpoints for union and intersection
closure, full core scans and subfamily tables for the compactness
statements about bases and families, the maximal filters' convergence
read off its definition, and the family universes those statements are
quantified over.  The scans that the library's rows and
planes replaced stay here too: the any-scan limit set of a base, the
per-core convergence and accumulation over a given neighbourhood
family, the submask loop of the exhaustive convergence closure, the
pairwise additivity scan, the base-report scans for image stability,
for the enlarger sitting above the identity and for the four base flags
(over the pairwise union closure), the one-set-at-a-time open family,
the per-point envelope scan, and the row-by-row meet loop that the
minimal neighbourhoods, the subbasis neighbourhoods, the envelopes, the
closed-family meets, pair-separation and regularity each ran before they
became one lane kernel, and the filters suite's per-core statements as
they ran, one core and point at a time, before its rows were indexed by
core position, with the name-pair statements of the families and
compactness suites as they ran, one pair of names at a time, before
they compared one pair per kernel.  The whole-table scans that moved onto lanes stay here as
well: the entry walk of the operation laws, the pairwise-fixpoint
verdicts and messages of the topology check, the entry scan for open
families and the group-by-group loop of the pointwise pair closure, with
the member-by-member adherence of a base.  So do the walks over a
kernel's selector-open family that its rows now read off the image
groups and planes: the pair interior, the enlargement base, the nesting
and image-stability flags and the neighbourhood filterbases, with the
trial-removal minimal cover.  None of them import the code
paths they validate, but for the three readers at the end, which take
the library's batched base rows and literal oracle one base or one
cover system at a time.
"""

from __future__ import annotations

import functools
import itertools
import operator
import random

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
        for x in range(n):
            if u >> x & 1:
                out[x] &= t
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
    from topolab.harness import SuiteResult
    from topolab.ops import leq

    p = ctx.pairs[(a, b)]
    n, full = ctx.n, ctx.full
    fam = scan_open_family(p.selector)
    enl = p.enlarger.table
    regular = ctx.regularity(a, b, SuiteResult())  # gated reads False
    lim, adh = rows(p)
    env = [scan_envelope(p, x) for x in range(n)]
    cores = ctx.core_list
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

    for s in ctx.subsets:
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
    above) are read off the tables; ``rows`` is ``pair_open_family`` for
    the families statement and ``failing_plane`` for the others."""
    from topolab.ops import leq

    names = ctx.pair_names
    quantified = sum(1 << s for s in ctx.subsets)
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
    """The pair-closure of each set by the pointwise rule over the
    groups of distinct enlargements, one group at a time: a point falls
    outside when some group holding it has an enlargement missing the
    set.  The loop ``pair_closure_by_points`` ran before its planes."""
    from topolab.pairs import image_groups

    groups = image_groups(p)
    full = p.topology.full
    out = []
    for a in sets:
        outside = 0
        for t, union in groups:
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


# The last three are not independent routes: they read the library's own
# batched rows one set or one target at a time, so the tests can compare
# them with the scans above.


def catalog_kernels(top) -> list:
    """The distinct pair kernels of the 49 catalog pairs on ``top``: the
    universe of kernels the member walks below are checked over."""
    from topolab import OpPair, catalog

    ops = catalog(top).values()
    kernels = {}
    for sel in ops:
        for enl in ops:
            k = OpPair(sel, enl).kernel
            kernels[id(k)] = k
    return list(kernels.values())


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
