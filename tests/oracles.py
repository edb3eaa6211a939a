"""Independent reference implementations used only to check the library.

Each oracle recomputes a quantity through a different route than the
package: preorder counting for the enumerator, direct scans for interior,
monotonicity, contained-union tables and neighbourhood up-sets, the
per-subset subfamily scan for cover compactness, the raw pointwise rules
for the pair interior and pair closure, the structure flags read
literally off their wording, the quadratic directedness test for
filterbases, pairwise scans and fixpoints for union and intersection
closure, full core scans and subfamily tables for the compactness
records' base and family statements, and the family universes those
statements are quantified over.  None of them import the code paths
they validate.
"""

from __future__ import annotations

import functools
import itertools
import operator
import random

import numpy as np

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
        rel = np.eye(n, dtype=bool)
        for k, (i, j) in enumerate(off_diagonal):
            if bits >> k & 1:
                rel[i, j] = True
        closure = rel @ rel
        if not (closure & ~rel).any():
            count += 1
    return count


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
