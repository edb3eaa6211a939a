"""Independent reference implementations used only to check the library.

Each oracle recomputes a quantity through a different route than the
package: preorder counting for the enumerator, direct scans for interior
and monotonicity, the raw pointwise rule for the pair interior, the
quadratic directedness test for filterbases, and pairwise scans and
fixpoints for union and intersection closure.  None of them import the
code paths they validate.
"""

from __future__ import annotations

import itertools
import operator

import numpy as np

from topolab.bits import intersection_dp, submasks_desc


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


def literal_is_filterbase(family) -> bool:
    members = tuple(family)
    if not members or any(m == 0 for m in members):
        return False
    for b1, b2 in itertools.product(members, repeat=2):
        meet = b1 & b2
        if not any(b3 & ~meet == 0 for b3 in members):
            return False
    return True


def all_families_of_nonempty(n: int):
    """Every family of nonempty subsets of an n-point carrier, the empty
    family included; only feasible for tiny n."""
    nonempty = list(range(1, 1 << n))
    for sel in range(1 << len(nonempty)):
        yield tuple(nonempty[i] for i in range(len(nonempty)) if sel >> i & 1)


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


def subfamily_fip_and_gap(members, a: int, full: int) -> tuple[bool, bool]:
    """FIP and gap statements for the subfamilies of one fixed family,
    scanned literally.

    fip: every subfamily whose finite parts all meet ``a`` meets it too.
    gap: every subfamily missing ``a`` has a finite part missing it.
    """
    dp = intersection_dp(list(members), full)
    fip = True
    gap = True
    for sel in range(1 << len(members)):
        if a & dp[sel]:
            continue  # gap hypothesis idle, fip conclusion already holds
        if not any(a & dp[sub] == 0 for sub in submasks_desc(sel)):
            gap = False
        if all(a & dp[sub] for sub in submasks_desc(sel)):
            fip = False
    return fip, gap
