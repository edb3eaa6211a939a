"""Filters, filterbases and pair convergence on a finite ground set.

On a finite carrier every filter is principal, so a filter is stored as
its core alone and every quantification over filters becomes a scan over
nonempty cores.  A filterbase is a plain family of nonempty masks that is
downward directed; directedness on a finite carrier forces a least
member, so the canonical form of any base is the single-member base at
its core.

A filter converges to a point (for a selector/enlarger pair) when its
core sits inside every enlarged selector-open neighbourhood of the
point; it accumulates there when the point is in the pair-closure of
every member.

The limit and adherence sets are computed for all points at once.  The
limits of a principal filter are the AND, over the points of its core,
of per-point masks (the points whose envelope holds that point); its
adherence set is one pair-closure lookup.  A base misses exactly the
points of the selector-open sets whose enlargement traps none of its
members, so its limit set is one pass over the selector-open family, and
its adherence set is the AND of its members' pair-closures.  The
per-point predicates :func:`converges` and :func:`accumulates` keep the
literal rules.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

from .bits import (
    Family,
    canonical_family,
    intersect_all,
    iter_points,
    mask_of,
    submasks_desc,
)
from .ops import at_point
from .pairs import OpPair, base_report, enlarger_is_regular, pair_closure
from .space import Topology


@dataclass(frozen=True)
class Filter:
    """Principal filter: all supersets of a nonempty core."""

    n: int
    core: int

    def __post_init__(self) -> None:
        if self.core == 0:
            raise ValueError("a filter core must be nonempty")
        if self.core >> self.n:
            raise ValueError("filter core uses bits outside the ground set")

    def members(self) -> list[int]:
        free = ((1 << self.n) - 1) ^ self.core
        return sorted(self.core | extra for extra in submasks_desc(free))

    def __contains__(self, subset: int) -> bool:
        return self.core & ~subset == 0

    def is_finer_than(self, other: "Filter") -> bool:
        """Finer = more members = smaller core."""
        return self.core & ~other.core == 0


FilterLike = Union[Filter, Sequence[int]]


def is_filterbase(family: Sequence[int]) -> bool:
    """Nonempty members, and any two members trap a third under their
    intersection.

    On a finite carrier directedness repeatedly applied yields a member
    below every other, so it is equivalent to the family containing its
    own intersection; that turns the quadratic pair scan into one pass.
    """
    members = tuple(family)
    if not members or any(m == 0 for m in members):
        return False
    meet = members[0]
    for m in members:
        meet &= m
    return meet in set(members)


def generated_filter(n: int, base: Sequence[int]) -> Filter:
    """Filter generated by a filterbase: the up-set of its intersection."""
    if not is_filterbase(base):
        raise ValueError("not a filterbase")
    return Filter(n, intersect_all(base, (1 << n) - 1))


def _members_of(f: FilterLike) -> Sequence[int]:
    if isinstance(f, Filter):
        return (f.core,)  # closure facts about the core lift to all supersets
    return tuple(f)


def converges(f: FilterLike, p: OpPair, point: int, family: Sequence[int] | None = None) -> bool:
    """Whether every enlarged neighbourhood of ``point`` traps a member.

    ``family`` overrides the selector-open family used for
    neighbourhoods (for the superset-closed variant); by default the
    selector-open sets of the pair are used.
    """
    if family is None:
        if isinstance(f, Filter):
            return f.core & ~p.envelope(point) == 0
        local = p.selector_at(point)
    else:
        local = at_point(family, point)
    enl = p.enlarger.table
    members = _members_of(f)
    for u in local:
        target = enl[u]
        if not any(m & ~target == 0 for m in members):
            return False
    return True


def accumulates(f: FilterLike, p: OpPair, point: int, family: Sequence[int] | None = None) -> bool:
    """Whether ``point`` is in the pair-closure of every member."""
    if family is None:
        return all(pair_closure(p, m) >> point & 1 for m in _members_of(f))
    enl = p.enlarger.table
    local = at_point(family, point)
    return all(
        all(enl[u] & m for u in local) for m in _members_of(f)
    )


def _point_limits(p: OpPair) -> tuple[int, ...]:
    """``_point_limits(p)[i]`` holds the points whose envelope holds i:
    the limit set of the principal filter at {i}.  Cached on the pair."""
    got = p._cache.get("point_limits")
    if got is None:
        n = p.topology.n
        env = [p.envelope(x) for x in range(n)]
        got = p._cache["point_limits"] = tuple(
            mask_of(x for x in range(n) if env[x] >> i & 1) for i in range(n)
        )
    return got


def limit_set(f: FilterLike, p: OpPair) -> int:
    """The points ``f`` converges to."""
    full = p.topology.full
    if isinstance(f, Filter):
        # the core sits in the envelope of x iff each of its points does
        limits = _point_limits(p)
        out = full
        for i in iter_points(f.core):
            out &= limits[i]
        return out
    # converges fails at x iff some selector-open set around x has an
    # enlargement trapping no member; such sets make up the outside
    enl = p.enlarger.table
    members = tuple(f)
    outside = 0
    for u in p.selector_open():
        target = enl[u]
        if not any(m & ~target == 0 for m in members):
            outside |= u
    return full ^ outside


def adherence_set(f: FilterLike, p: OpPair) -> int:
    """The points ``f`` accumulates at: the meet of its members'
    pair-closures (one lookup for a principal filter)."""
    if isinstance(f, Filter):
        return pair_closure(p, f.core)
    return intersect_all((pair_closure(p, m) for m in f), p.topology.full)


def finer_convergent(f: Filter, p: OpPair, point: int) -> Filter:
    """Refine an accumulating filter into one converging to ``point``.

    The refinement is generated by the base of enlarged neighbourhoods
    of the point cut with the filter members.  Only guaranteed when the
    enlarger is regular with respect to the selector-open family and the
    filter accumulates at the point; both preconditions are enforced.

    Closed form: every member ``enl[u] & m`` of the base (u selector-open
    around the point, m a superset of the core) holds ``meet = core &
    envelope(point)``, the meet of them all.  If ``enl[u] & m == meet``
    then ``meet <= enl[u] & core <= enl[u] & m``, so the meet is a member
    exactly when some u has ``enl[u] & core == meet`` (take m = core).
    A finite family is a filterbase exactly when it holds its own
    nonempty meet, so the base is one iff the meet is nonempty and such
    a u exists, and it generates the principal filter at the meet.
    """
    if not enlarger_is_regular(p):
        raise ValueError("enlarger is not regular w.r.t. the selector-open family")
    if not accumulates(f, p, point):
        raise ValueError("filter does not accumulate at the point")
    enl = p.enlarger.table
    meet = f.core & p.envelope(point)
    if not meet or all(enl[u] & f.core != meet for u in p.selector_at(point)):
        raise RuntimeError("refinement base failed the filterbase laws")
    out = Filter(f.n, meet)
    if not out.is_finer_than(f) or not converges(out, p, point):
        raise RuntimeError("refined filter failed its contract")
    return out


def maximal_filters(top: Topology) -> list[Filter]:
    """The filters admitting no strictly finer one: principal at singletons."""
    return [Filter(top.n, 1 << x) for x in range(top.n)]


def is_t2(p: OpPair) -> bool:
    """Every two distinct points sit in selector-open sets with disjoint
    enlargements.

    A selector-open v around y has an enlargement missing ``enl[u]``
    exactly when y lies in the pair interior of ``X \\ enl[u]``, so the
    points separated from x are the union of those interiors over the
    selector-open u around x.  The union may hold x itself, so only the
    other points are asked for.
    """
    enl = p.enlarger.table
    inner = p.int_table()
    full = p.topology.full
    for x in range(p.topology.n):
        separated = 0
        for u in p.selector_at(x):
            separated |= inner[full ^ enl[u]]
        if (full ^ (1 << x)) & ~separated:
            return False
    return True


def nbhd_filterbase(p: OpPair, point: int, variant: str = "plain") -> Family:
    """The neighbourhood filterbase at a point, plain or enlarged.

    plain     the selector-open sets around the point; requires the
              selector-open family to be intersection-closed and to sit
              inside the enlarger-open family
    enlarged  their enlargements; requires the enlarger to be regular
              w.r.t. the selector-open family, same nesting

    The returned base always generates a filter converging to ``point``;
    that contract is enforced rather than assumed.
    """
    nested = base_report(p).family_nested
    if variant == "plain":
        if not p.topology.family_props(p.selector_open())[0]:
            raise ValueError("selector-open family is not intersection-closed")
        if not nested:
            raise ValueError("selector-open family does not sit inside the enlarger-open family")
        base = p.selector_at(point)
    elif variant == "enlarged":
        if not enlarger_is_regular(p):
            raise ValueError("enlarger is not regular w.r.t. the selector-open family")
        if not nested:
            raise ValueError("selector-open family does not sit inside the enlarger-open family")
        enl = p.enlarger.table
        base = canonical_family(enl[u] for u in p.selector_at(point))
    else:
        raise ValueError(f"unknown variant {variant!r}; use 'plain' or 'enlarged'")
    if not is_filterbase(base):
        raise RuntimeError("neighbourhood base failed the filterbase laws")
    if not converges(Filter(p.topology.n, intersect_all(base, p.topology.full)), p, point):
        raise RuntimeError("neighbourhood base failed to converge at its point")
    return base


def convergence_closure(p: OpPair, a: int, exhaustive: bool = False) -> int:
    """Points reachable as limits of filters containing ``a``.

    A filter contains ``a`` when its core sits inside ``a``.  Shrinking
    the core only helps convergence, so scanning the singleton cores of
    ``a`` suffices; ``exhaustive`` forces the full scan over all nonempty
    cores inside ``a`` for cross-validation.
    """
    if a == 0:
        return 0  # no filter can contain the empty set
    n = p.topology.n
    if exhaustive:
        cores = [c for c in submasks_desc(a) if c]
    else:
        cores = [1 << x for x in range(n) if a >> x & 1]
    out = 0
    for x in range(n):
        env = p.envelope(x)
        if any(c & ~env == 0 for c in cores):
            out |= 1 << x
    return out
