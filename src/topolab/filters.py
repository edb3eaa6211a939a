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
members.  Whether an enlargement t traps a member of base j is bit j of
one member table ``has[t]``, the subset-sum transform of the pairs
(member, 1 << j) (:func:`member_table`): the literal up-set of the
members, never their meet.  Grouping the selector-open sets by their
enlargement, the bases' limits and adherences (an enlargement misses a
member iff its complement traps it) are then one pass over the distinct
enlargements, kept as one row per point with bit j for base j
(:func:`base_rows`); :func:`limit_set` reads one base off those rows,
and :func:`adherence_set` ANDs the members' pair-closures instead.  The
exhaustive convergence closure asks for a nonempty core inside both the
set and a point's envelope: one AND of two submask planes per point.
The per-point predicates :func:`converges` and :func:`accumulates` keep
the literal rules.

A sweep quantifies over a list of cores and checks those rules on rows
indexed by position: :func:`point_rows` transposes a kernel's limit or
adherence sets of the cores into one row per point, bit i standing for
the i-th core (:func:`spread_rows` ORs any flags instead, say the bases
sharing a core), and the core table ``inside[t]`` (:func:`member_table` of
the cores, one member each) flags the cores inside t.  A literal rule is
then one table row per member: :func:`rows_within` ANDs ``inside[t]``
over the sets t around each point, :func:`rows_meeting` the complements
of ``inside[full ^ t]``, and :func:`points_reached` reads which points a
set of positions (say the cores inside a set, ``inside[s]``) reaches.
The refinement construction is :func:`refined_core`, on the kernel.

The neighbourhood filterbases at a point are 2**n-bit planes, bit a for
subset a (:func:`nbhd_plane`): the plain base is the selector-open
family's plane ANDed with the plane of the sets holding the point, and
the enlarged base the plane of the enlargements whose image group holds
the point, transposed once per kernel from the groups.  Their filterbase
laws and convergence are checked on the members the plane flags, the
meet taken over them one point at a time; :func:`nbhd_filterbase` lists
the members only for a caller that asks for them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence, Union

from .bits import (
    Family,
    contained_union_table,
    down_plane,
    intersect_all,
    iter_points,
    mask_of,
    members_holding,
    plane_meet,
    plane_members,
    point_meets,
    submasks_desc,
)
from .ops import neighborhoods
from .pairs import (
    OpPair,
    PairKernel,
    _kernel_report,
    enlarger_is_regular,
    envelopes,
    image_groups,
    image_planes,
    int_table,
    pair_closure,
)
from .space import Topology, memoized


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


def converges(f: FilterLike, p: OpPair, point: int) -> bool:
    """Whether every enlarged selector-open neighbourhood of ``point``
    traps a member."""
    if isinstance(f, Filter):
        return f.core & ~p.envelope(point) == 0
    enl = p.enlarger.table
    members = _members_of(f)
    for u in p.selector_at(point):
        target = enl[u]
        if not any(m & ~target == 0 for m in members):
            return False
    return True


def accumulates(f: FilterLike, p: OpPair, point: int) -> bool:
    """Whether ``point`` is in the pair-closure of every member."""
    return all(pair_closure(p, m) >> point & 1 for m in _members_of(f))


@memoized
def _point_limits(k: PairKernel) -> tuple[int, ...]:
    """``_point_limits(p)[i]`` holds the points whose envelope holds i:
    the limit set of the principal filter at {i}.  One row per kernel."""
    n, env = k.topology.n, envelopes(k)
    return tuple(mask_of(x for x in range(n) if env[x] >> i & 1) for i in range(n))


class _CoreRow(dict):
    """Core -> limit (or adherence) set of the principal filter at that
    core, computed on first read and kept.  A sweep reads the rows of one
    kernel hundreds of thousands of times, so a hit is a plain dict
    lookup."""

    __slots__ = ("_of",)

    def __init__(self, of: Callable[[int], int]):
        super().__init__()
        self._of = of

    def __missing__(self, core: int) -> int:
        got = self[core] = self._of(core)
        return got


@memoized
def principal_rows(k: PairKernel) -> tuple[_CoreRow, _CoreRow]:
    """(limits, adherences) of the principal filters, by core: one pair
    of rows per kernel, filled as cores are read.  A core's limit set is
    the AND of :func:`_point_limits` over its points, since the core sits
    in the envelope of x iff each of its points does; its adherence set
    is its pair-closure.  :func:`limit_set` reads a :class:`Filter`
    off the limit row."""
    full, limits, inner = k.topology.full, _point_limits(k), int_table(k)

    def limit(core: int) -> int:
        out = full
        for i in iter_points(core):
            out &= limits[i]
        return out

    return _CoreRow(limit), _CoreRow(lambda core: full ^ inner[full ^ core])


def member_table(bases: Sequence[Sequence[int]], n: int) -> list[int]:
    """``has[t]`` flags, by bit j, the bases ``bases[j]`` with a member
    inside t: one subset-sum transform of the pairs (member, 1 << j)."""
    return contained_union_table(
        ((m, 1 << j) for j, base in enumerate(bases) for m in base), n
    )


def base_rows(p: OpPair, bases: Sequence[Sequence[int]],
              has: Sequence[int] | None = None) -> tuple[list[int], list[int]]:
    """(limits, adherences): ``limits[x]`` flags, by bit j, the bases of
    ``bases`` that converge to x, and ``adherences[x]`` those that
    accumulate at x.

    Base j traps a member in t iff bit j of ``has[t]``
    (:func:`member_table` of ``bases``, built here unless given).
    Convergence fails at x iff some selector-open set around x has an
    enlargement t trapping no member, so base j misses x iff some group
    (t, union holding x) of :func:`~topolab.pairs.image_groups` has t
    lacking bit j.  x misses the pair-closure of a member m iff some such
    t misses m, that is m sits inside ``full ^ t``, so base j does not
    accumulate at x iff some group has bit j of ``has[full ^ t]``.  One
    pass over the groups merges them by each missed pattern, and each
    distinct pattern is spread over the points of its merged union once.
    """
    n, full = p.topology.n, p.topology.full
    if has is None:
        has = member_table(bases, n)
    everyone = (1 << len(bases)) - 1
    unlimited: dict[int, int] = {}
    unadherent: dict[int, int] = {}
    for t, group in image_groups(p):
        missed = everyone ^ has[t]
        if missed:
            unlimited[missed] = unlimited.get(missed, 0) | group
        missed = has[full ^ t]
        if missed:
            unadherent[missed] = unadherent.get(missed, 0) | group
    return tuple(
        [everyone ^ row for row in spread_rows(zip(by_missed.values(), by_missed), n)]
        for by_missed in (unlimited, unadherent)
    )


def limit_set(f: FilterLike, p: OpPair) -> int:
    """The points ``f`` converges to."""
    if isinstance(f, Filter):
        return principal_rows(p)[0][f.core]
    return points_reached(1, base_rows(p, (tuple(f),))[0])


def adherence_set(f: FilterLike, p: OpPair) -> int:
    """The points ``f`` accumulates at: the meet of its members'
    pair-closures, read off one pair-interior table (one lookup for a
    principal filter)."""
    if isinstance(f, Filter):
        return pair_closure(p, f.core)
    inner, full = int_table(p), p.topology.full
    out = full
    for m in f:
        out &= full ^ inner[full ^ m]
    return out


def finer_convergent(f: Filter, p: OpPair, point: int) -> Filter:
    """Refine an accumulating filter into one converging to ``point``.

    The refinement is generated by the base of enlarged neighbourhoods
    of the point cut with the filter members.  Only guaranteed when the
    enlarger is regular with respect to the selector-open family and the
    filter accumulates at the point; both preconditions are enforced,
    and the construction itself is :func:`refined_core`.
    """
    if not enlarger_is_regular(p):
        raise ValueError("enlarger is not regular w.r.t. the selector-open family")
    if not accumulates(f, p, point):
        raise ValueError("filter does not accumulate at the point")
    out = Filter(f.n, refined_core(p, f.core, point))
    if not out.is_finer_than(f) or not converges(out, p, point):
        raise RuntimeError("refined filter failed its contract")
    return out


def refined_core(k: PairKernel, core: int, point: int) -> int:
    """The core of the filter that the enlarged neighbourhoods of
    ``point`` cut with the members of the principal filter at ``core``
    generate, for a pair or its kernel; the preconditions of
    :func:`finer_convergent` are left to the caller.  Raises
    RuntimeError when the cuts are no filterbase.

    Closed form: every cut ``enl[u] & m`` (u selector-open around the
    point, m a superset of the core) holds ``meet = core &
    envelope(point)``, the meet of them all.  If ``enl[u] & m == meet``
    then ``meet <= enl[u] & core <= enl[u] & m``, so the meet is a cut
    exactly when some u has ``enl[u] & core == meet`` (take m = core),
    that is, when ``enl[u]`` misses ``core & ~envelope(point)``: when the
    point lies in the pair interior of the complement of that set.  A
    finite family is a filterbase exactly when it holds its own nonempty
    meet, so the cuts are one iff the meet is nonempty and the point is
    in that interior, and they generate the principal filter at the meet.
    """
    meet = core & envelopes(k)[point]
    if not meet or not int_table(k)[k.topology.full ^ core ^ meet] >> point & 1:
        raise RuntimeError("refinement base failed the filterbase laws")
    return meet


def point_rows(values: Sequence[int], n: int) -> list[int]:
    """``out[x]`` flags, by bit i, the entries ``values[i]`` that hold
    point x: the transpose of a row of n-bit sets into n rows indexed by
    position (:func:`spread_rows` with one flag per position)."""
    return spread_rows(zip(values, map((1).__lshift__, range(len(values)))), n)


def spread_rows(pairs: Iterable[tuple[int, int]], n: int) -> list[int]:
    """``out[x]`` is the OR of the flags m over the pairs (v, m) whose
    n-bit set v holds x, one step per set bit of each v."""
    out = [0] * n
    for v, flags in pairs:
        while v:
            low = v & -v
            out[low.bit_length() - 1] |= flags
            v ^= low
    return out


def rows_within(inside: Sequence[int], images: Sequence[Iterable[int]], everyone: int) -> list[int]:
    """``out[x]`` flags the positions whose core sits inside every t of
    ``images[x]``: the AND of the rows ``inside[t]`` of a core table
    (:func:`member_table` of the cores, one member each)."""
    out = []
    for around in images:
        row = everyone
        for t in around:
            row &= inside[t]
        out.append(row)
    return out


def rows_meeting(inside: Sequence[int], images: Sequence[Iterable[int]], everyone: int,
                 full: int) -> list[int]:
    """``out[x]`` flags the positions whose core meets every t of
    ``images[x]``: a core misses t iff it sits inside ``full ^ t``."""
    out = []
    for around in images:
        missed = 0
        for t in around:
            missed |= inside[full ^ t]
        out.append(everyone & ~missed)
    return out


def points_reached(positions: int, rows: Sequence[int]) -> int:
    """The points x whose row ``rows[x]`` flags one of ``positions``."""
    out = 0
    for x, row in enumerate(rows):
        if row & positions:
            out |= 1 << x
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
    selector-open u around x; the points not separated, its complement,
    are one :func:`~topolab.bits.point_meets` of the complements, one
    row per distinct enlargement t (:func:`~topolab.pairs.image_groups`),
    around the points of t's group.  That meet may hold x itself, so
    only the other points are asked for.
    """
    inner, full = int_table(p), p.topology.full
    rows = ((full ^ inner[full ^ t], union) for t, union in image_groups(p))
    return not any((full ^ 1 << x) & m for x, m in enumerate(point_meets(rows, p.topology.n)))


def nbhd_filterbase(p: OpPair, point: int, variant: str = "plain") -> Family:
    """The neighbourhood filterbase at a point, plain or enlarged.

    plain     the selector-open sets around the point; requires the
              selector-open family to be intersection-closed and to sit
              inside the enlarger-open family
    enlarged  their enlargements; requires the enlarger to be regular
              w.r.t. the selector-open family, same nesting

    The returned base always generates a filter converging to ``point``;
    that contract is enforced rather than assumed.  The members are
    listed off the checked plane (:func:`nbhd_plane`); a base that fails
    raises on every call.
    """
    return plane_members(nbhd_plane(p, point, variant))


@memoized
def nbhd_plane(k: PairKernel, point: int, variant: str) -> int:
    """:func:`nbhd_filterbase` as a 2**n-bit plane, checked, for a pair
    or its kernel, and kept on the kernel.

    plain     the selector-open family's plane AND the plane of the sets
              holding the point (:func:`~topolab.bits.members_holding`)
    enlarged  the plane of the distinct enlargements around the point,
              from the image groups (:func:`~topolab.pairs.image_planes`)

    The literal contract holds on the members the plane flags: the
    filterbase laws (:func:`is_filterbase`: some member, none empty, and
    their meet among them), with the meet computed from the members
    (:func:`~topolab.bits.plane_meet`), never read off the envelopes;
    the filter the base generates, at that meet, converges iff the meet
    sits inside the point's envelope.
    """
    nested = _kernel_report(k).family_nested
    n = k.topology.n
    if variant == "plain":
        if not k.topology.plane_props(k.key[0])[0]:
            raise ValueError("selector-open family is not intersection-closed")
        if not nested:
            raise ValueError("selector-open family does not sit inside the enlarger-open family")
        plane = members_holding(k.key[0], n, point)
    elif variant == "enlarged":
        if not enlarger_is_regular(k):
            raise ValueError("enlarger is not regular w.r.t. the selector-open family")
        if not nested:
            raise ValueError("selector-open family does not sit inside the enlarger-open family")
        plane = image_planes(k)[point]
    else:
        raise ValueError(f"unknown variant {variant!r}; use 'plain' or 'enlarged'")
    meet = plane_meet(plane, n)
    if not plane or plane & 1 or not plane >> meet & 1:
        raise RuntimeError("neighbourhood base failed the filterbase laws")
    if meet & ~envelopes(k)[point]:
        raise RuntimeError("neighbourhood base failed to converge at its point")
    return plane


@memoized
def neighbourhood_images(k: PairKernel) -> tuple[frozenset[int], ...]:
    """The distinct enlargements of the up-set around each point: every
    superset of a selector-open set around it
    (:func:`~topolab.ops.neighborhoods`), enlarged.  The literal rule of
    the superset-closed neighbourhood variant, one row per kernel."""
    enl, n = k.enlarger.table, k.topology.n
    return tuple(frozenset(map(enl.__getitem__, neighborhoods(n, k.family, x))) for x in range(n))


@memoized
def _envelope_planes(k: PairKernel) -> tuple[int, ...]:
    """The submask plane of each point's envelope, one row per kernel."""
    return tuple(down_plane((env,), k.topology.n) for env in envelopes(k))


def convergence_closure(p: OpPair, a: int, exhaustive: bool = False) -> int:
    """Points reachable as limits of filters containing ``a``.

    A filter contains ``a`` when its core sits inside ``a``.  Shrinking
    the core only helps convergence, so scanning the singleton cores of
    ``a`` suffices; ``exhaustive`` asks over all nonempty cores inside
    ``a`` instead, for cross-validation: x is reached iff the submask
    plane of ``a`` and that of x's envelope share a bit other than the
    empty core's (bit 0).
    """
    singleton, every = convergence_closures(p, (a,))
    return every[0] if exhaustive else singleton[0]


def convergence_closures(p: OpPair, sets: Sequence[int]) -> tuple[list[int], list[int]]:
    """:func:`convergence_closure` of each of ``sets`` by both routes in
    one pass: the singleton scan on the envelopes (a singleton core
    inside ``a`` converges to x iff it sits in x's envelope) and the
    exhaustive scan on their submask planes.  No filter contains the
    empty set, and both routes read 0 there."""
    n = p.topology.n
    rows = list(zip(range(n), envelopes(p), _envelope_planes(p)))
    singleton, exhaustive = [], []
    for a in sets:
        plane = down_plane((a,), n) & ~1
        one = every = 0
        for x, env, env_plane in rows:
            if a & env:
                one |= 1 << x
            if plane & env_plane:
                every |= 1 << x
        singleton.append(one)
        exhaustive.append(every)
    return singleton, exhaustive
