"""Finite topological spaces with exact interior and closure.

Ground sets are capped at 16 points so that every subset is a single
machine word and every map on subsets can be tabulated in full.  Open-set
families are closed under arbitrary unions and intersections.  A family
is accepted, and topologies are generated, through the meets of its
points (Alexandroff) and one subset-lattice pass
(:func:`topolab.bits.union_closure_plane`) rather than by scanning member
pairs; acceptance reads the family's plane, never a set of its members.
"""

from __future__ import annotations

import random
import string
from dataclasses import dataclass
from functools import cached_property, wraps
from itertools import product
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .bits import (
    MAX_POINTS,
    Family,
    canonical_family,
    close_unions,
    complement_plane,
    contained_union_lanes,
    family_plane,
    identity_lanes,
    iter_points,
    members_holding,
    plane_meet,
    plane_props,
    point_meets,
    subsets,
    union_closure,
    union_closure_plane,
    unpack_lanes,
)

#: the largest ground set that is enumerated, and quantified over, in full
EXHAUSTIVE_POINTS = 4


def memoized(build: Callable) -> Callable:
    """Keep ``build(owner, *args)`` in the ``_memo`` dict of its owner, a
    space, an operation or a :class:`~topolab.pairs.PairKernel`, so it is
    built once and dies with the owner.  Every derived table of those
    objects is kept this way.

    A hit is one attribute read and one dict lookup: a pair's ``_memo``
    is its kernel's, so a pair passed in reads the kernel's rows
    directly, and a table with no arguments is keyed by ``build`` itself,
    the others by the tuple ``(build, *args)``, so the two never meet.
    On a miss ``build`` receives the owner's ``kernel`` in place of a
    pair, so it never sees the selector, and the owner itself otherwise.
    Values are pure functions of the owner, so racing writers agree."""

    @wraps(build)
    def read(owner, *args):
        memo = owner._memo
        key = (build, *args) if args else build
        got = memo.get(key)
        if got is None:
            got = memo[key] = build(getattr(owner, "kernel", owner), *args)
        return got

    return read


@dataclass(frozen=True)
class GroundSet:
    """n named points; the names are display-only."""

    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.labels) > MAX_POINTS:
            raise ValueError(f"ground sets are capped at {MAX_POINTS} points")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("point labels must be distinct")

    @property
    def size(self) -> int:
        return len(self.labels)

    @property
    def full(self) -> int:
        return (1 << len(self.labels)) - 1

    @cached_property
    def _index(self) -> dict[str, int]:
        """label -> point, built on first use and kept in the instance
        dict; not a field, so equality and hashing see ``labels`` only."""
        return {lab: i for i, lab in enumerate(self.labels)}

    def mask_of_labels(self, names: Iterable[str]) -> int:
        index = self._index
        m = 0
        for name in names:
            try:
                m |= 1 << index[name]
            except (KeyError, TypeError):  # a list read from JSON is unhashable
                raise KeyError(f"unknown point label {name!r}") from None
        return m

    def labels_of_mask(self, mask: int) -> list[str]:
        return [self.labels[i] for i in iter_points(mask)]

    @cached_property
    def _byte_names(self) -> tuple[tuple[str, ...], ...]:
        """Per byte of a mask, the comma-joined labels of each of its
        values: at most 2^8 strings per byte, built on first use and kept
        in the instance dict like :attr:`_index`."""
        tables = []
        for low in range(0, max(len(self.labels), 1), 8):
            names = [""]
            for lab in self.labels[low:low + 8]:
                names += [f"{s},{lab}" if s else lab for s in names]
            tables.append(tuple(names))
        return tuple(tables)

    def braced(self, *masks: int) -> str:
        """The masks as braced label lists, ``{a,b} {c}``: one read of
        :attr:`_byte_names` per byte of each mask; bits outside the
        ground set are ignored."""
        full, tables = self.full, self._byte_names
        if len(tables) == 1:
            names = tables[0]
            return " ".join(["{" + names[m & full] + "}" for m in masks])
        low, high = tables
        return " ".join(
            ["{" + ",".join(filter(None, (low[m & 255], high[(m & full) >> 8]))) + "}" for m in masks]
        )


def default_ground(n: int) -> GroundSet:
    """Points named a, b, c, ... for quick construction."""
    if n > MAX_POINTS:
        raise ValueError(f"ground sets are capped at {MAX_POINTS} points")
    return GroundSet(tuple(string.ascii_lowercase[:n]))


class Topology:
    """A ground set plus its family of open sets.

    The constructor validates the axioms; use :func:`build_topology` to
    generate the smallest topology containing an arbitrary seed family.
    ``n`` and ``full`` are fixed at construction from the ground set, so
    reading either is one slot read.  Instances are immutable and safe to
    share between threads.  Every table derived from the space (the
    minimal neighbourhoods, the interior table and its lanes, the planes
    of families and the closure verdicts of planes (:meth:`family_plane`,
    :meth:`plane_props`), and what other modules derive from it) is kept
    in ``_memo`` through :func:`memoized`, so it dies with the space;
    the pair kernels are registered there too, held weakly.  The
    minimal neighbourhoods enter ``_memo`` at construction, as the
    validation computes them anyway.  Pickling rebuilds through the
    constructor: validated, with a ``_memo`` holding only that table.
    """

    __slots__ = ("ground", "opens", "n", "full", "_memo", "_hash", "__weakref__")

    def __init__(self, ground: GroundSet, opens: Iterable[int]):
        fam = canonical_family(opens)
        memo: dict = {}
        problem = family_violation(ground, fam, memo)
        if problem is not None:
            raise ValueError(f"not a topology: {problem}")
        object.__setattr__(self, "ground", ground)
        object.__setattr__(self, "opens", fam)
        object.__setattr__(self, "n", ground.size)
        object.__setattr__(self, "full", ground.full)
        object.__setattr__(self, "_memo", memo)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("Topology is immutable")

    def __reduce__(self):
        return Topology, (self.ground, self.opens)

    def subsets(self) -> range:
        return subsets(self.n)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Topology)
            and self.ground.labels == other.ground.labels
            and self.opens == other.opens
        )

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.ground.labels, self.opens))
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self) -> str:
        return f"Topology(n={self.n}, opens={self.ground.braced(*self.opens)})"

    @memoized
    def min_nbhds(self) -> tuple[int, ...]:
        """``min_nbhds()[x]`` is the smallest open set containing x, the
        meet of the opens around it (one :func:`~topolab.bits.point_meets`
        of the rows (u, u)); the workhorse behind interior and closure.
        The constructor keeps the meets :func:`family_violation` computed,
        so this is read, not built.
        """
        return point_meets(zip(self.opens, self.opens), self.n)

    @memoized
    def int_lanes(self) -> tuple[int, int]:
        """The interior table as (lanes, lane width in bits), lane a
        holding the interior of a.

        x lies in the interior of a exactly when its minimal open
        neighbourhood fits inside a, so one subset-sum transform over the
        n pairs (min_nbhds()[x], {x}) tabulates every interior at once
        (:func:`~topolab.bits.contained_union_lanes`).  Every table of
        subsets of the space packs to these lanes' width, as each holds
        the whole space (the interior of the whole space is itself).
        """
        return contained_union_lanes(((m, 1 << x) for x, m in enumerate(self.min_nbhds())), self.n)

    @memoized
    def int_table(self) -> Sequence[int]:
        """``int_table()[a]`` is the interior of ``a``, for every subset:
        :meth:`int_lanes`, unpacked (:func:`~topolab.bits.unpack_lanes`),
        so a tuple up to 8 points and a read-only ``memoryview`` of the
        2-byte lanes from 9 points on."""
        return unpack_lanes(*self.int_lanes(), self.n)

    def identity_lanes(self) -> tuple[int, int]:
        """The identity table, lane a holding a, packed like
        :meth:`int_lanes`: ``identity & ~table`` is zero at lane a iff a
        sits inside ``table[a]``.  Every space of n points reads one
        table (:func:`~topolab.bits.identity_lanes`)."""
        return identity_lanes(self.n)

    def interior(self, a: int) -> int:
        """Union of all open sets inside ``a`` (the largest open subset)."""
        return self.int_table()[a]

    def closure(self, a: int) -> int:
        """Smallest closed superset of ``a``; complement-dual of interior."""
        return self.full ^ self.interior(self.full ^ a)

    @memoized
    def family_plane(self, family: Family) -> int:
        """The 2**n-bit plane of a canonical family of subsets of this
        space (:func:`~topolab.bits.family_plane`), kept per family: the
        pair kernels sharing a selector-open family read one plane."""
        return family_plane(family, self.n)

    @memoized
    def plane_props(self, plane: int) -> tuple[bool, bool]:
        """(intersection-closed, union-closed) for the family of subsets
        of this space flagged by the 2**n-bit ``plane``
        (:func:`~topolab.bits.plane_props`).  Kept per plane, keyed by
        the int, so each distinct family is measured once however many
        operations or pairs produce it."""
        return plane_props(plane, self.n)

    def family_props(self, family: Family) -> tuple[bool, bool]:
        """:meth:`plane_props` of a canonical family, through its plane
        (:meth:`family_plane`)."""
        return self.plane_props(self.family_plane(family))


def family_violation(ground: GroundSet, family: Sequence[int], memo: Optional[dict] = None) -> Optional[str]:
    """Why ``family`` fails the topology axioms, or None if it passes.

    A family holding both ends is a topology iff it equals the union
    closure of its points' meets (Alexandroff): the meet at x is the
    least member around x when the family is a topology, and the unions
    of those meets are a topology whatever the family, since y in the
    meet at x puts the meet at y inside it.  So acceptance reads the
    family's 2**n-bit plane: both ends are two bit tests, the meet at x
    is :func:`~topolab.bits.plane_meet` of the members holding x, and
    the union closure of the meets is one plane comparison.  Only a
    rejected family is diagnosed, by the union and then the intersection
    closure of its plane, naming the smallest missing union or
    intersection.  Given a ``memo`` dict, a passing family's meets are
    stored there as the :meth:`Topology.min_nbhds` table, which they are.
    """
    full = ground.full
    if family and (min(family) < 0 or max(family) > full):
        m = next(m for m in family if m & ~full)
        return f"member {m:#x} uses bits outside the ground set"
    n = ground.size
    plane = family_plane(family, n)
    if not plane & 1:
        return "the empty set is missing"
    if not plane >> full & 1:
        return "the whole space is missing"
    meets = tuple(plane_meet(members_holding(plane, n, x), n) for x in range(n))
    if union_closure_plane(meets, n) == plane:
        if memo is not None:
            memo[Topology.min_nbhds.__wrapped__] = meets
        return None
    missing = close_unions(plane, n) & ~plane
    if missing:
        return (
            f"not closed under union: {ground.braced(_lowest(missing))} "
            "is a union of members but is missing"
        )
    comp = complement_plane(plane, n)
    missing = complement_plane(close_unions(comp, n), n) & ~plane
    return (
        f"not closed under intersection: {ground.braced(_lowest(missing))} "
        "is an intersection of members but is missing"
    )


def _lowest(plane: int) -> int:
    """The smallest set a nonzero plane flags."""
    return (plane & -plane).bit_length() - 1


def is_topology(ground: GroundSet, family: Sequence[int]) -> bool:
    return family_violation(ground, family) is None


def build_topology(ground: GroundSet, subbasis: Iterable[int]) -> Topology:
    """Smallest topology containing ``subbasis``.

    Every open set of it is a union of minimal neighbourhoods, the minimal
    neighbourhood of x being the intersection of the whole space and the
    subbasis members containing x (Alexandroff), all n one
    :func:`~topolab.bits.point_meets` of the rows (m, m), so one
    union-closure pass over those n sets gives the whole family.
    """
    subbasis = tuple(subbasis)
    for m in subbasis:
        if m & ~ground.full:
            raise ValueError(f"subbasis member {m:#x} uses bits outside the ground set")
    nbhd = point_meets(zip(subbasis, subbasis), ground.size)
    return Topology(ground, union_closure(nbhd, ground.size))


def enumerate_topologies(n: int, labels: Optional[tuple[str, ...]] = None) -> Iterator[Topology]:
    """Every topology on an n-point ground set, exactly once.

    A finite topology is fixed by its minimal neighbourhoods (Stong
    1966): each point x picks a set N(x) holding x, such that N(y) sits
    inside N(x) for every y in N(x), and the opens are the unions of
    those sets.  Spaces are ordered by the characteristic bitmask of
    their open family over P(X), which makes the stream canonical and
    reproducible.  Capped at n = :data:`EXHAUSTIVE_POINTS`; beyond that
    use :func:`random_topology`.
    """
    if n < 0 or n > EXHAUSTIVE_POINTS:
        raise ValueError(f"exhaustive enumeration is capped at n = {EXHAUSTIVE_POINTS}; use random_topology")
    ground = GroundSet(labels) if labels is not None else default_ground(n)
    choices = [[m for m in subsets(n) if m >> x & 1] for x in range(n)]
    families = [
        union_closure(nbhd, n)
        for nbhd in product(*choices)
        if all(nbhd[y] & ~m == 0 for m in nbhd for y in iter_points(m))
    ]
    families.sort(key=lambda opens: family_plane(opens, n))
    for opens in families:
        yield Topology(ground, opens)


def random_topology(
    n: int,
    seed: int,
    subbasis_size: int,
    labels: Optional[tuple[str, ...]] = None,
) -> Topology:
    """Topology generated from ``subbasis_size`` seeded uniform subsets.

    Deterministic in (n, seed): the same arguments always give the same
    space.
    """
    if n > MAX_POINTS:
        raise ValueError(f"ground sets are capped at {MAX_POINTS} points")
    ground = GroundSet(labels) if labels is not None else default_ground(n)
    rng = random.Random(seed)
    seeds = [rng.randrange(1 << n) for _ in range(subbasis_size)]
    return build_topology(ground, seeds)


# Small named spaces used throughout the docs and tests.

def sierpinski() -> Topology:
    """Two points, one of them open: opens are {}, {a}, {a,b}."""
    g = default_ground(2)
    return Topology(g, (0, 0b01, 0b11))


def chain3() -> Topology:
    """Three points with a nested chain of opens {}, {a}, {a,b}, X."""
    g = default_ground(3)
    return Topology(g, (0, 0b001, 0b011, 0b111))


def discrete(n: int) -> Topology:
    g = default_ground(n)
    return Topology(g, range(1 << n))


def indiscrete(n: int) -> Topology:
    g = default_ground(n)
    return Topology(g, (0, g.full))
