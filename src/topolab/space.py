"""Finite topological spaces with exact interior and closure.

Ground sets are capped at 16 points so that every subset is a single
machine word and every map on subsets can be tabulated in full.  Open-set
families are closed under arbitrary unions and intersections; both axioms
are checked, and topologies generated, by one subset-lattice pass each
(:func:`topolab.bits.union_closure`) rather than by scanning member pairs.
"""

from __future__ import annotations

import random
import string
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

from .bits import canonical_family, intersection_closure, iter_points, subsets, union_closure

MAX_POINTS = 16


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

    def mask_of_labels(self, names: Iterable[str]) -> int:
        index = {lab: i for i, lab in enumerate(self.labels)}
        m = 0
        for name in names:
            if name not in index:
                raise KeyError(f"unknown point label {name!r}")
            m |= 1 << index[name]
        return m

    def labels_of_mask(self, mask: int) -> list[str]:
        return [self.labels[i] for i in iter_points(mask)]


def default_ground(n: int) -> GroundSet:
    """Points named a, b, c, ... for quick construction."""
    if n > MAX_POINTS:
        raise ValueError(f"ground sets are capped at {MAX_POINTS} points")
    return GroundSet(tuple(string.ascii_lowercase[:n]))


class Topology:
    """A ground set plus its family of open sets.

    The constructor validates the axioms; use :func:`build_topology` to
    generate the smallest topology containing an arbitrary seed family.
    Instances are immutable and safe to share between threads.
    """

    __slots__ = ("ground", "opens", "_min_nbhd", "_hash")

    def __init__(self, ground: GroundSet, opens: Iterable[int]):
        fam = canonical_family(opens)
        problem = family_violation(ground, fam)
        if problem is not None:
            raise ValueError(f"not a topology: {problem}")
        object.__setattr__(self, "ground", ground)
        object.__setattr__(self, "opens", fam)
        object.__setattr__(self, "_min_nbhd", None)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("Topology is immutable")

    @property
    def n(self) -> int:
        return self.ground.size

    @property
    def full(self) -> int:
        return self.ground.full

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
        shown = " ".join(_braced(self.ground, m) for m in self.opens)
        return f"Topology(n={self.n}, opens={shown})"

    def min_nbhd(self, point: int) -> int:
        """Smallest open set containing ``point``.

        Exists because the open family is intersection-closed and finite;
        it is the workhorse behind interior and closure.
        """
        table = self._min_nbhd
        if table is None:
            table = []
            for x in range(self.n):
                m = self.full
                for u in self.opens:
                    if u >> x & 1:
                        m &= u
                table.append(m)
            object.__setattr__(self, "_min_nbhd", tuple(table))
            table = self._min_nbhd
        return table[point]

    def interior(self, a: int) -> int:
        """Union of all open sets inside ``a`` (the largest open subset).

        Computed point by point: x lies in the interior exactly when its
        minimal open neighbourhood fits inside ``a``.
        """
        out = 0
        rest = a
        while rest:
            low = rest & -rest
            if self.min_nbhd(low.bit_length() - 1) & ~a == 0:
                out |= low
            rest ^= low
        return out

    def closure(self, a: int) -> int:
        """Smallest closed superset of ``a``; complement-dual of interior."""
        return self.full ^ self.interior(self.full ^ a)


def family_violation(ground: GroundSet, family: Sequence[int]) -> Optional[str]:
    """Why ``family`` fails the topology axioms, or None if it passes.

    A closure failure names the smallest missing union or intersection.
    """
    full = ground.full
    for m in family:
        if m & ~full:
            return f"member {m:#x} uses bits outside the ground set"
    members = set(family)
    if 0 not in members:
        return "the empty set is missing"
    if full not in members:
        return "the whole space is missing"
    n = ground.size
    missing = [m for m in union_closure(members, n) if m not in members]
    if missing:
        return (
            f"not closed under union: {_braced(ground, missing[0])} "
            "is a union of members but is missing"
        )
    missing = [m for m in intersection_closure(members, n) if m not in members]
    if missing:
        return (
            f"not closed under intersection: {_braced(ground, missing[0])} "
            "is an intersection of members but is missing"
        )
    return None


def _braced(ground: GroundSet, mask: int) -> str:
    return "{" + ",".join(ground.labels_of_mask(mask)) + "}"


def is_topology(ground: GroundSet, family: Sequence[int]) -> bool:
    return family_violation(ground, family) is None


def build_topology(ground: GroundSet, subbasis: Iterable[int]) -> Topology:
    """Smallest topology containing ``subbasis``.

    Every open set of it is a union of minimal neighbourhoods, the minimal
    neighbourhood of x being the intersection of the whole space and the
    subbasis members containing x (Alexandroff), so one union-closure
    pass over those n sets gives the whole family.
    """
    full = ground.full
    nbhd = [full] * ground.size
    for m in subbasis:
        if m & ~full:
            raise ValueError(f"subbasis member {m:#x} uses bits outside the ground set")
        for x in iter_points(m):
            nbhd[x] &= m
    return Topology(ground, union_closure(nbhd, ground.size))


def enumerate_topologies(n: int, labels: Optional[tuple[str, ...]] = None) -> Iterator[Topology]:
    """Every topology on an n-point ground set, exactly once.

    Candidates are all 2**(2**n) subset families, filtered through the
    axioms; families are ordered by their characteristic bitmask over
    P(X), which makes the stream canonical and reproducible.  Capped at
    n = 4; beyond that use :func:`random_topology`.
    """
    if n < 0 or n > 4:
        raise ValueError("exhaustive enumeration is capped at n = 4; use random_topology")
    ground = GroundSet(labels) if labels is not None else default_ground(n)
    count = 1 << n
    full = count - 1
    top_bit = 1 << full
    for fam_bits in range(1 << count):
        if not fam_bits & 1 or not fam_bits & top_bit:
            continue
        members = [m for m in range(count) if fam_bits >> m & 1]
        ok = True
        for i, a in enumerate(members):
            for b in members[i + 1:]:
                if not fam_bits >> (a | b) & 1 or not fam_bits >> (a & b) & 1:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            yield Topology(ground, members)


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
