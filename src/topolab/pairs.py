"""Interior and closure induced by an ordered pair of operations.

The first operation of a pair selects neighbourhoods (through its open
family), the second enlarges them: a point is in the pair-interior of A
when some selector-open set around it has its enlargement inside A.
Complementation gives the pair-closure.  The fixed sets of this interior
form a supratopology, which under extra hypotheses on the pair upgrades
to a topology with a Kuratowski closure; :func:`classify_structure`
measures exactly which rungs of that ladder a pair reaches, each in
closed form off the pair-interior table.

The pair's distinct enlargements (:func:`image_groups`: each t with the
union of the selector-open sets enlarged to t) give the pointwise
closure rule and the per-point envelopes in one pass each.  They are
built on demand and not kept on the pair.

Classical generalized-open families (semi-open, pre-open, regular-open,
the theta and semi-regularization variants) are provided by
:func:`named_family` through direct defining rules, independent of the
pair machinery, so equalities between the two routes are genuine checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .bits import (
    Family, canonical_family, contained_union_table, family_plane, iter_points,
    union_closure_plane, within_image,
)
from .ops import Operation, at_point, is_monotone, is_regular_wrt, leq, op_open_family
from .space import Topology, build_topology

#: Families constructible by an independent defining rule.
NAMED_FAMILIES = (
    "SO", "SC", "PO", "PC", "RO", "RC", "SR",
    "tau_theta", "tau_s", "SthetaO", "SthetaC", "thetaSO", "thetaSC",
)


class OpPair:
    """An ordered pair (selector, enlarger) of operations over one space."""

    __slots__ = (
        "topology", "selector", "enlarger",
        "_int_table", "_open_family", "_envelopes", "_cache",
    )

    def __init__(self, selector: Operation, enlarger: Operation):
        if selector.topology != enlarger.topology:
            raise ValueError("pair members live over different topologies")
        object.__setattr__(self, "topology", selector.topology)
        object.__setattr__(self, "selector", selector)
        object.__setattr__(self, "enlarger", enlarger)
        object.__setattr__(self, "_int_table", None)
        object.__setattr__(self, "_open_family", None)
        object.__setattr__(self, "_envelopes", None)
        # memo space for derived structures; values are pure functions of
        # the pair, so racing writers agree and the dict stays consistent
        object.__setattr__(self, "_cache", {})

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("OpPair is immutable")

    def __repr__(self) -> str:
        return f"OpPair({self.selector.name},{self.enlarger.name}, n={self.topology.n})"

    @property
    def name(self) -> str:
        return f"{self.selector.name},{self.enlarger.name}"

    def selector_open(self) -> Family:
        return op_open_family(self.selector)

    def selector_at(self, point: int) -> Family:
        """Selector-open sets containing ``point``, cached per point."""
        cache = self._cache
        key = ("at", point)
        got = cache.get(key)
        if got is None:
            got = cache[key] = at_point(self.selector_open(), point)
        return got

    def int_table(self) -> tuple[int, ...]:
        table = self._int_table
        if table is None:
            enl = self.enlarger.table
            # pair-interior of a = union of the selector-open sets whose
            # enlargement sits inside a; a subset-sum transform gives the whole
            # table at once instead of |selector-open| work per entry
            fam = self.selector_open()
            pairs = zip(map(enl.__getitem__, fam), fam)
            table = tuple(contained_union_table(pairs, self.topology.n))
            object.__setattr__(self, "_int_table", table)
        return table

    def envelope(self, point: int) -> int:
        """Intersection of the enlargements of all selector-open sets
        around ``point``; a principal filter converges there exactly when
        its core sits inside this set.

        The envelope of x is the meet of the distinct enlargements t
        whose group (:func:`image_groups`) holds x, so all n envelopes
        come from one pass over the groups, each t ANDed into the
        envelopes of its group's points.
        """
        env = self._envelopes
        if env is None:
            env = [self.topology.full] * self.topology.n
            for t, union in image_groups(self):
                for x in iter_points(union):
                    env[x] &= t
            env = tuple(env)
            object.__setattr__(self, "_envelopes", env)
        return env[point]


def pair_interior(p: OpPair, a: int) -> int:
    """Union of the selector-open sets whose enlargement fits inside ``a``."""
    return p.int_table()[a]


def pair_closure(p: OpPair, a: int) -> int:
    """Complement-dual of :func:`pair_interior`."""
    full = p.topology.full
    return full ^ p.int_table()[full ^ a]


def pair_closure_by_points(p: OpPair, sets: Iterable[int]) -> list[int]:
    """The pair-closure of each of ``sets``, computed from its own
    pointwise rule (every enlarged selector-open set around the point
    meets the set).

    A point falls outside exactly when some selector-open set around it
    has an enlargement missing the set.  With the selector-open sets
    grouped by enlargement t (:func:`image_groups`, built once for all
    of ``sets``), the outside is the union of the groups whose t misses
    the set.  Kept as a second route so the complement identity stays
    testable.
    """
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


def enlarger_is_regular(p: OpPair) -> bool:
    """:func:`is_regular_wrt` of the enlarger over the selector-open
    family, cached on the pair.

    Fast path: a monotone enlarger is regular over an
    intersection-closed family, as the meet of two neighbourhoods of a
    point is a third whose image squeezes under both images.
    """
    got = p._cache.get("regular")
    if got is None:
        fam = p.selector_open()
        got = p._cache["regular"] = (
            is_monotone(p.enlarger) and p.topology.family_props(fam)[0]
        ) or is_regular_wrt(p.enlarger, fam)
    return got


def pair_open_family(p: OpPair) -> Family:
    """The sets a inside their pair-interior (:func:`~topolab.bits.within_image`
    of the pair-interior table)."""
    fam = p._open_family
    if fam is None:
        fam = within_image(p.int_table())
        object.__setattr__(p, "_open_family", fam)
    return fam


def pair_closed_family(p: OpPair) -> Family:
    full = p.topology.full
    return canonical_family(full ^ a for a in pair_open_family(p))


@dataclass(frozen=True)
class StructureReport:
    """How much structure the pair-open family and pair-closure carry."""

    is_supratopology: bool
    is_topology: bool
    closed_iff_cl_subset: bool
    closed_iff_cl_equal: bool
    is_kuratowski: bool


def classify_structure(p: OpPair) -> StructureReport:
    """The axioms the pair-open family and the pair-closure satisfy, each
    in closed form off the pair-interior table ``int``; the closure is
    its complement dual, cl(k) = X minus int(X minus k).

    The two family axioms are read off the space's memo of closure
    verdicts.  For the others, write c for the complement of k:

    closed_iff_cl_subset  holds by construction.  c is pair-open iff
        c sits inside int(c) (how :func:`pair_open_family` reads the
        table), iff X minus int(c) misses c, iff cl(k) sits inside k.
    closed_iff_cl_equal   holds iff int(a) = a for every pair-open a.
        cl(k) = k iff int(c) = c, which makes c pair-open; so the flag
        fails exactly at a pair-open c with int(c) != c.
    is_kuratowski         holds iff cl(empty) = empty, every
        selector-open u sits inside enl[u], every pair-interior image
        is a fixed point of int, and the enlarger is regular over the
        selector-open family (:func:`enlarger_is_regular`).  Dually the
        closure axioms read int(X) = X, int(c) inside c,
        int(int(c)) = int(c) and int(c & d) = int(c) & int(d), taken in
        turn:
        - extensive: if every u sits inside enl[u] (the
          ``family_nested`` flag of :func:`base_report`), a u whose
          enlargement fits inside c fits inside c; conversely take
          c = enl[u], whose interior holds u and sits inside enl[u];
        - idempotent: int(i) = i for every image i = int(c), read over
          the distinct images; given the previous axiom, int(i) sits
          inside i, so this says every pair-interior image is pair-open;
        - multiplicative: int(c & d) inside int(c) & int(d) holds as
          int is monotone.  The converse at x needs, for u and v around
          x enlarged inside c and d, a w around x enlarged inside
          c & d, which is regularity; conversely take c = enl[u] and
          d = enl[v].  Finite additivity of cl is this identity
          through the complements, given cl(empty) = empty.
    ``tests/oracles.literal_structure`` reads all five flags off their
    wording.
    """
    top = p.topology
    full = top.full
    table = p.int_table()
    fam = pair_open_family(p)

    inter_closed, union_closed = top.family_props(fam)
    supra = fam[-1] == full and union_closed  # fam is sorted ascending
    topo = supra and inter_closed

    equal_ok = all(table[a] == a for a in fam)
    kur = (
        table[full] == full
        and base_report(p).family_nested
        and all(table[i] == i for i in set(table))
        and enlarger_is_regular(p)
    )

    return StructureReport(
        is_supratopology=supra,
        is_topology=topo,
        closed_iff_cl_subset=True,
        closed_iff_cl_equal=equal_ok,
        is_kuratowski=kur,
    )


def named_family(top: Topology, name: str) -> Family:
    """A classical generalized-open family by its direct defining rule.

    SO / SC      semi-open (A inside cl int A) and complements
    PO / PC      pre-open (A inside int cl A) and complements
    RO / RC      regular-open (A = int cl A) / regular-closed (A = cl int A)
    SR           semi-regular: semi-open and semi-closed
    tau_theta    sets containing a closed neighbourhood of each point
    tau_s        topology generated by the regular-open sets
    SthetaO/C    semi-theta-open: a semi-closure-sized semi-open
                 neighbourhood of each point fits inside; and complements
    thetaSO/C    theta-semi-open: a closure-sized semi-open neighbourhood
                 of each point fits inside; and complements

    Memoized per name on the space, so each family is built once and
    dies with the space.
    """
    key = ("pairs.named_family", name)
    got = top._memo.get(key)
    if got is None:
        got = top._memo[key] = _named_family_rule(top, name)
    return got


def _named_family_rule(top: Topology, name: str) -> Family:
    """The defining rule of one :func:`named_family`, read off the
    space's interior table."""
    it, full = top.int_table().__getitem__, top.full
    subs = top.subsets()

    def cl(a: int) -> int:
        return full ^ it(full ^ a)

    def compl(fam: Sequence[int]) -> Family:
        return canonical_family(full ^ a for a in fam)

    if name == "SO":
        return tuple(a for a in subs if a & ~cl(it(a)) == 0)
    if name == "SC":
        return compl(named_family(top, "SO"))
    if name == "PO":
        return tuple(a for a in subs if a & ~it(cl(a)) == 0)
    if name == "PC":
        return compl(named_family(top, "PO"))
    if name == "RO":
        return tuple(a for a in subs if a == it(cl(a)))
    if name == "RC":
        return tuple(a for a in subs if a == cl(it(a)))
    if name == "SR":
        sc = set(named_family(top, "SC"))
        return tuple(a for a in named_family(top, "SO") if a in sc)
    if name == "tau_theta":
        # a is in the family when each of its points has an open set
        # whose closure fits inside a; the transform collects those witnesses
        witness = contained_union_table(((cl(u), u) for u in top.opens), top.n)
        return tuple(a for a in subs if a & ~witness[a] == 0)
    if name == "tau_s":
        return build_topology(top.ground, named_family(top, "RO")).opens
    if name in ("SthetaO", "SthetaC", "thetaSO", "thetaSC"):
        so = named_family(top, "SO")
        if name.startswith("S"):
            measure = {u: u | it(cl(u)) for u in so}  # semi-closure of the nbhd
        else:
            measure = {u: cl(u) for u in so}
        witness = contained_union_table(((measure[u], u) for u in so), top.n)
        fam = tuple(a for a in subs if a & ~witness[a] == 0)
        return fam if name.endswith("O") else compl(fam)
    raise ValueError(f"unknown family name {name!r}; choose from {NAMED_FAMILIES}")


def enlargement_base(p: OpPair) -> Family:
    """Deduplicated images of the selector-open sets under the enlarger."""
    return canonical_family(map(p.enlarger.table.__getitem__, p.selector_open()))


def image_groups(p: OpPair) -> tuple[tuple[int, int], ...]:
    """(t, union of the selector-open sets enlarged to t) for each
    distinct enlargement t, in order of first appearance.  Some
    selector-open set around x is enlarged to t iff t's union holds x.

    Built afresh on each call and not kept on the pair: callers hold
    the row for as long as they read it.
    """
    enl = p.enlarger.table
    groups: dict[int, int] = {}
    for u in p.selector_open():
        t = enl[u]
        groups[t] = groups.get(t, 0) | u
    return tuple(groups.items())


@dataclass(frozen=True)
class BaseReport:
    """Hypothesis and conclusion flags for the enlargement base.

    Elementary hypotheses:
      image_stable      every enlarged selector-open set is selector-open
                        and its own enlargement does not grow it
      family_nested     selector-open family inside enlarger-open family
      base_pair_open    every base member is pair-open
      order_dominates   enlarger above the identity or above the selector

    Conclusions:
      base_in_pair_and_selector   base inside pair-open and selector-open
      is_base                     every pair-open set is a union of base
                                  members contained in it
    """

    image_stable: bool
    family_nested: bool
    base_pair_open: bool
    order_dominates: bool
    base_in_pair_and_selector: bool
    is_base: bool

    @property
    def hypothesis_a(self) -> bool:
        return self.image_stable

    @property
    def hypothesis_b(self) -> bool:
        return self.family_nested and self.base_pair_open

    @property
    def hypothesis_c(self) -> bool:
        return self.order_dominates and self.base_pair_open

    @property
    def hypothesis_d(self) -> bool:
        return self.order_dominates and self.image_stable


def base_report(p: OpPair) -> BaseReport:
    """Base hypotheses and conclusions for the pair, cached on the pair.

    The base is :func:`enlargement_base`, unsorted.  A set b is
    selector-open iff b sits inside sel[b], and pair-open iff b sits
    inside int[b], so membership is one table lookup, with no set of
    members built.  ``family_nested`` reads u inside enl[u] off the
    enlarger's table for every selector-open u, as a set is
    enlarger-open iff it sits inside its enlargement.  ``is_base``
    compares two 2**n-bit planes: the pair-open family's against the
    base's union closure.
    """
    got = p._cache.get("base_report")
    if got is not None:
        return got
    n = p.topology.n
    sel = p.selector.table
    enl = p.enlarger.table
    inner = p.int_table()
    base = set(map(enl.__getitem__, p.selector_open()))  # the enlargement base

    # "every enlarged selector-open set is selector-open and its own
    # enlargement does not grow it" reads the images alone, so the base
    # (the distinct images) decides it
    base_selector_open = all(b & ~sel[b] == 0 for b in base)
    image_stable = base_selector_open and all(enl[b] & ~b == 0 for b in base)
    base_pair_open = all(b & ~inner[b] == 0 for b in base)
    # a is enlarger-open iff a sits inside enl[a], so the enlarger sits
    # above the identity iff all 2**n subsets are enlarger-open
    above_identity = len(op_open_family(p.enlarger)) == 1 << n
    order_dominates = above_identity or leq(p.selector, p.enlarger)

    is_base = family_plane(pair_open_family(p), n) & ~union_closure_plane(base, n) == 0
    got = p._cache["base_report"] = BaseReport(
        image_stable=image_stable,
        family_nested=all(u & ~enl[u] == 0 for u in p.selector_open()),
        base_pair_open=base_pair_open,
        order_dominates=order_dominates,
        base_in_pair_and_selector=base_pair_open and base_selector_open,
        is_base=is_base,
    )
    return got
