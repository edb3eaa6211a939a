"""Interior and closure induced by an ordered pair of operations.

The first operation of a pair selects neighbourhoods (through its open
family), the second enlarges them: a point is in the pair-interior of A
when some selector-open set around it has its enlargement inside A.
Complementation gives the pair-closure.  The fixed sets of this interior
form a supratopology, which under extra hypotheses on the pair upgrades
to a topology with a Kuratowski closure; :func:`classify_structure`
measures exactly which rungs of that ladder a pair reaches.

Classical generalized-open families (semi-open, pre-open, regular-open,
the theta and semi-regularization variants) are provided by
:func:`named_family` through direct defining rules, independent of the
pair machinery, so equalities between the two routes are genuine checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .bits import Family, canonical_family, contained_union_table, intersection_closure, union_closure
from .ops import Operation, at_point, builtin, leq, op_open_family
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
            # enlargement sits inside a; a subset-sum fold gives the whole
            # table at once instead of |selector-open| work per entry
            table = tuple(contained_union_table(
                ((enl[u], u) for u in self.selector_open()), self.topology.n
            ))
            object.__setattr__(self, "_int_table", table)
        return table

    def envelope(self, point: int) -> int:
        """Intersection of the enlargements of all selector-open sets
        around ``point``; a principal filter converges there exactly when
        its core sits inside this set."""
        env = self._envelopes
        if env is None:
            full = self.topology.full
            enl = self.enlarger.table
            fam = self.selector_open()
            env = []
            for x in range(self.topology.n):
                m = full
                for u in at_point(fam, x):
                    m &= enl[u]
                env.append(m)
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


def pair_closure_by_points(p: OpPair, a: int) -> int:
    """Pair-closure computed from its own pointwise rule (every enlarged
    selector-open set around the point meets ``a``).

    Kept as a second route so the complement identity stays testable.
    """
    enl = p.enlarger.table
    fam = p.selector_open()
    out = 0
    for x in range(p.topology.n):
        if all(enl[u] & a for u in at_point(fam, x)):
            out |= 1 << x
    return out


def pair_open_family(p: OpPair) -> Family:
    fam = p._open_family
    if fam is None:
        table = p.int_table()
        fam = tuple(a for a in p.topology.subsets() if a & ~table[a] == 0)
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
    """Tabulate the pair-open family and pair-closure and report their axioms.

    The Kuratowski check uses the singleton decomposition of finite
    additivity: a map fixing the empty set is finitely additive exactly
    when every image is the union of the images of the argument's
    singletons.
    """
    top = p.topology
    full = top.full
    fam = pair_open_family(p)
    famset = set(fam)
    cl = [pair_closure(p, a) for a in top.subsets()]

    # fam is canonical, so comparing it with its closures decides both axioms
    supra = full in famset and union_closure(fam, top.n) == fam
    topo = supra and intersection_closure(fam, top.n) == fam

    subset_ok = True
    equal_ok = True
    for k in top.subsets():
        closed_in_family = (full ^ k) in famset
        if closed_in_family != (cl[k] & ~k == 0):
            subset_ok = False
        if closed_in_family != (cl[k] == k):
            equal_ok = False

    kur = cl[0] == 0
    if kur:
        for a in top.subsets():
            if a & ~cl[a] or cl[cl[a]] != cl[a]:
                kur = False
                break
            singles = 0
            rest = a
            while rest:
                low = rest & -rest
                singles |= cl[low]
                rest ^= low
            if a and cl[a] != singles:
                kur = False
                break

    return StructureReport(
        is_supratopology=supra,
        is_topology=topo,
        closed_iff_cl_subset=subset_ok,
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
    """
    it, cl, full = top.interior, top.closure, top.full
    subs = top.subsets()

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
        # whose closure fits inside a; the fold collects those witnesses
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
    enl = p.enlarger.table
    return canonical_family(enl[u] for u in p.selector_open())


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
    """Base hypotheses and conclusions for the pair, cached on the pair."""
    got = p._cache.get("base_report")
    if got is not None:
        return got
    top = p.topology
    enl = p.enlarger.table
    sel_open = set(p.selector_open())
    base = enlargement_base(p)
    pair_open = set(pair_open_family(p))

    image_stable = all(
        enl[u] in sel_open and enl[enl[u]] & ~enl[u] == 0 for u in sel_open
    )
    enl_open = set(op_open_family(p.enlarger))
    family_nested = all(u in enl_open for u in sel_open)
    base_pair_open = all(b in pair_open for b in base)
    ident = builtin(top, "identity")
    order_dominates = leq(ident, p.enlarger) or leq(p.selector, p.enlarger)

    base_in_both = all(b in pair_open and b in sel_open for b in base)
    is_base = pair_open <= set(union_closure(base, top.n))
    got = p._cache["base_report"] = BaseReport(
        image_stable=image_stable,
        family_nested=family_nested,
        base_pair_open=base_pair_open,
        order_dominates=order_dominates,
        base_in_pair_and_selector=base_in_both,
        is_base=is_base,
    )
    return got
