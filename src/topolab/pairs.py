"""Interior and closure induced by an ordered pair of operations.

The first operation of a pair selects neighbourhoods (through its open
family), the second enlarges them: a point is in the pair-interior of A
when some selector-open set around it has its enlargement inside A.
Complementation gives the pair-closure.  The fixed sets of this interior
form a supratopology, which under extra hypotheses on the pair upgrades
to a topology with a Kuratowski closure; :func:`classify_structure`
measures exactly which rungs of that ladder a pair reaches, each in
closed form off the pair-interior table.

Every row derived from a pair, bar two readings of the selector's
table, depends on the selector-open family and the enlarger alone, so
it is built once per :class:`PairKernel`, shared by the pairs with that
family and enlarger table (identity, cl and scl all select P(X)).  The
kernel is named by its contents, ``key``: the selector-open plane and
the enlarger's packed table.

One walk of the selector-open family per kernel: :func:`image_groups`
pairs each distinct enlargement t with the union of the selector-open
sets enlarged to t, and every other row reads those groups, or the
family's plane (``key[0]``), never the members one by one.  The
pair-interior transform seeds entry enl[u] with u for every member u
and ORs equal keys, so seeding t with its group's union gives the same
table (:func:`int_lanes`).  The same groups give the base (their images), the
envelopes, the pointwise closure rule, regularity and the filters'
limit sets.  Whole-family questions (inclusion, both ends, closure
under unions and meets, size) are asked of 2**n-bit planes, the zero
planes of lanes (:func:`pair_open_plane`,
:func:`~topolab.ops.op_open_plane`), never of member tuples.

Classical generalized-open families (semi-open, pre-open, regular-open,
the theta and semi-regularization variants) are provided by
:func:`named_family` through direct defining rules, independent of the
pair machinery, so equalities between the two routes are genuine checks.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Sequence
from weakref import WeakValueDictionary

from .bits import (
    Family, LanePairs, bit_planes, canonical_family, close_unions, contained_union_lanes,
    family_plane, iter_points, members_holding, pack_lanes, pair_rows, plane_members,
    point_meets, row_planes, unpack_lanes, zero_lanes, zero_plane,
)
from .ops import (
    Operation, group_by_image, is_monotone, leq, op_lanes, op_open_family, op_open_plane, op_shrink_plane,
)
from .space import Topology, build_topology, memoized

#: Families constructible by an independent defining rule.
NAMED_FAMILIES = (
    "SO", "SC", "PO", "PC", "RO", "RC", "SR",
    "tau_theta", "tau_s", "SthetaO", "SthetaC", "thetaSO", "thetaSC",
)


class PairKernel:
    """A selector-open family and an enlarger, with the rows built from
    them alone in ``_memo`` (:func:`memoized`).  It serves every pair of
    its space with that family and enlarger table, and lives as long as
    the last of them.  ``key`` is what it is made of: the selector-open
    family's 2**n-bit plane (:func:`~topolab.ops.op_open_plane`) and the
    enlarger's table as lanes (:func:`~topolab.ops.op_lanes`), so two
    kernels on n points have one key exactly when they hold one family
    and one enlarger table."""

    __slots__ = ("topology", "family", "enlarger", "key", "_memo", "__weakref__")

    def __init__(self, topology: Topology, family: Family, enlarger: Operation, key: tuple[int, int]):
        self.topology = topology
        self.family = family
        self.enlarger = enlarger
        self.key = key
        self._memo = {}


@memoized
def _kernels(top: Topology) -> WeakValueDictionary:
    """:attr:`PairKernel.key` -> kernel, held weakly."""
    return WeakValueDictionary()


class OpPair:
    """An ordered pair (selector, enlarger) of operations over one space.

    Its rows live on its :class:`PairKernel`, keyed by the selector-open
    plane and the enlarger's whole table: ``image_stable`` reads the
    table outside the selector-open family, and enlargers that only
    agree on the family stay apart for the statements that compare
    them.  The pair's ``_memo`` is the kernel's, so a row read through
    the pair is the kernel's row.  Only two readings use the selector's
    table, and both are computed on the pair on each call:
    ``order_dominates`` of :func:`base_report` and the monotone-selector
    half of :func:`~topolab.compact.additive_hypothesis`.
    """

    __slots__ = ("topology", "selector", "enlarger", "kernel", "_memo")

    def __init__(self, selector: Operation, enlarger: Operation):
        if selector.topology != enlarger.topology:
            raise ValueError("pair members live over different topologies")
        object.__setattr__(self, "topology", selector.topology)
        object.__setattr__(self, "selector", selector)
        object.__setattr__(self, "enlarger", enlarger)
        kernels = _kernels(selector.topology)
        key = (op_open_plane(selector), op_lanes(enlarger)[0])
        kernel = kernels.get(key)
        if kernel is None:
            kernel = kernels[key] = PairKernel(selector.topology, op_open_family(selector), enlarger, key)
        object.__setattr__(self, "kernel", kernel)
        object.__setattr__(self, "_memo", kernel._memo)

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("OpPair is immutable")

    def __repr__(self) -> str:
        return f"OpPair({self.selector.name},{self.enlarger.name}, n={self.topology.n})"

    @property
    def name(self) -> str:
        return f"{self.selector.name},{self.enlarger.name}"

    def selector_at(self, point: int) -> Family:
        """Selector-open sets containing ``point``."""
        return _selector_at(self.kernel, point)

    def envelope(self, point: int) -> int:
        """Intersection of the enlargements of all selector-open sets
        around ``point``; a principal filter converges there exactly when
        its core sits inside this set (:func:`envelopes`)."""
        return envelopes(self.kernel)[point]


@memoized
def _selector_at(k: PairKernel, point: int) -> Family:
    """The selector-open sets holding ``point``, read off the family's
    plane (:func:`~topolab.bits.members_holding`)."""
    return plane_members(members_holding(k.key[0], k.topology.n, point))


@memoized
def int_lanes(k: PairKernel) -> tuple[int, int]:
    """The pair-interior table as (lanes, lane width in bits), lane a
    holding the pair-interior of a: the union of the selector-open sets
    whose enlargement sits inside a.  One subset-sum transform
    (:func:`~topolab.bits.contained_union_lanes`) seeded with the image
    groups (t, union of the sets enlarged to t) gives the whole table at
    once: seeding each member u at enl[u] ORs the members with equal
    images into the same entry anyway.  The lanes are the space's width,
    since the whole space is selector-open and enlarged to itself."""
    return contained_union_lanes(image_groups(k), k.topology.n)


@memoized
def int_table(k: PairKernel) -> Sequence[int]:
    """``int_table(p)[a]`` is the pair-interior of ``a``, for every
    subset: :func:`int_lanes`, unpacked (:func:`~topolab.bits.unpack_lanes`),
    so a tuple up to 8 points and a read-only ``memoryview`` of the
    2-byte lanes from 9 points on."""
    return unpack_lanes(*int_lanes(k), k.topology.n)


@memoized
def envelopes(k: PairKernel) -> tuple[int, ...]:
    """The envelope of each point (:meth:`OpPair.envelope`): the meet of
    the distinct enlargements t whose group (:func:`image_groups`) holds
    it, so all n are one :func:`~topolab.bits.point_meets` of the
    groups."""
    return point_meets(image_groups(k), k.topology.n)


def pair_interior(p: OpPair, a: int) -> int:
    """Union of the selector-open sets whose enlargement fits inside ``a``."""
    return int_table(p)[a]


def pair_closure(p: OpPair, a: int) -> int:
    """Complement-dual of :func:`pair_interior`."""
    full = p.topology.full
    return full ^ int_table(p)[full ^ a]


def pair_closure_by_points(p: OpPair, sets: Iterable[int]) -> list[int]:
    """The pair-closure of each of ``sets``, computed from its own
    pointwise rule (every enlarged selector-open set around the point
    meets the set).

    A point falls outside exactly when some selector-open set around it
    has an enlargement missing the set.  With the selector-open sets
    grouped by enlargement t (:func:`image_groups`), transposed into
    planes (:func:`~topolab.bits.row_planes`), the groups whose t meets
    a set are the OR of the ``hit`` planes of its points, and x stays
    inside iff every group holding x is among them: |a| + n plane
    operations per set a.  It reads the groups, never the pair-interior
    table, so the complement identity stays testable.
    """
    held, hit, ones = row_planes(image_groups(p), p.topology.n)
    out = []
    for a in sets:
        meeting = 0
        for y in iter_points(a):
            meeting |= hit[y]
        missing, closure = ones & ~meeting, 0
        for x, plane in enumerate(held):
            if not plane & missing:
                closure |= 1 << x
        out.append(closure)
    return out


@memoized
def regular_scan(k: PairKernel) -> bool:
    """:func:`~topolab.ops.is_regular_wrt` of the enlarger over the
    selector-open family, on the kernel's rows: the meet of the images
    around x is its envelope (:func:`envelopes`), and it is an image
    around x iff its group (:func:`image_groups`) holds x, or the whole
    set either way."""
    groups, full = dict(image_groups(k)), k.topology.full
    return all(m == full or groups.get(m, 0) >> x & 1 for x, m in enumerate(envelopes(k)))


@memoized
def enlarger_is_regular(k: PairKernel) -> bool:
    """Whether the enlarger is regular over the selector-open family
    (:func:`~topolab.ops.is_regular_wrt`).

    Fast path: a monotone enlarger is regular over an
    intersection-closed family, as the meet of two neighbourhoods of a
    point is a third whose image squeezes under both images.  Otherwise
    the kernel's scan (:func:`regular_scan`) decides.
    """
    return (
        is_monotone(k.enlarger) and k.topology.plane_props(k.key[0])[0]
    ) or regular_scan(k)


@memoized
def pair_open_family(k: PairKernel) -> Family:
    """The sets a inside their pair-interior: the zero lanes of
    ``identity & ~int_lanes`` (:func:`~topolab.bits.zero_lanes`)."""
    ident, width = k.topology.identity_lanes()
    return zero_lanes(ident & ~int_lanes(k)[0], width, k.topology.n)


@memoized
def pair_open_plane(k: PairKernel) -> int:
    """:func:`pair_open_family` as a 2**n-bit plane, the zero plane of
    the same lanes (:func:`~topolab.bits.zero_plane`): what the
    structure and base reports read."""
    ident, width = k.topology.identity_lanes()
    return zero_plane(ident & ~int_lanes(k)[0], width, k.topology.n)


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

    The pair-open family is read as its plane (:func:`pair_open_plane`),
    and its two family axioms off the space's memo of closure verdicts
    (:meth:`~topolab.space.Topology.plane_props`).  For the others,
    write c for the complement of k:

    closed_iff_cl_subset  holds by construction.  c is pair-open iff
        c sits inside int(c) (how :func:`pair_open_family` reads the
        table), iff X minus int(c) misses c, iff cl(k) sits inside k.
    closed_iff_cl_equal   holds iff int(a) = a for every pair-open a.
        cl(k) = k iff int(c) = c, which makes c pair-open; so the flag
        fails exactly at a pair-open c with int(c) != c.  The fixed
        points of int are the zero plane of ``int_lanes ^ identity``
        (:func:`~topolab.bits.zero_plane`) and all pair-open, so the
        flag holds iff the two planes have as many bits.
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
        - idempotent: int(i) = i for every image i = int(c), so every
          entry of the table is a fixed point; given the previous axiom,
          int(i) sits inside i, so this says every pair-interior image
          is pair-open.  Every fixed point a = int(a) is an image, so
          the table holds exactly as many distinct entries as there are
          fixed points;
        - multiplicative: int(c & d) inside int(c) & int(d) holds as
          int is monotone.  The converse at x needs, for u and v around
          x enlarged inside c and d, a w around x enlarged inside
          c & d, which is regularity; conversely take c = enl[u] and
          d = enl[v].  Finite additivity of cl is this identity
          through the complements, given cl(empty) = empty.
    ``tests/oracles.literal_structure`` reads all five flags off their
    wording.  Every flag is a ``bool``.
    """
    full, n = p.topology.full, p.topology.n
    table = int_table(p)
    plane = pair_open_plane(p)
    ident, width = p.topology.identity_lanes()
    fixed = zero_plane(int_lanes(p)[0] ^ ident, width, n)

    inter_closed, union_closed = p.topology.plane_props(plane)
    supra = plane >> full & 1 == 1 and union_closed
    topo = supra and inter_closed

    equal_ok = fixed.bit_count() == plane.bit_count()
    kur = (
        table[full] == full
        and _kernel_report(p).family_nested
        and len(set(table)) == fixed.bit_count()
        and enlarger_is_regular(p)
    )

    return StructureReport(
        is_supratopology=supra,
        is_topology=topo,
        closed_iff_cl_subset=True,
        closed_iff_cl_equal=equal_ok,
        is_kuratowski=kur,
    )


@memoized
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

    Read off the space's interior table, and memoized per name on the
    space (:func:`memoized`), so each family is built once and dies with
    the space.  Each rule over all 2**n subsets reads a whole table on
    its lanes: "a inside table[a]" is the zero lanes of
    ``identity & ~table``, "a equals table[a]" those of
    ``identity ^ table`` (:func:`~topolab.bits.zero_lanes`).
    """
    # indexed per entry below: a list reads faster than a lane view
    inner, full, n = list(top.int_table()), top.full, top.n
    ident, width = top.identity_lanes()
    cl = [full ^ i for i in reversed(inner)]  # full ^ a runs down as a runs up

    def within(lanes: int) -> Family:
        return zero_lanes(ident & ~lanes, width, n)

    def fixed(table: Sequence[int]) -> Family:
        return zero_lanes(ident ^ pack_lanes(table)[0], width, n)

    def compl(fam: Sequence[int]) -> Family:
        return canonical_family(full ^ a for a in fam)

    if name == "SO":
        return within(pack_lanes([cl[i] for i in inner])[0])
    if name == "SC":
        return compl(named_family(top, "SO"))
    if name == "PO":
        return within(pack_lanes([inner[c] for c in cl])[0])
    if name == "PC":
        return compl(named_family(top, "PO"))
    if name == "RO":
        return fixed([inner[c] for c in cl])
    if name == "RC":
        return fixed([cl[i] for i in inner])
    if name == "SR":
        sc = set(named_family(top, "SC"))
        return tuple(a for a in named_family(top, "SO") if a in sc)
    if name == "tau_theta":
        # a is in the family when each of its points has an open set
        # whose closure fits inside a; the transform collects those witnesses
        return within(contained_union_lanes(((cl[u], u) for u in top.opens), n)[0])
    if name == "tau_s":
        return build_topology(top.ground, named_family(top, "RO")).opens
    if name in ("SthetaO", "SthetaC", "thetaSO", "thetaSC"):
        so = named_family(top, "SO")
        if name.startswith("S"):
            measure = [u | inner[cl[u]] for u in so]  # semi-closure of the nbhd
        else:
            measure = [cl[u] for u in so]
        fam = within(contained_union_lanes(zip(measure, so), n)[0])
        return fam if name.endswith("O") else compl(fam)
    raise ValueError(f"unknown family name {name!r}; choose from {NAMED_FAMILIES}")


@memoized
def enlargement_base(k: PairKernel) -> Family:
    """Deduplicated images of the selector-open sets under the enlarger:
    the images of the groups (:func:`image_groups`), sorted."""
    return tuple(sorted(dict(image_groups(k))))


@memoized
def image_groups(k: PairKernel) -> tuple[tuple[int, int], ...] | LanePairs:
    """(t, union of the selector-open sets enlarged to t) for each
    distinct enlargement t, in order of first appearance.  Some
    selector-open set around x is enlarged to t iff t's union holds x.
    The one walk of the selector-open family per kernel: every other
    kernel row that needs the members reads these groups.  A tuple of
    pairs up to 8 points; from 9 points on a
    :class:`~topolab.bits.LanePairs` of 2-byte lanes, which iterates
    as the same pairs (:func:`~topolab.bits.pair_rows`).
    """
    groups = group_by_image(k.enlarger.table, k.family)
    return pair_rows(groups, groups.values(), k.topology.n)


@memoized
def image_planes(k: PairKernel) -> tuple[int, ...]:
    """``image_planes(k)[x]`` is the 2**n-bit plane of the distinct
    enlargements of the selector-open sets around x: the t whose group
    (:func:`image_groups`) holds x.  The table t -> union of t's group is
    transposed once (:func:`~topolab.bits.bit_planes`)."""
    n = k.topology.n
    table = [0] * (1 << n)
    for t, union in image_groups(k):
        table[t] = union
    return tuple(bit_planes(table, n))


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


@memoized
def _kernel_report(k: PairKernel) -> BaseReport:
    """The base report as far as the kernel decides it: every flag but
    ``order_dominates``, which here says only whether the enlarger sits
    above the identity (a set is enlarger-open iff it sits inside its
    enlargement, so iff all 2**n subsets are enlarger-open).

    Every flag is one AND-NOT, bit test or bit count of 2**n-bit planes.
    The base is :func:`enlargement_base`, read as a plane, and each
    membership flag is an AND-NOT against the selector-open family's
    plane (``key[0]``) or the pair-open family's
    (:func:`pair_open_plane`).  ``family_nested`` says every
    selector-open u sits inside enl[u], that is the selector-open family
    sits inside the enlarger-open one (:func:`~topolab.ops.op_open_plane`).
    ``image_stable`` reads the images alone, so the base decides it:
    every image is selector-open and sits in the plane of the sets the
    enlarger does not grow (:func:`~topolab.ops.op_shrink_plane`).
    ``is_base`` compares the pair-open plane against the base's union
    closure.
    """
    n, enl, (selector_plane, _) = k.topology.n, k.enlarger, k.key
    base_plane = family_plane(enlargement_base(k), n)
    pair_plane = pair_open_plane(k)
    base_selector_open = base_plane & ~selector_plane == 0
    base_pair_open = base_plane & ~pair_plane == 0
    return BaseReport(
        image_stable=base_selector_open and base_plane & ~op_shrink_plane(enl) == 0,
        family_nested=selector_plane & ~op_open_plane(enl) == 0,
        base_pair_open=base_pair_open,
        order_dominates=op_open_plane(enl).bit_count() == 1 << n,
        base_in_pair_and_selector=base_pair_open and base_selector_open,
        is_base=pair_plane & ~close_unions(base_plane, n) == 0,
    )


def base_report(p: OpPair) -> BaseReport:
    """Base hypotheses and conclusions for the pair: the kernel's report
    (:func:`_kernel_report`), with ``order_dominates`` completed by the
    one reading of the selector's table, ``leq`` (one AND-NOT of the two
    tables' cached lanes) when the enlarger is not above the identity.
    """
    got = _kernel_report(p)
    if got.order_dominates or not leq(p.selector, p.enlarger):
        return got
    return replace(got, order_dominates=True)
