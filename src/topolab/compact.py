"""Cover compactness with enlarged subcovers, and its many faces.

A cover system is an ambient family containing the whole space plus an
enlarging operation.  A set is compact for the system when every ambient
cover of it admits a finite subfamily whose enlargements cover it.

Fast decision procedure.  On a finite carrier the finite-subfamily
clause is absorbed by union monotonicity, so a set A fails to be compact
exactly when some point a of A has its avoidance family
{U in ambient : a not in enlarge(U)} covering A: such a family is an
ambient cover no enlarged subfamily of which can reach a.  Conversely a
failing cover must keep some a of A out of all its enlargements, and it
is then contained in that point's avoidance family.  Scanning the points
of A therefore decides compactness in O(|ambient| * |A|) word steps, and
with the union of each point's avoidance family tabulated once per pair
kernel and cover kind, in O(|A|) (:func:`compactness_kind`).  The literal
quantifier evaluation is kept alongside, and the two must agree
everywhere.  It is batched but still literal: one walk over the
subfamilies of the ambient family decides every target set, reading
"some finite subfamily" as the up-closure over every submask, never as
the family itself.  Both read an enlarger only through its images of the
ambient's members, so one walk (:func:`brute_force_compact_images`)
answers every distinct image tuple of an ambient family, with the
plain-cover planes computed once for all of them, and the oracle suite
runs once per ambient family and image tuple; :func:`brute_force_compact`
is its one-set call.  Above 4 points only, the oracle suite thins
ambient families above ten members without a note.

Every per-set statement about a pair has the same shape: A fails
exactly when it holds some x and sits inside a member of row[x].  The
statements are the three cover kinds, the filter faces of compactness
and the restricted accumulation of residue bases under additivity
(:func:`_row`), and each quantifies over its complete universe at every
carrier size, decided in closed form with the proof beside the code
(the literal scans are test oracles).  So the failing sets of one
statement form one 2**n-bit plane (:func:`failing_plane`), the sweeps
compare statements by XORs of planes, and the per-set scan stays as its
check.  The additivity hypothesis is checked over the union-irreducible
members only; the proof is at :func:`additive_hypothesis`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from operator import or_
from typing import Iterable, Iterator, Optional, Sequence

from .bits import (
    SUBFAMILY_CAP,
    Family,
    LanePairs,
    canonical_family,
    complement_plane,
    contained_union_table,
    down_plane,
    family_plane,
    iter_points,
    pair_rows,
    point_meets,
    pointed_down_plane,
    up_planes,
)
from .filters import _point_limits, is_t2
from .ops import Operation, builtin, dual_table, is_monotone
from .pairs import (
    OpPair,
    PairKernel,
    base_report,
    enlargement_base,
    image_groups,
    int_table,
    pair_open_family,
    pair_open_plane,
)
from .space import Topology, memoized

#: Set classes named in the covering literature, with the pair realizing each.
NAMED_CLASSES = {
    "H": ("int", "cl"),
    "N": ("int", "introcl"),
    "s": ("cloint", "scl"),
    "S": ("cloint", "cl"),
    "compact": ("int", "identity"),
}


@dataclass(frozen=True)
class CoverSystem:
    """Ambient family (must contain the whole space) plus an enlarger."""

    ambient: Family
    enlarger: Operation

    def __post_init__(self) -> None:
        if self.enlarger.topology.full not in self.ambient:
            raise ValueError("the ambient family must contain the whole space")


@dataclass(frozen=True)
class CompactnessVerdict:
    compact: bool
    witness_point: Optional[int] = None
    witness_cover: Optional[Family] = None


def is_cover(family: Sequence[int], a: int) -> bool:
    covered = 0
    for u in family:
        covered |= u
        if a & ~covered == 0:
            return True
    return a & ~covered == 0


def _minimal_cover(members: list[int], a: int) -> Family:
    """Prune to a cover of ``a`` no proper subfamily of which covers it.

    Removal is attempted from the highest bitmask down, so low-mask
    members are kept preferentially and the result is deterministic.
    When the member at position i is tried, the family left without it
    is the members below i, all still kept, and the members above i
    that survived: it covers ``a`` iff the OR of the prefix below i and
    of the survivors does, so each removal is two ORs and one AND-NOT.
    A family that does not cover ``a`` loses no member.
    """
    members = sorted(members)
    below = list(accumulate(members, or_, initial=0))
    kept, above = [], 0
    for i in reversed(range(len(members))):
        if a & ~(below[i] | above):
            kept.append(members[i])
            above |= members[i]
    return tuple(reversed(kept))


def is_compact(cs: CoverSystem, a: int) -> CompactnessVerdict:
    """Decide compactness by the avoidance-family criterion.

    A failing verdict carries the first witness point (ascending) and a
    minimal ambient cover of the set whose enlargements all miss it.
    """
    enl = cs.enlarger.table
    for point in iter_points(a):
        avoid = [u for u in cs.ambient if not enl[u] >> point & 1]
        if is_cover(avoid, a):
            return CompactnessVerdict(False, point, _minimal_cover(avoid, a))
    return CompactnessVerdict(True)


def brute_force_compact_images(ambient: Family, images: Iterable[Sequence[int]],
                               targets: Sequence[int]) -> list[tuple[bool, ...]]:
    """Literal evaluation of the compactness quantifiers for every target,
    once per row of ``images``: one enlarger's images of the ambient
    family's members, in order.

    One walk over the 2**k subfamilies of the ambient family decides
    every target, on 2**k-bit planes, bit ``sel`` for the subfamily
    picked by the bits of ``sel``.  A target is covered on the AND of
    its points' plain planes, computed once for all rows, and reached
    on the AND of their enlarged planes; a point's plane depends only on
    which members miss it and is built once per such pattern.  "Some finite
    subfamily of ``sel`` reaches it" is the up-closure of the reached
    plane over every submask (:func:`~topolab.bits.up_planes`), never
    ``sel`` itself, and the target fails exactly when a covering
    subfamily lies off it.  Kept as the independent oracle for
    :func:`is_compact`; capped at 2**SUBFAMILY_CAP subfamilies.
    """
    k = len(ambient)
    if k > SUBFAMILY_CAP:
        raise ValueError(f"family of {k} members exceeds the subfamily scan cap ({SUBFAMILY_CAP})")
    everything = (1 << (1 << k)) - 1
    planes: dict[int, int] = {}

    def meets(members: Sequence[int]) -> Iterator[int]:
        """Per target, the AND over its points x of the subfamilies whose
        members' union holds x: all but the submasks of those missing x."""
        at = {}
        for t in targets:
            out = everything
            for x in iter_points(t):
                if x not in at:
                    missing = sum(1 << i for i, m in enumerate(members) if not m >> x & 1)
                    if missing not in planes:
                        planes[missing] = everything ^ down_plane((missing,), k)
                    at[x] = planes[missing]
                out &= at[x]
            yield out

    covered = list(meets(ambient))
    return [
        tuple(not c & ~finite for c, finite in zip(covered, up_planes(meets(row), k)))
        for row in images
    ]


def brute_force_compact(cs: CoverSystem, a: int) -> bool:
    """Literal verdict for one set: :func:`brute_force_compact_images` on
    the enlarger's images of the ambient family."""
    enl = cs.enlarger.table
    # a lazy row, read only once the ambient family has passed the cap
    row = ([enl[u] for u in cs.ambient] for _ in range(1))
    return brute_force_compact_images(cs.ambient, row, (a,))[0][0]


@memoized
def _row(k: PairKernel, kind: str) -> tuple[tuple[int, ...], ...]:
    """row[x]: the sets whose subsets holding x fail the kind's
    statement, one row per kernel and kind.

    pair, pair_open, base  compactness in the three cover systems
                           (:func:`compactness_kind`): the avoidance row
    ultra                  every maximal base meeting A converges in A
    closed                 the closed-family fip and gap statements
    restricted             every base of residues meeting A accumulates
                           in A

    The proofs that each row decides its statement sit beside the code.
    """
    n, full = k.topology.n, k.topology.full
    if kind == "ultra":
        # The maximal bases are the singleton cores {x}; one meets A
        # iff x is in A, and converges at y iff x is in env(y).  So
        # the statement fails iff some x in A has A inside
        # full ^ limits[x] = {y : x not in env(y)}.  Since env(y) is
        # the meet of enl[u] over the selector-open u around y, that
        # row is the union of the u with x not in enl[u]: outside[x]
        # of the pair kind, reached through the envelopes.
        return tuple((full ^ m,) for m in _point_limits(k))
    if kind == "closed":
        # The closed pair holds iff every S_y, y in A, has its meet
        # meeting A (see :func:`_closed_meets`); it fails iff some y
        # in A has A inside full ^ meets[y].  The selector-closed
        # sets are the full ^ u, u selector-open, with dual image
        # full ^ enl[u], so that row is again the union of the u
        # with y not in enl[u], reached through the dual table.
        return tuple((full ^ m,) for m in _closed_meets(k))
    if kind == "restricted":
        # Every filterbase B of residues meeting A must accumulate in
        # A.  B holds its least member m0, so B meets A iff m0 does,
        # and the pair closure is monotone, so its members' closures
        # meet in cl(m0).  The least members are exactly the nonempty
        # residues ({r} is a base), so the statement fails iff some
        # y in A lies in a residue r with A inside full ^ cl(r).  Such
        # an A misses cl(r), so y lies in r minus cl(r): in the union
        # reach[c] of r minus c over the residues r whose closure is c.
        reach: dict[int, int] = {}
        for r, closure in _residue_row(k):
            if r & ~closure:
                reach[closure] = reach.get(closure, 0) | r & ~closure
        return tuple(
            tuple(full ^ c for c, union in reach.items() if union >> x & 1) for x in range(n)
        )
    if kind == "pair":
        inner = int_table(k)
    elif kind in ("pair_open", "base"):
        members = pair_open_family(k) if kind == "pair_open" else enlargement_base(k) + (full,)
        inner = contained_union_table(((u, u) for u in members), n)
    else:
        raise ValueError(
            f"unknown kind {kind!r}; use 'pair', 'pair_open', 'base', 'ultra', 'closed'"
            " or 'restricted'"
        )
    # outside[x], the union of the kind's ambient members whose
    # enlargement misses x: those are the members whose enlargement fits
    # inside full minus x, so it is read off a contained-union table at
    # those n sets, the pair-interior table for the pair kind and the
    # union of the members inside each set for the two plain kinds
    return tuple((inner[full ^ (1 << x)],) for x in range(n))


def compactness_kind(p: OpPair, a: int, kind: str = "pair") -> bool:
    """Whether ``a`` passes one of the pair's statements (:func:`_row`),
    one set at a time; with the default and the two other cover kinds,
    its compactness in one of the pair's three cover systems:

    pair       covers from the selector-open family, enlarged subcovers
    pair_open  plain covers from the pair-open family
    base       plain covers from the enlargement base

    By the avoidance-family criterion ``a`` fails exactly when some x in
    ``a`` has ``a`` inside the union of the members whose enlargement
    misses x.  The sweeps read every set off :func:`failing_plane`, and
    this scan stays as its check.
    """
    row = _row(p, kind)
    return not any(a & ~m == 0 for x in iter_points(a) for m in row[x])


def failing_plane(p: OpPair, kind: str = "pair") -> int:
    """The 2**n-bit plane of the sets failing one of the pair's
    statements (:func:`compactness_kind`), kept on the pair's kernel:
    the sets holding some x and lying inside a member of row[x]
    (:func:`~topolab.bits.pointed_down_plane`)."""
    return _failing_plane(p, kind)


@memoized
def _failing_plane(k: PairKernel, kind: str) -> int:
    return pointed_down_plane(_row(k, kind), k.topology.n)


@memoized
def _named_class_pair(top: Topology, name: str) -> OpPair:
    """The pair realizing a named class, memoized on the space itself so
    it dies with the space."""
    sel, enl = NAMED_CLASSES[name]
    return OpPair(builtin(top, sel), builtin(top, enl))


def named_set_class(top: Topology, a: int, name: str) -> bool:
    """Membership of ``a`` in a named covering class (H, N, s, S, compact)."""
    if name not in NAMED_CLASSES:
        raise ValueError(f"unknown class {name!r}; choose from {tuple(NAMED_CLASSES)}")
    return compactness_kind(_named_class_pair(top, name), a, "pair")


# ---------------------------------------------------------------------------
# equivalence records


# The ten filter-flavoured statements of cover compactness agree for
# every pair and every subset A.  On a finite carrier every filterbase
# reduces to the principal base at its core, so base quantifiers range
# over all nonempty cores; the family quantifiers range over every family
# of subsets and the closed ones over every subfamily of the
# selector-closed sets.  Each is decided in closed form by one kind's
# failing plane:
#
# - cover compactness: the pair kind.
# - Bases inside A accumulate in A.  cl is monotone and every nonempty
#   core inside A holds a singleton core, so the singletons decide: the
#   statement fails iff some y in A has A inside full ^ cl({y}), which is
#   int[full ^ {y}], the pair kind's avoidance entry outside[y] itself.
# - Every base meeting A accumulates in A, and (contrapositive) every
#   single-member base whose closure misses A misses A: both say cl(core)
#   meets A for every core meeting A.  Such a core holds some y in A, and
#   cl({y}) sits inside cl(core), so the singleton cores decide both: the
#   pair kind again.
# - Closure gap and fip over families: for a family whose closures' meet
#   misses A, gap needs a finite part whose meet misses A, and fip fails
#   unless there is one.  Meets shrink as a subfamily grows and the family
#   is one of its own finite parts, so both fail exactly when some family
#   has its own meet meeting A while its closures' meet misses A.  Such a
#   family has some y in A inside every member; cl({y}) sits inside every
#   member's closure and misses A, so the family {{y}} refutes too, and
#   the singleton families decide both: the pair kind again.
# - Every maximal base meeting A, or inside A (its singletons), converges
#   in A: the ultra kind.
# - Closed gap and fip: the closed kind.
#
# So the pair kind's plane is six of the ten outright, and the sweep
# compares it with the ultra and closed planes, whose rows equal the
# avoidance row but are reached through the envelopes and through the
# dual table (proofs at :func:`_row`).
#
# The four complement statements of the cover kinds quantify over
# the subfamilies of one fixed family K (the residues full ^ enl[u], or
# the pair-closed sets):
#   fip  every subfamily whose finite parts all meet A meets A,
#   gap  every subfamily missing A has a finite part missing A.
# On a finite carrier each subfamily is a finite part of itself, so a
# subfamily missing A is its own witness for gap and refutes the fip
# premise; both hold for every K and every A.  Under the base hypothesis
# the cover kinds therefore agree exactly when A is compact in all three.


@memoized
def _closed_meets(k: PairKernel) -> tuple[int, ...]:
    """meets[y] = meet of S_y = {f selector-closed : y in dual(f)}, one row
    per kernel.

    The closed pair reads the statements over subfamilies sel of the
    closed sets, judging finite parts by their dual enlargements: by the
    family argument above sel refutes both when its meet misses A while
    its duals' meet holds some y in A.  Then sel lies in S_y, whose meet
    is smaller and whose duals all hold y, so S_y refutes too: both hold
    iff every S_y, y in A, has its meet meeting A.  All n are one
    :func:`~topolab.bits.point_meets` of the rows (f, dual(f)) with the
    duals read off the dual table, a second route to the avoidance row.
    """
    full = k.topology.full
    dual_enl = dual_table(k.enlarger)
    closed = [full ^ u for u in k.family]
    return point_meets(zip(closed, map(dual_enl.__getitem__, closed)), k.topology.n)


@dataclass(frozen=True)
class SpaceCompactnessFlags:
    """Space-level equivalents: the whole space, every residue of an
    enlarged selector-open set, and every pair-closed set, in all three
    kinds.  They agree under the base hypothesis, which forces every
    subset compact.
    """

    hypothesis: bool
    space_cover: bool
    space_base_cover: bool
    space_pair_open_cover: bool
    residual_cover: bool
    residual_pair_open_cover: bool
    residual_base_cover: bool
    closed_cover: bool
    closed_pair_open_cover: bool
    closed_base_cover: bool

    def statements(self) -> tuple[bool, ...]:
        return (
            self.space_cover, self.space_base_cover, self.space_pair_open_cover,
            self.residual_cover, self.residual_pair_open_cover, self.residual_base_cover,
            self.closed_cover, self.closed_pair_open_cover, self.closed_base_cover,
        )

    def agree(self) -> bool:
        return len(set(self.statements())) == 1


@memoized
def _residue_row(k: PairKernel) -> tuple[tuple[int, int], ...] | LanePairs:
    """(r, pair closure of r) for every nonempty residue r = full ^ enl[u]
    of a selector-open u, ascending; one row per kernel.  The empty
    residue is left out: it is compact in every kind and meets no set.
    A tuple of pairs up to 8 points; from 9 points on a
    :class:`~topolab.bits.LanePairs` of 2-byte lanes, which iterates as
    the same pairs (:func:`~topolab.bits.pair_rows`)."""
    full, inner = k.topology.full, int_table(k)
    residues = [r for r in canonical_family(full ^ t for t, _ in image_groups(k)) if r]
    return pair_rows(residues, [full ^ inner[full ^ r] for r in residues], k.topology.n)  # r's pair closure


def space_compactness_flags(p: OpPair) -> SpaceCompactnessFlags:
    """Each statement is one test against a kind's :func:`failing_plane`:
    the whole space is one bit of it, and "every residue (every
    pair-closed set) is compact" says the plane misses the plane of the
    residues (of the pair-closed sets, the complements of the pair-open
    plane)."""
    n, full = p.topology.n, p.topology.full
    residues = family_plane((r for r, _ in _residue_row(p)), n)
    closed = complement_plane(pair_open_plane(p), n)
    pair, pair_open, base = (failing_plane(p, k) for k in ("pair", "pair_open", "base"))
    return SpaceCompactnessFlags(
        hypothesis=base_report(p).hypothesis_d,
        space_cover=not pair >> full & 1,
        space_base_cover=not base >> full & 1,
        space_pair_open_cover=not pair_open >> full & 1,
        residual_cover=not residues & pair,
        residual_pair_open_cover=not residues & pair_open,
        residual_base_cover=not residues & base,
        closed_cover=not closed & pair,
        closed_pair_open_cover=not closed & pair_open,
        closed_base_cover=not closed & base,
    )


@memoized
def _union_irreducibles(top: Topology, fam: Family) -> tuple[int, ...]:
    """The union-irreducible members of ``fam``: the nonempty members the
    members strictly inside do not union to.  Those lie inside j minus
    one of its points, so their union is the OR, over x in j, of
    ``below[j ^ {x}]`` with ``below`` the contained-union table of
    ``fam``.  Memoized per family on the space."""
    below = contained_union_table(((u, u) for u in fam), top.n)
    out = []
    for j in fam:
        under = 0
        for x in iter_points(j):
            under |= below[j ^ (1 << x)]
        if under != j:
            out.append(j)
    return tuple(out)


def additive_hypothesis(p: OpPair) -> bool:
    """The additivity hypothesis, under which compactness matches the
    restricted accumulation of residue bases (the restricted kind of
    :func:`failing_plane`): a monotone selector, and
    ``enl[u | v] == enl[u] | enl[v]`` over all u, v in the
    selector-open family F.  Monotonicity reads the selector's table, so
    it is checked on the pair; the scan over F is kept on the kernel
    (:func:`_additive_scan`).

    A monotone selector makes F union-closed (a inside op(a) and b
    inside op(b) put a | b inside op(a) | op(b), inside op(a | b)), and
    on a union-closed F the pairs (u, j) with j union-irreducible
    suffice.  Every nonempty v in F is a union j1 | ... | jk of
    irreducible members (a reducible member is the union of smaller
    ones).  Each partial union u | j1 | ... | ji is in F, so induction
    on i gives ``enl[u | v] == enl[u] | enl[j1] | ... | enl[jk]``, and
    the same with u = j1 gives ``enl[v]`` as that OR without
    ``enl[u]``.  v = 0 needs no pair, since every operation maps the
    empty set to itself.  The converse is immediate.  So monotonicity
    is checked first, then |F| * |J| pairs instead of |F|**2.
    """
    return is_monotone(p.selector) and _additive_scan(p)


@memoized
def _additive_scan(k: PairKernel) -> bool:
    """``enl[u | j] == enl[u] | enl[j]`` for every u in F and every
    union-irreducible j in F: the additivity hypothesis once F is known
    to be union-closed."""
    enl, fam = k.enlarger.table, k.family
    for j in _union_irreducibles(k.topology, fam):
        image = enl[j]
        if not all(enl[u | j] == enl[u] | image for u in fam):
            return False
    return True


@dataclass(frozen=True)
class ClosedSpacePredicates:
    pair_compact_space: bool
    hausdorff: bool
    s_closed: bool
    h_closed: bool


def closed_space_predicates(top: Topology, p: OpPair) -> ClosedSpacePredicates:
    """Derived space predicates: compactness of the space for the pair,
    point separation, and the two classical closed-space notions."""
    hausdorff = is_t2(OpPair(builtin(top, "int"), builtin(top, "identity")))
    s_cl = compactness_kind(_named_class_pair(top, "S"), top.full, "pair") and hausdorff
    h_cl = compactness_kind(_named_class_pair(top, "H"), top.full, "pair") and hausdorff
    return ClosedSpacePredicates(
        pair_compact_space=compactness_kind(p, top.full, "pair"),
        hausdorff=hausdorff,
        s_closed=s_cl,
        h_closed=h_cl,
    )
