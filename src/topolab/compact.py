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
and cover kind, in O(|A|) (:func:`compactness_kind`).  The same
criterion decides every set at once: A fails exactly when it holds some
x and sits inside outside[x], so the failing sets of one pair and kind
form one 2**n-bit plane, the OR over x of two submask planes
(:func:`failing_plane`).  The records read that plane; the per-set scan
stays as its check.  The literal quantifier evaluation is kept
alongside as :func:`brute_force_compact_all` and the two must agree
everywhere.  It is batched but still literal: one walk over the
subfamilies of the ambient family decides every target set, reading
"some finite subfamily" as a union over every submask, never as the
family itself.  The harness oracle suite still thins ambient families
above ten members to a seeded draw without a note.

The equivalence records quantify over their complete universes at every
carrier size: every family, every selector-closed set, every residue
and every pair-closed set.  Their subfamily quantifiers are evaluated
in closed form: meets shrink as a subfamily grows, so one extreme
subfamily decides each statement (proofs beside the code; the literal
scans are test oracles).  The additivity hypothesis is checked over the
union-irreducible members only; the proof is at
:func:`additive_enlarger_flags`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .bits import (
    Family,
    canonical_family,
    contained_union_table,
    family_plane,
    iter_points,
    submask_planes,
    union_dp,
)
from .filters import is_t2
from .ops import Operation, builtin, dual_table, is_monotone, op_closed_family
from .pairs import (
    OpPair,
    base_report,
    enlargement_base,
    pair_closed_family,
    pair_closure,
    pair_open_family,
)
from .space import Topology

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
    """
    kept = sorted(members)
    for i in range(len(kept) - 1, -1, -1):
        trial = kept[:i] + kept[i + 1:]
        if is_cover(trial, a):
            kept = trial
    return tuple(kept)


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


def brute_force_compact_all(cs: CoverSystem, targets: Sequence[int]) -> tuple[bool, ...]:
    """Literal evaluation of the compactness quantifiers for every target.

    One walk over the 2**k subfamilies of the ambient family decides
    every target.  ``fc[sel]`` flags the targets covered by the
    enlargements of some finite subfamily of ``sel``: each submask's
    flags, folded in by the subset-union transform.  A target fails
    exactly when some subfamily ``sel`` covers it and ``fc[sel]`` does
    not flag it.  Bit j of a flag word stands for ``targets[j]``, so
    memory is 2**k words of ``len(targets)`` bits at every carrier size.
    Kept as the independent oracle for :func:`is_compact`;
    :func:`~topolab.bits.union_dp` caps it at 2**20 subfamilies.
    """
    members = list(cs.ambient)
    plain = union_dp(members)
    enl = cs.enlarger.table
    enlarged = union_dp([enl[u] for u in members])
    targets = list(targets)
    under: dict[int, int] = {}

    def down(m: int) -> int:
        """Flags of the targets inside ``m``, memoized per mask."""
        got = under.get(m)
        if got is None:
            got = 0
            for j, t in enumerate(targets):
                if t & ~m == 0:
                    got |= 1 << j
            under[m] = got
        return got

    fc = contained_union_table(enumerate(map(down, enlarged)), len(members))
    failing = 0
    for sel, covered in enumerate(plain):
        failing |= down(covered) & ~fc[sel]
    return tuple(not failing >> j & 1 for j in range(len(targets)))


def brute_force_compact(cs: CoverSystem, a: int) -> bool:
    """Literal verdict for one set: :func:`brute_force_compact_all` on ``(a,)``."""
    return brute_force_compact_all(cs, (a,))[0]


def _outside_row(p: OpPair, kind: str) -> tuple[int, ...]:
    """outside[x] = union of the kind's ambient members whose enlargement
    misses x, one row per pair and kind kept on the pair.

    Those are the members whose enlargement fits inside full minus x, so
    the row is read off a contained-union table at those n sets: the
    pair-interior table for the pair kind, the union of the members
    inside each set for the two plain kinds.
    """
    cache = p._cache
    row = cache.get(("outside", kind))
    if row is None:
        n, full = p.topology.n, p.topology.full
        if kind == "pair":
            inner = p.int_table()
        elif kind in ("pair_open", "base"):
            members = pair_open_family(p) if kind == "pair_open" else enlargement_base(p) + (full,)
            inner = contained_union_table(((u, u) for u in members), n)
        else:
            raise ValueError(f"unknown kind {kind!r}; use 'pair', 'pair_open' or 'base'")
        row = cache[("outside", kind)] = tuple(inner[full ^ (1 << x)] for x in range(n))
    return row


def compactness_kind(p: OpPair, a: int, kind: str = "pair") -> bool:
    """Compactness of ``a`` in one of the pair's three cover systems.

    pair       covers from the selector-open family, enlarged subcovers
    pair_open  plain covers from the pair-open family
    base       plain covers from the enlargement base

    By the avoidance-family criterion ``a`` fails exactly when some x in
    ``a`` has ``a`` inside the union of the members whose enlargement
    misses x.  One set at a time: the records read every set off
    :func:`failing_plane`, and this scan stays as its check.
    """
    outside = _outside_row(p, kind)
    return not any(a & ~outside[x] == 0 for x in iter_points(a))


def failing_plane(p: OpPair, kind: str = "pair") -> int:
    """The 2**n-bit plane of the sets that are not compact in one of the
    pair's cover systems (:func:`compactness_kind`), kept on the pair.

    A fails iff some x in A has A inside outside[x]; the sets holding x
    are those outside the submask plane of ``full ^ {x}``, so the plane
    is the OR, over x, of the submask plane of outside[x] minus that one.
    """
    cache = p._cache
    got = cache.get(("failing", kind))
    if got is None:
        n, full = p.topology.n, p.topology.full
        outside = _outside_row(p, kind)
        planes = submask_planes([*outside, *(full ^ (1 << x) for x in range(n))], n)
        got = 0
        for x in range(n):
            got |= planes[x] & ~planes[n + x]
        cache[("failing", kind)] = got
    return got


def _compact(p: OpPair, a: int, kind: str) -> bool:
    """Compactness of ``a`` read off the kind's :func:`failing_plane`."""
    return not failing_plane(p, kind) >> a & 1


def _named_class_pair(top: Topology, name: str) -> OpPair:
    """The pair realizing a named class, memoized on the space itself so
    it dies with the space."""
    memo = top._memo
    got = memo.get(("compact.class_pair", name))
    if got is None:
        sel, enl = NAMED_CLASSES[name]
        got = memo[("compact.class_pair", name)] = OpPair(builtin(top, sel), builtin(top, enl))
    return got


def named_set_class(top: Topology, a: int, name: str) -> bool:
    """Membership of ``a`` in a named covering class (H, N, s, S, compact)."""
    if name not in NAMED_CLASSES:
        raise ValueError(f"unknown class {name!r}; choose from {tuple(NAMED_CLASSES)}")
    return compactness_kind(_named_class_pair(top, name), a, "pair")


# ---------------------------------------------------------------------------
# equivalence records


@dataclass(frozen=True)
class FilterCompactnessFlags:
    """The ten filter-flavoured statements of cover compactness.

    They agree for every pair and every subset.  Every quantifier runs
    over its complete universe (all families, all selector-closed sets,
    all cores), decided in closed form: the two gap/fip pairs (over
    families and over selector-closed sets) each share one verdict, and
    the family pair and the three base-accumulation statements share the
    singleton-core one; see :func:`filter_compactness_flags`.
    """

    cover: bool
    meeting_bases_accumulate: bool
    meeting_ultra_converge: bool
    inner_bases_accumulate: bool
    inner_ultra_converge: bool
    closure_gap_has_finite_witness: bool
    fip_implies_closure_point: bool
    base_gap_has_disjoint_member: bool
    closed_gap_has_finite_witness: bool
    closed_fip_implies_point: bool

    def as_dict(self) -> dict[str, bool]:
        return dict(self.__dict__)

    def statements(self) -> tuple[bool, ...]:
        return tuple(self.__dict__.values())

    def agree(self) -> bool:
        return len(set(self.statements())) == 1


def _closed_meets(p: OpPair) -> tuple[int, ...]:
    """meets[y] = meet of S_y = {f selector-closed : y in dual(f)}, one row
    per pair kept on the pair."""
    cache = p._cache
    row = cache.get("closed_meets")
    if row is None:
        full = p.topology.full
        dual_enl = dual_table(p.enlarger)
        meets = [full] * p.topology.n
        for f in op_closed_family(p.selector):
            for y in iter_points(dual_enl[f]):
                meets[y] &= f
        row = cache["closed_meets"] = tuple(meets)
    return row


def _singleton_closures(p: OpPair) -> tuple[int, ...]:
    """The pair closure of each singleton, one row per pair kept on the pair."""
    row = p._cache.get("singleton_closures")
    if row is None:
        row = p._cache["singleton_closures"] = tuple(
            pair_closure(p, 1 << y) for y in range(p.topology.n)
        )
    return row


def filter_compactness_flags(p: OpPair, a: int) -> FilterCompactnessFlags:
    """Evaluate the ten statements for one pair and one subset.

    On a finite carrier every filterbase reduces to the principal base
    at its core, so base quantifiers range over all nonempty cores; the
    family quantifiers range over every family of subsets and the closed
    ones over every subfamily of the selector-closed sets.  Each is
    decided by the extreme members named beside the code.
    """
    points_of_a = list(iter_points(a))
    cl_single = _singleton_closures(p)

    flag_cover = _compact(p, a, "pair")

    # bases living inside a; cl is monotone and every nonempty core
    # inside a holds a singleton core, so the singletons decide
    inner_acc = all(cl_single[y] & a for y in points_of_a)
    # Every base meeting a accumulates inside a, and (contrapositive)
    # every single-member base whose closure misses a misses a: both say
    # cl(core) meets a for every core meeting a.  Such a core holds some
    # y in a, and cl({y}) sits inside cl(core) as cl is monotone, so the
    # singleton cores {y}, y in a, decide both, which is inner_acc.
    meeting_acc = member_escape = inner_acc
    # every maximal base meeting a converges inside a
    meeting_ultra = all(
        any((1 << x) & ~p.envelope(y) == 0 for y in points_of_a)
        for x in points_of_a
    )
    inner_ultra = meeting_ultra  # maximal bases inside a are its singletons

    # For a family whose closures' meet misses a, gap needs a finite part
    # whose meet misses a, and fip fails unless there is one.  Meets shrink
    # as a subfamily grows and the family is one of its own finite parts,
    # so both fail exactly when some family has its own meet meeting a
    # while its closures' meet misses a.  Such a family has some y in a
    # inside every member; cl is monotone, so cl({y}) sits inside every
    # member's closure and misses a, and the family {{y}} refutes too.
    # The singleton families therefore decide both, which is inner_acc.
    family_ok = inner_acc

    # The closed pair reads the same over subfamilies sel of the closed
    # sets, judging finite parts by their dual enlargements: by the same
    # argument sel refutes both when its meet misses a while its duals'
    # meet holds some y in a.  Then sel lies in S_y = {f : y in dual(f)},
    # whose meet is smaller and whose duals all hold y, so S_y refutes too:
    # both hold iff every S_y has its meet meeting a.
    meets = _closed_meets(p)
    closed_ok = all(a & meets[y] for y in points_of_a)

    return FilterCompactnessFlags(
        cover=flag_cover,
        meeting_bases_accumulate=meeting_acc,
        meeting_ultra_converge=meeting_ultra,
        inner_bases_accumulate=inner_acc,
        inner_ultra_converge=inner_ultra,
        closure_gap_has_finite_witness=family_ok,
        fip_implies_closure_point=family_ok,
        base_gap_has_disjoint_member=member_escape,
        closed_gap_has_finite_witness=closed_ok,
        closed_fip_implies_point=closed_ok,
    )


@dataclass(frozen=True)
class CoverKindFlags:
    """The seven cover-family statements, gated by the base hypothesis."""

    hypothesis: bool
    cover: bool
    base_cover: bool
    pair_open_cover: bool
    complement_fip: bool
    complement_gap: bool
    pair_complement_fip: bool
    pair_complement_gap: bool

    def statements(self) -> tuple[bool, ...]:
        return (
            self.cover, self.base_cover, self.pair_open_cover,
            self.complement_fip, self.complement_gap,
            self.pair_complement_fip, self.pair_complement_gap,
        )

    def agree(self) -> bool:
        return len(set(self.statements())) == 1


def cover_kind_flags(p: OpPair, a: int) -> CoverKindFlags:
    # The four complement statements quantify over the subfamilies of one
    # fixed family K (the residues full ^ enl[u], or the pair-closed sets):
    #   fip  every subfamily whose finite parts all meet a meets a,
    #   gap  every subfamily missing a has a finite part missing a.
    # On a finite carrier each subfamily is a finite part of itself, so a
    # subfamily missing a is its own witness for gap and refutes the fip
    # premise; both hold for every K and every a.
    return CoverKindFlags(
        hypothesis=base_report(p).hypothesis_d,
        cover=_compact(p, a, "pair"),
        base_cover=_compact(p, a, "base"),
        pair_open_cover=_compact(p, a, "pair_open"),
        complement_fip=True,
        complement_gap=True,
        pair_complement_fip=True,
        pair_complement_gap=True,
    )


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


def _residue_row(p: OpPair) -> tuple[tuple[int, int], ...]:
    """(r, pair closure of r) for every nonempty residue r = full ^ enl[u]
    of a selector-open u, ascending; one row per pair kept on the pair.
    The empty residue is left out: it is compact in every kind and
    meets no set."""
    cache = p._cache
    row = cache.get("residues")
    if row is None:
        full, enl = p.topology.full, p.enlarger.table
        residues = canonical_family(full ^ enl[u] for u in p.selector_open())
        row = cache["residues"] = tuple((r, pair_closure(p, r)) for r in residues if r)
    return row


def space_compactness_flags(p: OpPair) -> SpaceCompactnessFlags:
    """Each statement is one test against a kind's :func:`failing_plane`:
    the whole space is one bit of it, and "every residue (every
    pair-closed set) is compact" says the plane misses the plane of the
    residues (of the pair-closed sets)."""
    n, full = p.topology.n, p.topology.full
    residues = family_plane((r for r, _ in _residue_row(p)), n)
    closed = family_plane(pair_closed_family(p), n)
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


@dataclass(frozen=True)
class AdditiveEnlargerFlags:
    """Compactness against accumulation of bases drawn from the enlarged
    complements, under a union-additive enlarger."""

    hypothesis: bool
    cover: bool
    restricted_bases_accumulate: bool

    def agree(self) -> bool:
        return self.cover == self.restricted_bases_accumulate


def _union_irreducibles(top: Topology, fam: Family) -> tuple[int, ...]:
    """The union-irreducible members of ``fam``: the nonempty members the
    members strictly inside do not union to.  Those lie inside j minus
    one of its points, so their union is the OR, over x in j, of
    ``below[j ^ {x}]`` with ``below`` the contained-union table of
    ``fam``.  Memoized per family on the space."""
    key = ("compact.union_irreducibles", fam)
    got = top._memo.get(key)
    if got is None:
        below = contained_union_table(((u, u) for u in fam), top.n)
        out = []
        for j in fam:
            under = 0
            for x in iter_points(j):
                under |= below[j ^ (1 << x)]
            if under != j:
                out.append(j)
        got = top._memo[key] = tuple(out)
    return got


def additive_enlarger_flags(p: OpPair, a: int) -> AdditiveEnlargerFlags:
    """The additivity hypothesis asks for a monotone selector and for
    ``enl[u | v] == enl[u] | enl[v]`` over all u, v in the
    selector-open family F.

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
    enl = p.enlarger.table
    cache = p._cache
    hyp = cache.get("additive_hypothesis")
    if hyp is None:
        hyp = is_monotone(p.selector)
        if hyp:
            sel_open = p.selector_open()
            for j in _union_irreducibles(p.topology, sel_open):
                image = enl[j]
                if not all(enl[u | j] == enl[u] | image for u in sel_open):
                    hyp = False
                    break
        cache["additive_hypothesis"] = hyp
    # Every filterbase B of residues meeting a must accumulate in a.  B
    # holds its least member m0, so B meets a iff m0 does, and the pair
    # closure is monotone, so its members' closures meet in cl(m0).  The
    # least members are exactly the nonempty residues ({r} is a base).
    return AdditiveEnlargerFlags(
        hypothesis=hyp,
        cover=_compact(p, a, "pair"),
        restricted_bases_accumulate=all(closure & a for r, closure in _residue_row(p) if r & a),
    )


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
