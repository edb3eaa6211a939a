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
of A therefore decides compactness in O(|ambient| * |A|) word steps.
The literal quantifier evaluation is kept alongside as
:func:`brute_force_compact` and the two must agree everywhere.

The equivalence records' subfamily quantifiers are evaluated in closed
form: meets shrink as a subfamily grows, so one extreme subfamily decides
each statement (proofs beside the code; the literal scans are test
oracles).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

from .bits import (
    Family,
    canonical_family,
    derive_seed,
    intersect_all,
    is_antichain,
    iter_points,
    submasks_desc,
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

BRUTE_FORCE_CAP = 20

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


def _compact_no_witness(cs: CoverSystem, a: int) -> bool:
    """Verdict only; sweeps that never read witnesses skip the pruning."""
    enl = cs.enlarger.table
    for point in iter_points(a):
        covered = 0
        for u in cs.ambient:
            if not enl[u] >> point & 1:
                covered |= u
                if a & ~covered == 0:
                    return False
    return True


def brute_force_compact(cs: CoverSystem, a: int) -> bool:
    """Literal evaluation of the compactness quantifiers.

    Every subfamily of the ambient family is inspected; for each one
    covering ``a`` the finite subfamilies are scanned until one has
    enlargements covering ``a``.  Kept as the independent oracle for
    :func:`is_compact`; capped at 2**20 subfamilies.
    """
    members = list(cs.ambient)
    if len(members) > BRUTE_FORCE_CAP:
        raise ValueError(f"ambient family exceeds the oracle cap of {BRUTE_FORCE_CAP} members")
    plain = union_dp(members)
    enl = cs.enlarger.table
    enlarged = union_dp([enl[u] for u in members])
    for cover_sel in range(1 << len(members)):
        if a & ~plain[cover_sel]:
            continue
        if not any(a & ~enlarged[sub] == 0 for sub in submasks_desc(cover_sel)):
            return False
    return True


def _identity(p: OpPair) -> Operation:
    cache = p._cache
    op = cache.get("identity")
    if op is None:
        op = cache["identity"] = builtin(p.topology, "identity")
    return op


def compactness_kind(p: OpPair, a: int, kind: str = "pair") -> bool:
    """Compactness of ``a`` in one of the pair's three cover systems.

    pair       covers from the selector-open family, enlarged subcovers
    pair_open  plain covers from the pair-open family
    base       plain covers from the enlargement base
    """
    cache = p._cache
    cs = cache.get(("kind", kind))
    if cs is None:
        if kind == "pair":
            cs = CoverSystem(p.selector_open(), p.enlarger)
        elif kind == "pair_open":
            cs = CoverSystem(pair_open_family(p), _identity(p))
        elif kind == "base":
            fam = canonical_family(enlargement_base(p) + (p.topology.full,))
            cs = CoverSystem(fam, _identity(p))
        else:
            raise ValueError(f"unknown kind {kind!r}; use 'pair', 'pair_open' or 'base'")
        cache[("kind", kind)] = cs
    return _compact_no_witness(cs, a)


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
# quantification material for the equivalence records


@lru_cache(maxsize=None)
def antichain_families(n: int) -> tuple[Family, ...]:
    """All antichains of nonempty subsets, the empty family included.

    Any family of nonempty sets is interchangeable with the antichain of
    its minimal members in the statements below (closures and meets are
    monotone), so these are the canonical quantification universe.
    Practical up to n = 4.
    """
    if n > 4:
        raise ValueError("exhaustive antichain enumeration is capped at n = 4")
    nonempty = list(range(1, 1 << n))
    out = []
    for sel in range(1 << len(nonempty)):
        fam = tuple(nonempty[i] for i in range(len(nonempty)) if sel >> i & 1)
        if is_antichain(fam):
            out.append(fam)
    return tuple(out)


def sampled_families(n: int, seed: int, count: int) -> tuple[Family, ...]:
    """Seeded random families of nonempty subsets, for carriers too big
    to sweep; deterministic in (n, seed, count)."""
    rng = random.Random(seed)
    out = [()]
    for _ in range(count):
        size = rng.randrange(1, 5)
        fam = canonical_family(rng.randrange(1, 1 << n) for _ in range(size))
        out.append(fam)
    return tuple(out)


@lru_cache(maxsize=None)
def _default_w_families(n: int) -> tuple[Family, ...]:
    if n <= 3:
        return antichain_families(n)
    return sampled_families(n, seed=n, count=64)


# ---------------------------------------------------------------------------
# equivalence records


@dataclass(frozen=True)
class FilterCompactnessFlags:
    """The ten filter-flavoured statements of cover compactness.

    They agree for every pair and every subset whenever their quantifiers
    ran over the complete universe.  The two gap/fip pairs (over families
    and over selector-closed sets) each share one closed-form verdict, and
    the three base-accumulation statements share the singleton-core one;
    see :func:`filter_compactness_flags`.  On carriers too big to sweep, the
    family and closed-family quantifiers run over samples, which can only
    miss refuters; the completeness fields say which statements still
    carry the full claim and :meth:`agree` compares only those.
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
    family_quantifier_complete: bool = True
    closed_quantifier_complete: bool = True

    def as_dict(self) -> dict[str, bool]:
        return dict(self.__dict__)

    def statements(self) -> tuple[bool, ...]:
        out = [
            self.cover,
            self.meeting_bases_accumulate,
            self.meeting_ultra_converge,
            self.inner_bases_accumulate,
            self.inner_ultra_converge,
            self.base_gap_has_disjoint_member,
        ]
        if self.family_quantifier_complete:
            out += [self.closure_gap_has_finite_witness, self.fip_implies_closure_point]
        if self.closed_quantifier_complete:
            out += [self.closed_gap_has_finite_witness, self.closed_fip_implies_point]
        return tuple(out)

    def agree(self) -> bool:
        return len(set(self.statements())) == 1


def _capped_members(p: OpPair, members: Family, tag: str, cap: int = 10) -> Family:
    """Trim a quantification family to at most ``cap`` members.

    Subfamily scans are 2**k, so big families (sampled spaces) are
    deterministically thinned: seeded by the family itself, independent
    of iteration order.
    """
    if len(members) <= cap:
        return members
    rng = random.Random(derive_seed(tag, *members))
    return canonical_family(rng.sample(list(members), cap))


def filter_compactness_flags(
    p: OpPair, a: int, w_families: Sequence[Family] | None = None
) -> FilterCompactnessFlags:
    """Evaluate the ten statements for one pair and one subset.

    On a finite carrier every filterbase reduces to the principal base
    at its core, so base quantifiers scan all nonempty cores; the family
    quantifiers scan ``w_families`` (canonical antichains by default,
    seeded samples beyond n = 3).
    """
    top = p.topology
    n, full = top.n, top.full
    points_of_a = list(iter_points(a))
    # cl[m] = full ^ int[full ^ m], and full ^ m runs down as m runs up
    cl = [full ^ inner for inner in reversed(p.int_table())]
    families_complete = True
    if w_families is None:
        families_complete = n <= 3
        w_families = _default_w_families(n)

    flag_cover = compactness_kind(p, a, "pair")

    # bases living inside a; cl is monotone and every nonempty core
    # inside a holds a singleton core, so the singletons decide
    inner_acc = all(cl[1 << y] & a for y in points_of_a)
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
    # so both come down to the family's own meet missing a.
    family_ok = True
    for fam in w_families:
        meet = meet_cl = full
        for f in fam:
            meet &= f
            meet_cl &= cl[f]
        if a & meet and not a & meet_cl:
            family_ok = False
            break

    # The closed pair reads the same over subfamilies sel of the closed
    # sets, judging finite parts by their dual enlargements: by the same
    # argument sel refutes both when its meet misses a while its duals'
    # meet holds some y in a.  Then sel lies in S_y = {f : y in dual(f)},
    # whose meet is smaller and whose duals all hold y, so S_y refutes too:
    # both hold iff every S_y has its meet meeting a.
    full_closed = op_closed_family(p.selector)
    members = _capped_members(p, full_closed, "closed")
    dual_enl = dual_table(p.enlarger)
    closed_ok = all(
        a & intersect_all((f for f in members if dual_enl[f] >> y & 1), full)
        for y in points_of_a
    )

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
        family_quantifier_complete=families_complete,
        closed_quantifier_complete=members == full_closed,
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
        cover=compactness_kind(p, a, "pair"),
        base_cover=compactness_kind(p, a, "base"),
        pair_open_cover=compactness_kind(p, a, "pair_open"),
        complement_fip=True,
        complement_gap=True,
        pair_complement_fip=True,
        pair_complement_gap=True,
    )


@dataclass(frozen=True)
class SpaceCompactnessFlags:
    """Space-level equivalents: the whole space, the residues of enlarged
    selector-open sets, and the pair-closed sets, in all three kinds.

    On big carriers the residue and closed-set lists are sampled; the
    completeness flag says so.  Equality is still meaningful under the
    hypothesis, which forces every subset compact regardless.
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
    quantifier_complete: bool = True

    def statements(self) -> tuple[bool, ...]:
        return (
            self.space_cover, self.space_base_cover, self.space_pair_open_cover,
            self.residual_cover, self.residual_pair_open_cover, self.residual_base_cover,
            self.closed_cover, self.closed_pair_open_cover, self.closed_base_cover,
        )

    def agree(self) -> bool:
        return len(set(self.statements())) == 1


def space_compactness_flags(p: OpPair) -> SpaceCompactnessFlags:
    top = p.topology
    full = top.full
    enl = p.enlarger.table
    full_residues = canonical_family(full ^ enl[u] for u in p.selector_open())
    full_closed = pair_closed_family(p)
    residues = _capped_members(p, full_residues, "space_residues", cap=24)
    closed = _capped_members(p, full_closed, "space_closed", cap=24)
    return SpaceCompactnessFlags(
        hypothesis=base_report(p).hypothesis_d,
        space_cover=compactness_kind(p, full, "pair"),
        space_base_cover=compactness_kind(p, full, "base"),
        space_pair_open_cover=compactness_kind(p, full, "pair_open"),
        residual_cover=all(compactness_kind(p, r, "pair") for r in residues),
        residual_pair_open_cover=all(compactness_kind(p, r, "pair_open") for r in residues),
        residual_base_cover=all(compactness_kind(p, r, "base") for r in residues),
        closed_cover=all(compactness_kind(p, c, "pair") for c in closed),
        closed_pair_open_cover=all(compactness_kind(p, c, "pair_open") for c in closed),
        closed_base_cover=all(compactness_kind(p, c, "base") for c in closed),
        quantifier_complete=residues == full_residues and closed == full_closed,
    )


@dataclass(frozen=True)
class AdditiveEnlargerFlags:
    """Compactness against accumulation of bases drawn from the enlarged
    complements, under a union-additive enlarger."""

    hypothesis: bool
    cover: bool
    restricted_bases_accumulate: bool
    quantifier_complete: bool = True

    def agree(self) -> bool:
        if not self.quantifier_complete:
            # a sampled base universe can only miss refuters, so only the
            # forward direction still carries the claim
            return not self.cover or self.restricted_bases_accumulate
        return self.cover == self.restricted_bases_accumulate


def additive_enlarger_flags(p: OpPair, a: int) -> AdditiveEnlargerFlags:
    top = p.topology
    full = top.full
    enl = p.enlarger.table
    cache = p._cache
    hyp = cache.get("additive_hypothesis")
    if hyp is None:
        sel_open = p.selector_open()
        additive = all(
            enl[u | v] == enl[u] | enl[v] for u in sel_open for v in sel_open
        )
        hyp = cache["additive_hypothesis"] = is_monotone(p.selector) and additive
    full_residues = canonical_family(full ^ enl[u] for u in p.selector_open())
    residues = _capped_members(p, full_residues, "residues")
    # Every filterbase B of residues meeting a must accumulate in a.  B
    # holds its least member m0, so B meets a iff m0 does, and the pair
    # closure is monotone, so its members' closures meet in cl(m0).  The
    # least members are exactly the nonempty residues ({r} is a base).
    return AdditiveEnlargerFlags(
        hypothesis=hyp,
        cover=compactness_kind(p, a, "pair"),
        restricted_bases_accumulate=all(pair_closure(p, r) & a for r in residues if r & a),
        quantifier_complete=residues == full_residues,
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
