"""Property sweep driver and counterexample miner.

Six suites check every property the library promises, over every
enumerated space up to a configurable size plus seeded random spaces
above it.  A failure never aborts the sweep: the full report is always
produced, with one record per violated statement, because harvested
counterexamples are the point of the exercise.

Reports are deterministic: given the same configuration (seed included)
the emitted JSON is byte-identical from run to run.
"""

from __future__ import annotations

import platform
import random
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from . import __version__
from .bits import Family, canonical_family, derive_seed, submasks_desc
from .compact import (
    CoverSystem,
    additive_enlarger_flags,
    brute_force_compact_all,
    compactness_kind,
    cover_kind_flags,
    filter_compactness_flags,
    is_compact,
    named_set_class,
    space_compactness_flags,
)
from .filters import (
    Filter,
    accumulates,
    adherence_set,
    converges,
    convergence_closure,
    finer_convergent,
    generated_filter,
    is_filterbase,
    is_t2,
    limit_set,
    maximal_filters,
    nbhd_filterbase,
)
from .jsonio import SchemaError, canonical_json
from .ops import (
    BUILTIN_NAMES,
    catalog,
    dual,
    is_monotone,
    is_regular_wrt,
    leq,
    neighborhoods,
    op_open_family,
)
from .pairs import (
    OpPair,
    base_report,
    classify_structure,
    enlargement_base,
    enlarger_is_regular,
    named_family,
    pair_closure,
    pair_closure_by_points,
    pair_interior,
    pair_open_family,
)
from .space import Topology, enumerate_topologies, random_topology

CATALOG_PAIRS = tuple(f"{a},{b}" for a in BUILTIN_NAMES for b in BUILTIN_NAMES)

SUITE_NAMES = (
    "operations",
    "structure",
    "families",
    "filters",
    "compactness_oracle",
    "compactness",
)

MINE_TARGETS = (
    "inclusion_without_order",
    "nonregular_pair",
    "transfer_strictness",
    "nonadditive_enlarger",
)

#: pair families whose pair-open sets must reproduce an independently
#: constructed named family
FAMILY_IDENTITIES = (
    ("int", "cl", "tau_theta"),
    ("cloint", "scl", "SthetaO"),
    ("int", "introcl", "tau_s"),
    ("cloint", "cl", "thetaSO"),
)


@dataclass(frozen=True)
class SuiteConfig:
    """What to sweep.

    Spaces of every size up to ``n_exhaustive`` are enumerated in full;
    ``samples`` further spaces of size ``n_sampled`` are generated from
    the seed.  Subsets and filter cores are quantified exhaustively up to
    4 points and sampled above (16 subsets; the singletons, the whole set
    and seeded cores); filterbases are enumerated in full up to 3 points
    and drawn from the seed above.
    """

    n_exhaustive: int = 3
    n_sampled: int = 6
    samples: int = 0
    seed: int = 0
    pairs: tuple[str, ...] = CATALOG_PAIRS
    suites: tuple[str, ...] = SUITE_NAMES

    def __post_init__(self) -> None:
        if not 0 <= self.n_exhaustive <= 4:
            raise SchemaError("n_exhaustive must be between 0 and 4")
        if not 0 <= self.n_sampled <= 16:
            raise SchemaError("n_sampled must be between 0 and 16")
        if self.samples < 0:
            raise SchemaError("samples must be nonnegative")
        for spec in self.pairs:
            a, _, b = spec.partition(",")
            if a not in BUILTIN_NAMES or b not in BUILTIN_NAMES:
                raise SchemaError(
                    f"unknown pair {spec!r}; sweeps accept builtin names only"
                )
        for name in self.suites:
            if name not in SUITE_NAMES:
                raise SchemaError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")

    @classmethod
    def from_dict(cls, data: dict) -> "SuiteConfig":
        if not isinstance(data, dict):
            raise SchemaError("config must be a JSON object")
        allowed = {"n_exhaustive", "n_sampled", "samples", "seed", "pairs", "suites"}
        unknown = set(data) - allowed
        if unknown:
            raise SchemaError(f"unknown config fields: {sorted(unknown)}")
        kwargs = dict(data)
        for key in ("pairs", "suites"):
            if key in kwargs:
                value = kwargs[key]
                if not isinstance(value, list) or not all(isinstance(x, str) for x in value):
                    raise SchemaError(f"config field {key!r} must be a list of strings")
                kwargs[key] = tuple(value)
        for key in ("n_exhaustive", "n_sampled", "samples", "seed"):
            if key in kwargs and not isinstance(kwargs[key], int):
                raise SchemaError(f"config field {key!r} must be an integer")
        return cls(**kwargs)

    def to_dict(self) -> dict:
        return {
            "n_exhaustive": self.n_exhaustive,
            "n_sampled": self.n_sampled,
            "samples": self.samples,
            "seed": self.seed,
            "pairs": list(self.pairs),
            "suites": list(self.suites),
        }


@dataclass
class SuiteResult:
    instances_checked: int = 0
    failures: list = field(default_factory=list)
    notes: dict = field(default_factory=dict)

    def merge(self, other: "SuiteResult") -> None:
        self.instances_checked += other.instances_checked
        self.failures.extend(other.failures)
        for key, value in other.notes.items():
            self.notes[key] = self.notes.get(key, 0) + value


@dataclass
class Report:
    environment: dict
    config: dict
    suites: dict

    @property
    def ok(self) -> bool:
        return all(not r.failures for r in self.suites.values())

    def to_dict(self) -> dict:
        return {
            "environment": self.environment,
            "config": self.config,
            "suites": {
                name: {
                    "instances_checked": r.instances_checked,
                    "failures": r.failures,
                    "notes": {k: r.notes[k] for k in sorted(r.notes)},
                }
                for name, r in self.suites.items()
            },
        }

    def to_json(self) -> str:
        return canonical_json(self.to_dict())


def emit_report(report: Report, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(report.to_json())


class _PrincipalRow(dict):
    """Core -> limit (or adherence) set of the principal filter at that
    core, for one pair.  Filled over the quantified cores when built; any
    other core (a refinement step, a closure subset or a base's core above
    four points) is computed on first read and kept."""

    __slots__ = ("_of",)

    def __init__(self, of: Callable[[int], int], cores: Sequence[int]):
        super().__init__((c, of(c)) for c in cores)
        self._of = of

    def __missing__(self, core: int) -> int:
        got = self[core] = self._of(core)
        return got


class _SpaceContext:
    """Per-space working set shared by all suites: the operation catalog,
    its pointwise order, the requested pairs, the quantified
    subsets/filterbases/cores, each pair's limit and adherence rows
    over those cores, and each selector's neighbourhood up-sets."""

    def __init__(self, label: str, top: Topology, cfg: SuiteConfig):
        self.label = label
        self.top = top
        self.n = top.n
        self.full = top.full
        self.seed = cfg.seed
        self.ops = catalog(top)
        self.pair_names = []
        self.pairs = {}
        for spec in cfg.pairs:
            a, _, b = spec.partition(",")
            self.pair_names.append((a, b))
            self.pairs[(a, b)] = OpPair(self.ops[a], self.ops[b])
        self.subsets = self._quantified_subsets(cfg)
        self.bases = self._quantified_bases(cfg)
        self.core_list = self._quantified_cores()
        self.open_sets = {name: op_open_family(op) for name, op in self.ops.items()}
        self.open_as_set = {name: set(f) for name, f in self.open_sets.items()}
        self.monotone = {name: is_monotone(op) for name, op in self.ops.items()}
        #: order[(a, b)] is leq(ops[a], ops[b]), measured once per space
        self.order = {
            (a, b): leq(self.ops[a], self.ops[b]) for a in BUILTIN_NAMES for b in BUILTIN_NAMES
        }
        self._filter_rows: dict[tuple[str, str], tuple[_PrincipalRow, _PrincipalRow]] = {}
        self._neighborhoods: dict[tuple[str, int], tuple] = {}

    def _quantified_subsets(self, cfg: SuiteConfig) -> list[int]:
        if self.n <= 4:
            return list(self.top.subsets())
        rng = random.Random(derive_seed(cfg.seed, "subsets", self.label))
        picked = {0, self.full}
        while len(picked) < 16:
            picked.add(rng.randrange(1 << self.n))
        return sorted(picked)

    def _quantified_bases(self, cfg: SuiteConfig) -> list[tuple[int, ...]]:
        if self.n <= 3:
            nonempty = list(range(1, 1 << self.n))
            out = []
            for sel in range(1, 1 << len(nonempty)):
                fam = tuple(nonempty[i] for i in range(len(nonempty)) if sel >> i & 1)
                if is_filterbase(fam):
                    out.append(fam)
            return out
        # bigger carriers: seeded bases built as supersets of a random core
        rng = random.Random(derive_seed(cfg.seed, "bases", self.label))
        out = []
        for _ in range(24 if self.n <= 9 else 8):
            core = rng.randrange(1, 1 << self.n)
            members = {core}
            for _ in range(rng.randrange(0, 3)):
                members.add(core | rng.randrange(1 << self.n))
            out.append(canonical_family(members))
        return out

    def _quantified_cores(self) -> Sequence[int]:
        """Filter cores to quantify over: every nonempty mask up to four
        points, singletons plus seeded draws plus the full set above."""
        if self.n <= 4:
            return range(1, 1 << self.n)
        rng = random.Random(derive_seed(self.seed, "cores", self.label))
        picked = {1 << x for x in range(self.n)}
        picked.add(self.full)
        while len(picked) < self.n + 17:
            picked.add(rng.randrange(1, 1 << self.n))
        return sorted(picked)

    def cores(self) -> Sequence[int]:
        return self.core_list

    def filter_rows(self, key: tuple[str, str]) -> tuple[_PrincipalRow, _PrincipalRow]:
        """(limits, adherences) of the principal filters at the quantified
        cores for one requested pair, built on first use and kept for the
        life of the space."""
        rows = self._filter_rows.get(key)
        if rows is None:
            p, n = self.pairs[key], self.n
            rows = self._filter_rows[key] = (
                _PrincipalRow(lambda c: limit_set(Filter(n, c), p), self.core_list),
                _PrincipalRow(lambda c: adherence_set(Filter(n, c), p), self.core_list),
            )
        return rows

    def neighborhoods(self, sel_name: str, x: int) -> tuple:
        """Supersets of the selector-open sets around ``x``: they depend
        on the selector alone, so each is built once per space."""
        key = (sel_name, x)
        got = self._neighborhoods.get(key)
        if got is None:
            got = self._neighborhoods[key] = neighborhoods(self.n, self.open_sets[sel_name], x)
        return got

    def family_topology(self, family: Family) -> Topology:
        """The topology whose opens are ``family``: pairs often share an
        open family, so each is validated and tabulated once, in the
        space's memo."""
        key = ("harness.family_topology", family)
        got = self.top._memo.get(key)
        if got is None:
            got = self.top._memo[key] = Topology(self.top.ground, family)
        return got

    def regularity(self, sel_name: str, enl_name: str) -> Optional[bool]:
        """Whether the enlarger is regular against the selector-open
        family; None past :meth:`regularity_gated`.  The verdict is
        cached on the pair, shared with :func:`finer_convergent` and
        :func:`nbhd_filterbase`.

        Fast path: a monotone enlarger is regular against any
        intersection-closed family (the meet of two neighbourhoods is the
        squeezing witness).
        """
        fam = self.open_sets[sel_name]
        if self.monotone[enl_name] and self.top.family_props(fam)[0]:
            return True
        if self.regularity_gated(fam):
            return None
        return enlarger_is_regular(self.pairs[(sel_name, enl_name)])

    def regularity_gated(self, fam: Family) -> bool:
        """Whether regularity over ``fam`` is skipped.  The closed form
        is linear, so the gate guards no cost: it only reproduces the
        ``regularity_scan_skipped`` and ``regularity_unknown`` notes
        pinned in ``bench/expected.json``."""
        return len(fam) ** 3 * max(self.n, 1) > 2 * 10**8


def _fail(out: SuiteResult, ctx: _SpaceContext, pair: str, subject: str,
          statement: str, witness: str = "") -> None:
    out.failures.append({
        "space": ctx.label,
        "opens": [ctx.top.ground.labels_of_mask(m) for m in ctx.top.opens],
        "pair": pair,
        "subject": subject,
        "statement": statement,
        "witness": witness,
    })


def _mask_str(ctx: _SpaceContext, mask: int) -> str:
    return "{" + ",".join(ctx.top.ground.labels_of_mask(mask)) + "}"


# ---------------------------------------------------------------------------
# suites


def _suite_operations(ctx: _SpaceContext, cfg: SuiteConfig) -> SuiteResult:
    out = SuiteResult()
    ops = ctx.ops
    order = ctx.order
    names = BUILTIN_NAMES

    for nm in names:
        out.instances_checked += 1
        if dual(dual(ops[nm])).table != ops[nm].table:
            _fail(out, ctx, nm, nm, "double dual returns the operation")
    for a, b in (("int", "cl"), ("cloint", "introcl"), ("scl", "sint"), ("identity", "identity")):
        out.instances_checked += 1
        if dual(ops[a]).table != ops[b].table:
            _fail(out, ctx, f"{a},{b}", a, "catalog dual identity")

    chains = (
        ("int", "cloint"), ("cloint", "cl"),
        ("int", "identity"), ("identity", "scl"), ("scl", "cl"),
        ("int", "introcl"), ("introcl", "scl"),
    )
    for a, b in chains:
        out.instances_checked += 1
        if not order[(a, b)]:
            _fail(out, ctx, f"{a},{b}", a, "catalog order chain")

    # partial-order axioms over the catalog
    for a in names:
        out.instances_checked += 1
        if not order[(a, a)]:
            _fail(out, ctx, a, a, "order is reflexive")
        for b in names:
            if order[(a, b)] and order[(b, a)] and ops[a].table != ops[b].table:
                _fail(out, ctx, f"{a},{b}", a, "order is antisymmetric")
            for c in names:
                if order[(a, b)] and order[(b, c)] and not order[(a, c)]:
                    _fail(out, ctx, f"{a},{c}", b, "order is transitive")

    for nm in names:
        fam = ctx.open_sets[nm]
        famset = ctx.open_as_set[nm]
        out.instances_checked += 1
        if 0 not in famset or ctx.full not in famset or any(
            u not in famset for u in ctx.top.opens
        ):
            _fail(out, ctx, nm, nm, "open family contains the opens and the ends")
        out.instances_checked += 1
        if not ctx.monotone[nm]:
            _fail(out, ctx, nm, nm, "catalog operations are monotone")
        elif not ctx.top.family_props(fam)[1]:
            _fail(out, ctx, nm, nm, "monotone operation yields a supratopology")

    # forward inclusion: dominated enlarger widens the open family
    for a in names:
        for b in names:
            out.instances_checked += 1
            if order[(a, b)] or order[("identity", b)]:
                if not ctx.open_as_set[a] <= ctx.open_as_set[b]:
                    _fail(out, ctx, f"{a},{b}", a, "order forces open-family inclusion")

    for nm in ("cloint", "cl", "scl", "identity", "introcl"):
        if ctx.regularity_gated(ctx.top.opens):
            out.notes["regularity_scan_skipped"] = out.notes.get("regularity_scan_skipped", 0) + 1
            continue
        out.instances_checked += 1
        if not is_regular_wrt(ops[nm], ctx.top.opens):
            _fail(out, ctx, nm, nm, "catalog operation regular over the opens")

    for a in names:
        selfam = ctx.open_sets[a]
        inter, union = ctx.top.family_props(selfam)
        if inter and union:
            for b in names:
                if not ctx.monotone[b]:
                    continue
                if ctx.regularity_gated(selfam):
                    out.notes["regularity_scan_skipped"] = out.notes.get("regularity_scan_skipped", 0) + 1
                    continue
                out.instances_checked += 1
                p = ctx.pairs.get((a, b))
                regular = enlarger_is_regular(p) if p is not None else is_regular_wrt(ops[b], selfam)
                if not regular:
                    _fail(out, ctx, f"{a},{b}", b, "monotone enlarger regular over a selector topology")

    # identity enlarger reproduces the selector family (monotone selector)
    for a in names:
        if ctx.monotone[a]:
            out.instances_checked += 1
            p = ctx.pairs.get((a, "identity")) or OpPair(ops[a], ops["identity"])
            if pair_open_family(p) != ctx.open_sets[a]:
                _fail(out, ctx, f"{a},identity", a, "identity enlarger keeps the selector family")

    # semi-closure is idempotent on semi-open sets
    scl = ops["scl"].table
    out.instances_checked += 1
    if any(scl[scl[u]] != scl[u] for u in named_family(ctx.top, "SO")):
        _fail(out, ctx, "scl", "SO", "semi-closure idempotent on semi-open sets")

    return out


def _suite_structure(ctx: _SpaceContext, cfg: SuiteConfig) -> SuiteResult:
    out = SuiteResult()
    for (a, b) in ctx.pair_names:
        p = ctx.pairs[(a, b)]
        pair = p.name
        rep = classify_structure(p)
        out.instances_checked += 1
        if not rep.is_supratopology:
            _fail(out, ctx, pair, "X", "pair-open family is a supratopology")
        if not rep.closed_iff_cl_subset:
            _fail(out, ctx, pair, "X", "closed in the family iff closure shrinks")

        # complement duality and monotonicity of the pair operators
        for s in ctx.subsets:
            if pair_closure(p, s) != pair_closure_by_points(p, s):
                _fail(out, ctx, pair, _mask_str(ctx, s), "pointwise and complement closures agree")
                break
        monotone_broken = False
        for s in ctx.subsets:
            inner = pair_interior(p, s)
            for i in range(ctx.n):
                if s >> i & 1:
                    continue
                if inner & ~pair_interior(p, s | (1 << i)):
                    _fail(out, ctx, pair, _mask_str(ctx, s), "pair interior is monotone")
                    monotone_broken = True
                    break
            if monotone_broken:
                break

        regular = ctx.regularity(a, b)
        if regular is None:
            out.notes["regularity_unknown"] = out.notes.get("regularity_unknown", 0) + 1
            regular = False  # skip the gated checks, nothing is asserted
        nested = ctx.open_as_set[a] <= ctx.open_as_set[b]
        dominates = ctx.order[("identity", b)] or ctx.order[(a, b)]
        if regular:
            out.instances_checked += 1
            if not rep.is_topology:
                _fail(out, ctx, pair, "X", "regular enlarger makes the family a topology")
        if regular and dominates:
            out.instances_checked += 1
            if not rep.closed_iff_cl_equal:
                _fail(out, ctx, pair, "X", "dominating enlarger upgrades closed sets to fixed points")
        if regular and nested:
            out.instances_checked += 1
            # closure-operator readings: the weaker one must hold, the
            # stronger one is recorded either way
            if not rep.is_topology:
                # already reported above; the readings below presuppose it
                _fail(out, ctx, pair, "X", "closure operator induces the pair topology")
            else:
                ptop = ctx.family_topology(pair_open_family(p))
                chain_ok = True
                for s in ctx.subsets:
                    pc = pair_closure(p, s)
                    if s & ~pc or pc & ~ptop.closure(s):
                        chain_ok = False
                        break
                if not (rep.closed_iff_cl_subset and chain_ok):
                    _fail(out, ctx, pair, "X", "closure operator induces the pair topology")
                key = "cl_reading_both" if rep.closed_iff_cl_equal else "cl_reading_subset_only"
                out.notes[key] = out.notes.get(key, 0) + 1

                pair_open = set(pair_open_family(p))
                binpair = all(x in pair_open for x in enlargement_base(p))
                if binpair:
                    out.instances_checked += 1
                    if not rep.is_kuratowski:
                        _fail(out, ctx, pair, "X", "pair closure is a Kuratowski operator")
                    if any(pair_closure(p, s) != ptop.closure(s) for s in ctx.subsets):
                        _fail(out, ctx, pair, "X", "pair closure equals closure in the pair topology")

        rep2 = base_report(p)
        out.instances_checked += 1
        if rep2.hypothesis_a and not rep2.base_in_pair_and_selector:
            _fail(out, ctx, pair, "base", "stable images land in both open families")
        if (rep2.hypothesis_b or rep2.hypothesis_c or rep2.hypothesis_d) and not rep2.is_base:
            _fail(out, ctx, pair, "base", "enlargement base generates the pair-open family")
    return out


def _suite_families(ctx: _SpaceContext, cfg: SuiteConfig) -> SuiteResult:
    out = SuiteResult()
    top = ctx.top
    requested = set(ctx.pair_names)

    for a, b, fam_name in FAMILY_IDENTITIES:
        if (a, b) not in requested:
            continue
        out.instances_checked += 1
        if pair_open_family(ctx.pairs[(a, b)]) != named_family(top, fam_name):
            _fail(out, ctx, f"{a},{b}", fam_name, "pair family equals the named family")

    out.instances_checked += 1
    if ctx.open_sets["int"] != top.opens:
        _fail(out, ctx, "int", "tau", "interior-open sets are the opens")
    checks = (("cloint", "SO"), ("introcl", "PO"))
    for nm, fam_name in checks:
        out.instances_checked += 1
        if ctx.open_sets[nm] != named_family(top, fam_name):
            _fail(out, ctx, nm, fam_name, "operation-open family equals the named family")
    for nm in ("cl", "identity", "scl"):
        out.instances_checked += 1
        if ctx.open_sets[nm] != tuple(top.subsets()):
            _fail(out, ctx, nm, "P(X)", "operation-open family is the whole power set")

    # complement pairings among the named families
    for opened, closed in (("SO", "SC"), ("PO", "PC"), ("SthetaO", "SthetaC"), ("thetaSO", "thetaSC")):
        out.instances_checked += 1
        expect = canonical_family(ctx.full ^ m for m in named_family(top, opened))
        if named_family(top, closed) != expect:
            _fail(out, ctx, "", closed, "closed family complements the open one")

    base_checks = (("int", "introcl", "RO"), ("cloint", "cl", "RC"))
    for a, b, fam_name in base_checks:
        if (a, b) not in requested:
            continue
        out.instances_checked += 1
        if enlargement_base(ctx.pairs[(a, b)]) != named_family(top, fam_name):
            _fail(out, ctx, f"{a},{b}", fam_name, "enlargement base equals the named family")
    for a in BUILTIN_NAMES:
        if (a, "identity") not in requested:
            continue
        out.instances_checked += 1
        if enlargement_base(ctx.pairs[(a, "identity")]) != ctx.open_sets[a]:
            _fail(out, ctx, f"{a},identity", a, "identity enlarger bases the selector family")

    # enlargers agreeing on the selector-open family induce the same family
    for a in BUILTIN_NAMES:
        sel = ctx.open_sets[a]
        for b in BUILTIN_NAMES:
            for c in BUILTIN_NAMES:
                if (a, b) not in requested or (a, c) not in requested:
                    continue
                if all(ctx.ops[b].table[u] == ctx.ops[c].table[u] for u in sel):
                    out.instances_checked += 1
                    if pair_open_family(ctx.pairs[(a, b)]) != pair_open_family(ctx.pairs[(a, c)]):
                        _fail(out, ctx, f"{a},{b}", f"{a},{c}", "agreeing enlargers induce one family")
    return out


def _suite_filters(ctx: _SpaceContext, cfg: SuiteConfig) -> SuiteResult:
    out = SuiteResult()
    n, full = ctx.n, ctx.full
    base_cores = [generated_filter(n, base).core for base in ctx.bases]

    for (a, b) in ctx.pair_names:
        p = ctx.pairs[(a, b)]
        pair = p.name
        sel_open = ctx.open_sets[a]
        regular = ctx.regularity(a, b)
        if regular is None:
            out.notes["regularity_unknown"] = out.notes.get("regularity_unknown", 0) + 1
            regular = False  # gated statements are skipped, not asserted
        nested = ctx.open_as_set[a] <= ctx.open_as_set[b]
        inter_closed = ctx.top.family_props(sel_open)[0]
        monotone_enl = ctx.monotone[b]
        lim, adh = ctx.filter_rows((a, b))
        env = [p.envelope(x) for x in range(n)]

        # base predicates match the generated filter's; the witness is the
        # lowest point where either set differs
        for base, core in zip(ctx.bases, base_cores):
            out.instances_checked += 1
            diff = (limit_set(base, p) ^ lim[core]) | (adherence_set(base, p) ^ adh[core])
            if diff:
                _fail(out, ctx, pair, str(list(base)), "base and generated filter agree",
                      str((diff & -diff).bit_length() - 1))

        # superset-closed neighbourhood variant changes nothing (monotone
        # enlarger); each up-set is one pass over all subsets, built once
        # per selector and point, and the variant is gated on bigger carriers
        if monotone_enl and (1 << n) * max(len(sel_open), 1) <= 10**7:
            nbhd = [ctx.neighborhoods(a, x) for x in range(n)]
            for core in ctx.cores():
                F = Filter(n, core)
                out.instances_checked += 1
                for x in range(n):
                    if bool(lim[core] >> x & 1) != converges(F, p, x, family=nbhd[x]) or \
                       bool(adh[core] >> x & 1) != accumulates(F, p, x, family=nbhd[x]):
                        _fail(out, ctx, pair, _mask_str(ctx, core), "neighbourhood variant agrees", str(x))
                        break
        elif monotone_enl:
            out.notes["neighbourhood_variant_skipped"] = out.notes.get("neighbourhood_variant_skipped", 0) + 1

        enl_table = ctx.ops[b].table
        local_at = [p.selector_at(x) for x in range(n)]
        for core in ctx.cores():
            out.instances_checked += 1
            lim_c = lim[core]
            if lim_c & ~adh[core]:
                _fail(out, ctx, pair, _mask_str(ctx, core), "limits are adherent")
            # membership characterization of convergence
            for x in range(n):
                lit = all(core & ~enl_table[u] == 0 for u in local_at[x])
                if bool(lim_c >> x & 1) != lit:
                    _fail(out, ctx, pair, _mask_str(ctx, core), "convergence is enlarged-members containment", str(x))
                    break

        # refinement monotonicity; single-point core drops suffice, any
        # refinement is a chain of them and the two set maps compose
        for c1 in ctx.cores():
            if c1.bit_count() == 1:
                continue
            lim1, adh1 = lim[c1], adh[c1]
            out.instances_checked += 1
            broken = False
            for i in range(n):
                c2 = c1 ^ (1 << i)  # finer
                if not c1 >> i & 1 or c2 == 0:
                    continue
                if adh[c2] & ~adh1 or lim1 & ~lim[c2]:
                    _fail(out, ctx, pair, _mask_str(ctx, c1), "refinement moves limits up, adherence down", _mask_str(ctx, c2))
                    broken = True
                    break
            if broken:
                break

        # accumulation equals existence of a finer convergent filter, and
        # the refinement construction is exercised on every core
        for core in ctx.cores():
            out.instances_checked += 1
            if n <= 4:
                # the literal submask scan, read off the limit row
                literal = 0
                for c2 in submasks_desc(core):
                    if c2:
                        literal |= lim[c2]
            for x in range(n):
                acc = bool(adh[core] >> x & 1)
                # exact: convergence survives refinement, so some finer
                # filter converges iff some singleton core inside does; the
                # literal scan is kept on small carriers to check exactly that
                finer = bool(core & env[x])
                if n <= 4 and bool(literal >> x & 1) != finer:
                    _fail(out, ctx, pair, _mask_str(ctx, core),
                          "singleton cores decide finer convergence", str(x))
                if finer and not acc:
                    _fail(out, ctx, pair, _mask_str(ctx, core), "convergent refinements accumulate", str(x))
                if regular:
                    if acc != finer:
                        _fail(out, ctx, pair, _mask_str(ctx, core), "regular: accumulation iff finer convergence", str(x))
                    if acc:
                        F = Filter(n, core)
                        try:
                            G = finer_convergent(F, p, x)
                            good = G.is_finer_than(F) and converges(G, p, x)
                        except RuntimeError:
                            good = False
                        if not good:
                            _fail(out, ctx, pair, _mask_str(ctx, core), "refinement construction converges", str(x))

        # maximal filters: accumulation already is convergence
        for F in maximal_filters(ctx.top):
            out.instances_checked += 1
            if adh[F.core] & ~lim[F.core]:
                _fail(out, ctx, pair, _mask_str(ctx, F.core), "maximal accumulation is convergence")

        # separation kills multiple limits
        if is_t2(p):
            for core in ctx.cores():
                lim_c = lim[core]
                out.instances_checked += 1
                if lim_c and (adh[core] != lim_c or lim_c.bit_count() > 1):
                    _fail(out, ctx, pair, _mask_str(ctx, core), "separated pairs give unique limits")

        # neighbourhood filterbases converge by construction
        if inter_closed and nested:
            for x in range(n):
                out.instances_checked += 1
                try:
                    nbhd_filterbase(p, x, "plain")
                except RuntimeError:
                    _fail(out, ctx, pair, str(x), "plain neighbourhood base converges")
        if regular and nested:
            for x in range(n):
                out.instances_checked += 1
                try:
                    nbhd_filterbase(p, x, "enlarged")
                except RuntimeError:
                    _fail(out, ctx, pair, str(x), "enlarged neighbourhood base converges")

        # filters versus the pair closure; cores inside s are scanned in
        # full on small carriers, while above that the scan shrinks to the
        # singletons and s itself, which is exact: convergence survives
        # refinement (singletons decide it) and accumulation survives
        # coarsening (the core s decides it)
        def cores_within(s: int):
            if n <= 4:
                return [c for c in submasks_desc(s) if c]
            singles = [1 << i for i in range(n) if s >> i & 1]
            return sorted({s, *singles} - {0})

        for s in ctx.subsets:
            pc = pair_closure(p, s)
            out.instances_checked += 1
            # points where some filter containing s accumulates / converges
            acc_exists = conv_exists = 0
            for c in cores_within(s):
                acc_exists |= adh[c]
                conv_exists |= lim[c]
            for x in range(n):
                if acc_exists >> x & 1 and not pc >> x & 1:
                    _fail(out, ctx, pair, _mask_str(ctx, s), "accumulating filters land in the closure", str(x))
                if regular and (pc ^ conv_exists) >> x & 1:
                    _fail(out, ctx, pair, _mask_str(ctx, s), "regular: closure points are filter limits", str(x))
            if regular:
                closed = pc & ~s == 0
                absorbed = conv_exists & ~s == 0
                if closed != absorbed:
                    _fail(out, ctx, pair, _mask_str(ctx, s), "regular: closed iff limits stay inside")

        # the convergence closure operator
        ccl = {s: convergence_closure(p, s) for s in ctx.subsets}
        out.instances_checked += 1
        if any(ccl[s] != convergence_closure(p, s, exhaustive=True) for s in ctx.subsets):
            _fail(out, ctx, pair, "cl*", "singleton scan equals the exhaustive scan")
        if regular:
            out.instances_checked += 1
            if any(ccl[s] != pair_closure(p, s) for s in ctx.subsets):
                _fail(out, ctx, pair, "cl*", "regular: convergence closure is the pair closure")
            if n <= 4:
                # every subset is quantified here, so ccl holds every complement
                fam = pair_open_family(p)
                tau_sub = tuple(
                    u for u in ctx.top.subsets()
                    if ccl[full ^ u] & ~(full ^ u) == 0
                )
                if tau_sub != fam:
                    _fail(out, ctx, pair, "cl*", "shrinking-complement family matches the pair family")
                if nested:
                    tau_eq = tuple(
                        u for u in ctx.top.subsets()
                        if ccl[full ^ u] == full ^ u
                    )
                    if tau_eq != fam:
                        _fail(out, ctx, pair, "cl*", "fixed-complement family matches the pair family")

        # convergence/accumulation transfer between pairs, read off the
        # wider pair's rows
        for (c, d) in ctx.pair_names:
            if not (ctx.open_as_set[c] <= ctx.open_as_set[a] and ctx.order[(b, d)]):
                continue
            wide_lim, wide_adh = ctx.filter_rows((c, d))
            out.instances_checked += 1
            for core in ctx.cores():
                if lim[core] & ~wide_lim[core] or adh[core] & ~wide_adh[core]:
                    _fail(out, ctx, pair, f"{c},{d}", "transfer to a wider pair", _mask_str(ctx, core))
                    break
    return out


def _suite_compactness_oracle(ctx: _SpaceContext, cfg: SuiteConfig) -> SuiteResult:
    out = SuiteResult()
    if ctx.n <= 2:
        ambients = []
        others = [m for m in range(1 << ctx.n) if m != ctx.full]
        for sel in range(1 << len(others)):
            fam = tuple(sorted(
                [others[i] for i in range(len(others)) if sel >> i & 1] + [ctx.full]
            ))
            ambients.append(fam)
    else:
        derived = set()
        for fam in ctx.open_sets.values():
            derived.add(fam)
        for p in ctx.pairs.values():
            derived.add(pair_open_family(p))
            derived.add(canonical_family(enlargement_base(p) + (ctx.full,)))
        ambients = sorted(derived)

    # subfamily scans are 2**|ambient|; thin the big sampled-space
    # families well below the hard oracle cap to keep the sweep quick
    sweep_cap = 10
    rng = random.Random(derive_seed(cfg.seed, "oracle", ctx.label))
    for fam in ambients:
        if len(fam) > sweep_cap:
            trimmed = rng.sample([m for m in fam if m != ctx.full], sweep_cap - 1)
            fam = canonical_family(trimmed + [ctx.full])
        for enl_name in BUILTIN_NAMES:
            cs = CoverSystem(fam, ctx.ops[enl_name])
            literal = brute_force_compact_all(cs, ctx.subsets)
            for s, literal_compact in zip(ctx.subsets, literal):
                out.instances_checked += 1
                verdict = is_compact(cs, s)
                if verdict.compact != literal_compact:
                    _fail(out, ctx, enl_name, _mask_str(ctx, s),
                          "fast criterion agrees with the literal oracle", str(list(fam)))
                if not verdict.compact:
                    cover = verdict.witness_cover
                    point = verdict.witness_point
                    enl = ctx.ops[enl_name].table
                    union = 0
                    for u in cover:
                        union |= u
                    if s & ~union or not s >> point & 1 or any(
                        enl[u] >> point & 1 for u in cover
                    ):
                        _fail(out, ctx, enl_name, _mask_str(ctx, s),
                              "failing verdicts carry valid witnesses", str(list(cover)))
    return out


def _suite_compactness(ctx: _SpaceContext, cfg: SuiteConfig) -> SuiteResult:
    out = SuiteResult()
    top = ctx.top

    class_masks = {}
    for key, p in ctx.pairs.items():
        mask = {}
        for s in ctx.subsets:
            mask[s] = compactness_kind(p, s, "pair")
        class_masks[key] = mask

    for (a, b) in ctx.pair_names:
        p = ctx.pairs[(a, b)]
        pair = p.name
        for s in ctx.subsets:
            out.instances_checked += 1
            flags = filter_compactness_flags(p, s)
            if not flags.agree():
                _fail(out, ctx, pair, _mask_str(ctx, s),
                      "filter statements agree", str(flags.as_dict()))
            kflags = cover_kind_flags(p, s)
            if kflags.hypothesis and not kflags.agree():
                _fail(out, ctx, pair, _mask_str(ctx, s),
                      "cover kinds agree under the base hypothesis", str(kflags.statements()))
            aflags = additive_enlarger_flags(p, s)
            if aflags.hypothesis and not aflags.agree():
                _fail(out, ctx, pair, _mask_str(ctx, s),
                      "additive enlarger matches restricted accumulation")
        sflags = space_compactness_flags(p)
        out.instances_checked += 1
        if sflags.hypothesis and not sflags.agree():
            _fail(out, ctx, pair, "X", "space-level statements agree", str(sflags.statements()))

        # compactness transfers to wider pairs
        for (c, d) in ctx.pair_names:
            if not (ctx.open_as_set[c] <= ctx.open_as_set[a] and ctx.order[(b, d)]):
                continue
            out.instances_checked += 1
            src, dst = class_masks[(a, b)], class_masks[(c, d)]
            strict = [s for s in ctx.subsets if src[s] and not dst[s]]
            if strict:
                _fail(out, ctx, pair, f"{c},{d}", "compact sets transfer to wider pairs",
                      _mask_str(ctx, strict[0]))

        # enlargers agreeing on the selector-open family give one verdict
        sel = ctx.open_sets[a]
        for (c, d) in ctx.pair_names:
            if c != a or d == b:
                continue
            if all(ctx.ops[b].table[u] == ctx.ops[d].table[u] for u in sel):
                q = ctx.pairs[(c, d)]
                out.instances_checked += 1
                for s in ctx.subsets:
                    if class_masks[(a, b)][s] != class_masks[(c, d)][s] or \
                       compactness_kind(p, s, "pair_open") != compactness_kind(q, s, "pair_open"):
                        _fail(out, ctx, pair, f"{c},{d}", "agreeing enlargers give one verdict", _mask_str(ctx, s))
                        break

    # named class implications
    for s in ctx.subsets:
        out.instances_checked += 1
        n_cls = named_set_class(top, s, "N")
        h_cls = named_set_class(top, s, "H")
        s_cls = named_set_class(top, s, "s")
        big_s = named_set_class(top, s, "S")
        if (n_cls and not h_cls) or (s_cls and not big_s) or (big_s and not h_cls):
            _fail(out, ctx, "", _mask_str(ctx, s), "named class implications hold")
    return out


_SUITES: dict[str, Callable[[_SpaceContext, SuiteConfig], SuiteResult]] = {
    "operations": _suite_operations,
    "structure": _suite_structure,
    "families": _suite_families,
    "filters": _suite_filters,
    "compactness_oracle": _suite_compactness_oracle,
    "compactness": _suite_compactness,
}


def sweep_spaces(cfg: SuiteConfig) -> list[tuple[str, Topology]]:
    """The space universe a configuration asks for, in canonical order."""
    spaces = []
    for n in range(1, cfg.n_exhaustive + 1):
        for idx, top in enumerate(enumerate_topologies(n)):
            spaces.append((f"n={n}#{idx}", top))
    if cfg.samples and cfg.n_sampled > cfg.n_exhaustive:
        for i in range(cfg.samples):
            seed = derive_seed(cfg.seed, "space", i)
            top = random_topology(cfg.n_sampled, seed, cfg.n_sampled)
            spaces.append((f"n={cfg.n_sampled}~{i}", top))
    return spaces


def run_suites(cfg: SuiteConfig, spaces: Optional[Sequence[tuple[str, Topology]]] = None) -> Report:
    """Run the configured suites over the configured spaces, one space
    after another, merging results in space order."""
    if spaces is None:
        spaces = sweep_spaces(cfg)
    suites = {name: SuiteResult() for name in cfg.suites}
    for label, top in spaces:
        ctx = _SpaceContext(label, top, cfg)
        for name in cfg.suites:
            suites[name].merge(_SUITES[name](ctx, cfg))
    return Report(
        environment={
            "seed": cfg.seed,
            "versions": {"python": platform.python_version(), "topolab": __version__},
        },
        config=cfg.to_dict(),
        suites=suites,
    )


# ---------------------------------------------------------------------------
# counterexample mining


def _mined_spaces(n_max: int) -> list[tuple[str, Topology]]:
    return [
        (f"n={n}#{idx}", top)
        for n in range(1, min(n_max, 4) + 1)
        for idx, top in enumerate(enumerate_topologies(n))
    ]


def mine_counterexamples(target: str, n_max: int = 2) -> list[dict]:
    """Search the enumerated spaces for witnesses of a named phenomenon.

    inclusion_without_order   open-family inclusion between two catalog
                              operations with neither order hypothesis
    nonregular_pair           an operation failing regularity against a
                              three-member family {U, V, X} of
                              incomparable intersecting U, V
    transfer_strictness       compact classes strictly growing along a
                              valid transfer of pairs
    nonadditive_enlarger      an enlarger that is not union-additive on
                              its selector-open family

    Deterministic: spaces, operations and families are scanned in
    canonical order, and the full witness list is returned.
    """
    if target not in MINE_TARGETS:
        raise SchemaError(f"unknown mine target {target!r}; choose from {MINE_TARGETS}")
    witnesses: list[dict] = []
    for label, top in _mined_spaces(n_max):
        ops = catalog(top)
        opens_labels = [top.ground.labels_of_mask(m) for m in top.opens]
        if target == "inclusion_without_order":
            fams = {nm: set(op_open_family(ops[nm])) for nm in BUILTIN_NAMES}
            for a in BUILTIN_NAMES:
                for b in BUILTIN_NAMES:
                    if a == b:
                        continue
                    if fams[a] <= fams[b] and not leq(ops[a], ops[b]) \
                            and not leq(ops["identity"], ops[b]):
                        witnesses.append({
                            "space": label, "opens": opens_labels,
                            "first": a, "second": b,
                        })
        elif target == "nonregular_pair":
            n, full = top.n, top.full
            proper = [m for m in range(1, full) if m]
            for i, u in enumerate(proper):
                for v in proper[i + 1:]:
                    if u & v == 0 or u & ~v == 0 or v & ~u == 0:
                        continue
                    fam = canonical_family((u, v, full))
                    for nm in BUILTIN_NAMES:
                        if not is_regular_wrt(ops[nm], fam):
                            witnesses.append({
                                "space": label, "opens": opens_labels,
                                "operation": nm,
                                "family": [top.ground.labels_of_mask(m) for m in fam],
                            })
        elif target == "transfer_strictness":
            pairs = {
                (a, b): OpPair(ops[a], ops[b])
                for a in BUILTIN_NAMES for b in BUILTIN_NAMES
            }
            classes = {
                key: tuple(compactness_kind(p, s, "pair") for s in top.subsets())
                for key, p in pairs.items()
            }
            fams = {nm: set(op_open_family(ops[nm])) for nm in BUILTIN_NAMES}
            for (a, b) in pairs:
                for (c, d) in pairs:
                    if not (fams[c] <= fams[a] and leq(ops[b], ops[d])):
                        continue
                    src, dst = classes[(a, b)], classes[(c, d)]
                    gained = [s for s in top.subsets() if dst[s] and not src[s]]
                    if gained:
                        witnesses.append({
                            "space": label, "opens": opens_labels,
                            "from_pair": f"{a},{b}", "to_pair": f"{c},{d}",
                            "subset": top.ground.labels_of_mask(gained[0]),
                        })
        elif target == "nonadditive_enlarger":
            for a in BUILTIN_NAMES:
                sel = op_open_family(ops[a])
                for b in BUILTIN_NAMES:
                    enl = ops[b].table
                    found = next(
                        ((u, v) for u in sel for v in sel
                         if enl[u | v] != enl[u] | enl[v]),
                        None,
                    )
                    if found is not None:
                        witnesses.append({
                            "space": label, "opens": opens_labels,
                            "pair": f"{a},{b}",
                            "u": top.ground.labels_of_mask(found[0]),
                            "v": top.ground.labels_of_mask(found[1]),
                        })
    return witnesses
