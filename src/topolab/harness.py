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

import operator
import platform
import random
from dataclasses import asdict, dataclass, field, fields
from functools import cached_property, lru_cache
from typing import Callable, Iterable, Iterator, Optional, Sequence

from . import __version__
from .bits import Family, canonical_family, derive_seed, family_plane, iter_points, mask_of
from .compact import (
    NAMED_CLASSES,
    CoverSystem,
    additive_hypothesis,
    brute_force_compact_images,
    compactness_kind,
    failing_plane,
    is_compact,
    space_compactness_flags,
)
from .filters import (
    base_rows,
    convergence_closures,
    generated_filter,
    is_filterbase,
    is_t2,
    maximal_filters,
    member_table,
    nbhd_plane,
    neighbourhood_images,
    point_rows,
    points_reached,
    principal_rows,
    refined_core,
    rows_meeting,
    rows_within,
    spread_rows,
)
from .jsonio import SchemaError, canonical_json
from .ops import (
    BUILTIN_NAMES,
    catalog,
    dual,
    dual_table,
    is_monotone,
    is_regular_wrt,
    leq,
    op_open_family,
    op_open_plane,
)
from .pairs import (
    OpPair,
    base_report,
    classify_structure,
    enlargement_base,
    enlarger_is_regular,
    envelopes,
    image_groups,
    named_family,
    pair_closure,
    pair_closure_by_points,
    pair_interior,
    pair_open_family,
    regular_scan,
)
from .space import EXHAUSTIVE_POINTS, Topology, enumerate_topologies, memoized, random_topology

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
    :data:`~topolab.space.EXHAUSTIVE_POINTS` (4) points and sampled above
    (16 subsets; the singletons, the whole set and seeded cores);
    filterbases are enumerated in full up to 3 points and drawn from the
    seed above.  The compactness oracle walks every ambient family whole
    up to 4 points; above, it cuts any family of more than 10 members to
    a seeded draw.
    """

    n_exhaustive: int = 3
    n_sampled: int = 6
    samples: int = 0
    seed: int = 0
    pairs: tuple[str, ...] = CATALOG_PAIRS
    suites: tuple[str, ...] = SUITE_NAMES

    def __post_init__(self) -> None:
        if not 0 <= self.n_exhaustive <= EXHAUSTIVE_POINTS:
            raise SchemaError(f"n_exhaustive must be between 0 and {EXHAUSTIVE_POINTS}")
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
        for key in ("pairs", "suites"):
            names = getattr(self, key)
            for i, name in enumerate(names):
                if name in names[:i]:
                    raise SchemaError(f"config field {key!r} repeats {name!r}")

    @classmethod
    def from_dict(cls, data: dict) -> "SuiteConfig":
        """The config a JSON object names: integer fields as integers,
        the tuple fields (pairs, suites) as lists of strings."""
        if not isinstance(data, dict):
            raise SchemaError("config must be a JSON object")
        listed = {f.name: isinstance(f.default, tuple) for f in fields(cls)}
        unknown = set(data) - set(listed)
        if unknown:
            raise SchemaError(f"unknown config fields: {sorted(unknown)}")
        kwargs = dict(data)
        for key, value in data.items():
            if listed[key]:
                if not isinstance(value, list) or not all(isinstance(x, str) for x in value):
                    raise SchemaError(f"config field {key!r} must be a list of strings")
                kwargs[key] = tuple(value)
            elif type(value) is not int:  # JSON true is an int subclass
                raise SchemaError(f"config field {key!r} must be an integer")
        return cls(**kwargs)

    def to_dict(self) -> dict:
        """The fields in declaration order, tuples as lists."""
        return {k: list(v) if isinstance(v, tuple) else v for k, v in asdict(self).items()}


@dataclass
class SuiteResult:
    instances_checked: int = 0
    failures: list = field(default_factory=list)
    notes: dict = field(default_factory=dict)

    def note(self, key: str, count: int = 1) -> None:
        self.notes[key] = self.notes.get(key, 0) + count

    def merge(self, other: "SuiteResult") -> None:
        self.instances_checked += other.instances_checked
        self.failures.extend(other.failures)
        for key, value in other.notes.items():
            self.note(key, value)


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


def _shared_runs(out: SuiteResult, items: Sequence[tuple], key: Callable,
                 body: Callable, tail: Optional[Callable] = None,
                 clean: Optional[dict] = None) -> None:
    """Run ``body(*item, run)`` once per distinct ``key(*item)``, as if it
    ran once per item.

    The key must hold everything the body reads of its item but the
    names it puts in failure records.  A clean run records nothing that
    names its item, so items of one key share it: it is merged once, its
    instances and notes multiplied by its uses.  A run with a failure is
    never shared: it is merged in item order, and each other item of
    that key runs its own body, so its records carry its own name.
    ``tail(*item, out)`` runs for every item, for checks that read the
    item's names rather than its key.  ``clean`` (key -> clean run) may
    outlive the call: runs found there are shared without running their
    bodies, and the clean runs of this call are added to it.
    """
    clean = {} if clean is None else clean
    failed = set()
    uses: dict = {}
    for item in items:
        k = key(*item)
        if k in clean:
            uses[k] = uses.get(k, 0) + 1
        else:
            run = SuiteResult()
            body(*item, run)
            if run.failures or k in failed:
                out.merge(run)
                failed.add(k)
            else:
                clean[k] = run
                uses[k] = 1
        if tail is not None:
            tail(*item, out)
    for k, count in uses.items():
        run = clean[k]
        out.instances_checked += run.instances_checked * count
        for note, value in run.notes.items():
            out.note(note, value * count)


@dataclass
class _OracleStore:
    """The compactness oracle's answers for one sweep, keyed by (ambient
    family, image row, quantified subsets): the literal walk's verdicts
    and the clean runs of the fast criterion against them, which read
    nothing else of their space.  It holds masks, verdict tuples and
    counts only, so it keeps no space alive, and :func:`run_suites`
    drops it with the sweep."""

    literal: dict = field(default_factory=dict)
    clean: dict = field(default_factory=dict)


class _SpaceContext:
    """Per-space inputs shared by all suites and the miner: the operation
    catalog, the requested pairs, the quantified subsets, filterbases and
    cores, and the catalog's readings made once per space (open families,
    their planes and closure verdicts, monotonicity, the pointwise order,
    which open families sit inside which, one AND-NOT of two planes each,
    and which enlargers agree on each open family).  The pairs,
    the quantified subsets, filterbases and cores, the lists of wider
    pairs and the agreeing partners of each pair are built on first
    read, so a miner that reads only the catalog's readings never
    builds them.

    It keeps no rows: every row built from a pair (pair tables, filter
    rows, neighbourhood images, compactness planes) lives on the pair's
    kernel (:class:`~topolab.pairs.PairKernel`) through
    :func:`~topolab.space.memoized`, and dies with the context's pairs.
    Named pairs keep one :class:`OpPair` each, since witnesses print the
    names; the per-pair suites run once per kernel and selector reading
    (:func:`_shared_runs` over ``pair_names``), and the statements over
    pairs of names compare one pair per kernel (:meth:`kernel_pairs`).
    ``oracle`` is the sweep's :class:`_OracleStore`; a context made
    alone gets its own."""

    def __init__(self, label: str, top: Topology, cfg: SuiteConfig,
                 oracle: Optional[_OracleStore] = None):
        self.label = label
        self.top = top
        self.n = top.n
        self.full = top.full
        self.seed = cfg.seed
        self.ops = catalog(top)
        self.pair_names = [(a, b) for a, _, b in (spec.partition(",") for spec in cfg.pairs)]
        self.open_sets = {name: op_open_family(op) for name, op in self.ops.items()}
        self.open_planes = {name: op_open_plane(op) for name, op in self.ops.items()}
        #: props[name]: (intersection-closed, union-closed) for the open family
        self.props = {name: top.plane_props(plane) for name, plane in self.open_planes.items()}
        self.monotone = {name: is_monotone(op) for name, op in self.ops.items()}
        #: order[(a, b)] is leq(ops[a], ops[b]), measured once per space
        self.order = {
            (a, b): leq(self.ops[a], self.ops[b]) for a in BUILTIN_NAMES for b in BUILTIN_NAMES
        }
        #: inside[(a, b)]: the a-open family sits inside the b-open family
        self.inside = {
            (a, b): self.open_planes[a] & ~self.open_planes[b] == 0
            for a in BUILTIN_NAMES for b in BUILTIN_NAMES
        }
        #: agreement[(a, b)] numbers enlarger b by its images of the a-open
        #: family, so two enlargers agree there iff their numbers are equal
        self.agreement = {}
        for a in BUILTIN_NAMES:
            images = operator.itemgetter(*self.open_sets[a])
            seen: dict = {}
            for b in BUILTIN_NAMES:
                self.agreement[(a, b)] = seen.setdefault(images(self.ops[b].table), len(seen))
        #: (a, b) -> :meth:`wider` and :meth:`wider_kernels`, filled as
        #: pairs are read
        self._wider: dict[tuple[str, str], list[tuple[str, str]]] = {}
        self._wider_kernels: dict[tuple[str, str], list[OpPair]] = {}
        self.oracle = _OracleStore() if oracle is None else oracle

    @cached_property
    def pairs(self) -> dict[tuple[str, str], OpPair]:
        """One :class:`OpPair` per requested name, in request order."""
        return {(a, b): OpPair(self.ops[a], self.ops[b]) for a, b in self.pair_names}

    @cached_property
    def subsets(self) -> list[int]:
        """Subsets to quantify over: all of them up to
        :data:`~topolab.space.EXHAUSTIVE_POINTS` points, the ends plus
        seeded draws above."""
        if self.n <= EXHAUSTIVE_POINTS:
            return list(self.top.subsets())
        rng = random.Random(derive_seed(self.seed, "subsets", self.label))
        picked = {0, self.full}
        while len(picked) < 16:
            picked.add(rng.randrange(1 << self.n))
        return sorted(picked)

    @cached_property
    def bases(self) -> Sequence[tuple[int, ...]]:
        """Filterbases to quantify over: every one up to 3 points
        (:func:`_all_bases`), seeded supersets of a random core above."""
        if self.n <= 3:
            return _all_bases(self.n)
        # bigger carriers: seeded bases built as supersets of a random core
        rng = random.Random(derive_seed(self.seed, "bases", self.label))
        out = []
        for _ in range(24 if self.n <= 9 else 8):
            core = rng.randrange(1, 1 << self.n)
            members = {core}
            for _ in range(rng.randrange(0, 3)):
                members.add(core | rng.randrange(1 << self.n))
            out.append(canonical_family(members))
        return out

    @cached_property
    def core_list(self) -> Sequence[int]:
        """Filter cores to quantify over: every nonempty mask up to
        :data:`~topolab.space.EXHAUSTIVE_POINTS` points, singletons plus
        seeded draws plus the full set above."""
        if self.n <= EXHAUSTIVE_POINTS:
            return range(1, 1 << self.n)
        rng = random.Random(derive_seed(self.seed, "cores", self.label))
        picked = {1 << x for x in range(self.n)}
        picked.add(self.full)
        while len(picked) < self.n + 17:
            picked.add(rng.randrange(1, 1 << self.n))
        return sorted(picked)

    def dominates(self, a: str, b: str) -> bool:
        """Whether enlarger b sits above the identity or above selector a
        (``order_dominates`` of :func:`~topolab.pairs.base_report`)."""
        return self.order[("identity", b)] or self.order[(a, b)]

    def wider(self, a: str, b: str) -> list[tuple[str, str]]:
        """The requested pairs (c, d) that (a, b) transfers to, in request
        order: the c-open family inside the a-open family, and b below d.
        Each list is built on its first read and kept."""
        got = self._wider.get((a, b))
        if got is None:
            got = self._wider[(a, b)] = [
                (c, d) for c, d in self.pair_names if self.inside[(c, a)] and self.order[(b, d)]
            ]
        return got

    def wider_kernels(self, a: str, b: str) -> list[OpPair]:
        """:meth:`kernel_pairs` of :meth:`wider`, built on its first read
        and kept."""
        got = self._wider_kernels.get((a, b))
        if got is None:
            got = self._wider_kernels[(a, b)] = self.kernel_pairs(self.wider(a, b))
        return got

    def kernel_pairs(self, names: Iterable[tuple[str, str]]) -> list[OpPair]:
        """One requested pair per distinct kernel among ``names``.  Every
        row a statement compares between named pairs lives on their
        kernels, so comparing these decides the comparison of every two
        names: equality is transitive."""
        return list({p.kernel: p for p in map(self.pairs.__getitem__, names)}.values())

    def class_differs(self, a: str, b: str, rows: Callable, memo: dict) -> bool:
        """Whether the pairs of the agreement class of (a, b), selector a
        with the enlargers agreeing with b on the a-open family, differ in
        ``rows``: compared on one pair per kernel, once per class, and
        kept in ``memo``."""
        cls = (a, self.agreement[(a, b)])
        got = memo.get(cls)
        if got is None:
            first, *rest = self.kernel_pairs((a, d) for d in self.partners[(a, b)])
            got = memo[cls] = any(rows(q) != rows(first) for q in rest)
        return got

    @cached_property
    def partners(self) -> dict[tuple[str, str], list[str]]:
        """partners[(a, b)]: the enlargers requested with selector a that
        agree with b on the a-open family, b among them, in request order;
        keyed by the requested pairs, in request order."""
        enlargers: dict[str, list[str]] = {}
        for a, b in self.pair_names:
            enlargers.setdefault(a, []).append(b)
        return {
            (a, b): [d for d in enlargers[a] if self.agreement[(a, d)] == self.agreement[(a, b)]]
            for a, b in self.pair_names
        }

    def regularity(self, sel_name: str, enl_name: str, out: SuiteResult) -> bool:
        """Whether the enlarger is regular against the selector-open
        family (:func:`enlarger_is_regular`, kept on the pair's kernel).
        Past :meth:`regularity_gated`, unless its fast path, a monotone
        enlarger over an intersection-closed family, applies, the answer
        is unknown: ``out`` notes ``regularity_unknown`` and the answer
        reads False, so the statements it gates are skipped, not asserted.
        """
        fast = self.monotone[enl_name] and self.props[sel_name][0]
        if self.regularity_gated(self.open_sets[sel_name]) and not fast:
            out.note("regularity_unknown")
            return False
        return enlarger_is_regular(self.pairs[(sel_name, enl_name)])

    def regularity_gated(self, fam: Family) -> bool:
        """Whether regularity over ``fam`` is skipped.  The closed form
        is linear, so the gate guards no cost: it only reproduces the
        ``regularity_scan_skipped`` and ``regularity_unknown`` notes
        pinned in ``bench/expected.json``."""
        return len(fam) ** 3 * max(self.n, 1) > 2 * 10**8


def _subfamilies(members: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """Every subfamily of ``members``, by ascending selection mask: bit i
    of the mask picks ``members[i]``."""
    for sel in range(1 << len(members)):
        yield tuple(m for i, m in enumerate(members) if sel >> i & 1)


@lru_cache(maxsize=4)
def _all_bases(n: int) -> tuple[tuple[int, ...], ...]:
    """Every filterbase of nonempty subsets of an n-point set, n at most
    3: the same for every space of n points, so enumerated once per n
    (127 subfamilies at 3 points)."""
    return tuple(filter(is_filterbase, _subfamilies(range(1, 1 << n))))


@memoized
def _family_topology(top: Topology, family: Family) -> Topology:
    """The topology on ``top``'s ground whose opens are ``family``: pairs
    often share an open family, so each is validated and tabulated once,
    in the space's memo."""
    return Topology(top.ground, family)


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


# ---------------------------------------------------------------------------
# suites


def _suite_operations(ctx: _SpaceContext, cfg: SuiteConfig) -> SuiteResult:
    out = SuiteResult()
    ops = ctx.ops
    order = ctx.order
    names = BUILTIN_NAMES

    # each catalog dual is built once and dropped with the suite, not kept
    # on its operation: a 16-point dual holds about 2.5 MB.  The double
    # dual is compared as a raw table, so an unlawful one is a failure
    # record rather than a validation error
    duals = {nm: dual(ops[nm]) for nm in names}
    for nm in names:
        out.instances_checked += 1
        if dual_table(duals[nm]) != ops[nm].table:
            _fail(out, ctx, nm, nm, "double dual returns the operation")
    for a, b in (("int", "cl"), ("cloint", "introcl"), ("scl", "sint"), ("identity", "identity")):
        out.instances_checked += 1
        if duals[a].table != ops[b].table:
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

    opens = ctx.top.family_plane(ctx.top.opens)
    for nm in names:
        plane = ctx.open_planes[nm]
        out.instances_checked += 1
        if not plane & 1 or not plane >> ctx.full & 1 or opens & ~plane:
            _fail(out, ctx, nm, nm, "open family contains the opens and the ends")
        out.instances_checked += 1
        if not ctx.monotone[nm]:
            _fail(out, ctx, nm, nm, "catalog operations are monotone")
        elif not ctx.props[nm][1]:
            _fail(out, ctx, nm, nm, "monotone operation yields a supratopology")

    # forward inclusion: dominated enlarger widens the open family
    for a in names:
        for b in names:
            out.instances_checked += 1
            if ctx.dominates(a, b) and not ctx.inside[(a, b)]:
                _fail(out, ctx, f"{a},{b}", a, "order forces open-family inclusion")

    for nm in ("cloint", "cl", "scl", "identity", "introcl"):
        if ctx.regularity_gated(ctx.top.opens):
            out.note("regularity_scan_skipped")
            continue
        out.instances_checked += 1
        if not is_regular_wrt(ops[nm], ctx.top.opens):
            _fail(out, ctx, nm, nm, "catalog operation regular over the opens")

    for a in names:
        selfam = ctx.open_sets[a]
        inter, union = ctx.props[a]
        if inter and union:
            for b in names:
                if not ctx.monotone[b]:
                    continue
                if ctx.regularity_gated(selfam):
                    out.note("regularity_scan_skipped")
                    continue
                out.instances_checked += 1
                # the kernel's scan, not enlarger_is_regular, whose fast
                # path is this statement
                if not regular_scan(ctx.pairs.get((a, b)) or OpPair(ops[a], ops[b])):
                    _fail(out, ctx, f"{a},{b}", b, "monotone enlarger regular over a selector topology")

    # identity enlarger reproduces the selector family (monotone selector),
    # on the requested pair where there is one, so its rows stay on the
    # kernel the later suites read
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
    braced = ctx.top.ground.braced

    def check(a: str, b: str, out: SuiteResult) -> None:
        p = ctx.pairs[(a, b)]
        pair = p.name
        rep = classify_structure(p)
        base = base_report(p)
        out.instances_checked += 1
        if not rep.is_supratopology:
            _fail(out, ctx, pair, "X", "pair-open family is a supratopology")

        # complement duality and monotonicity of the pair operators
        for s, by_points in zip(ctx.subsets, pair_closure_by_points(p, ctx.subsets)):
            if pair_closure(p, s) != by_points:
                _fail(out, ctx, pair, braced(s), "pointwise and complement closures agree")
                break
        monotone_broken = False
        for s in ctx.subsets:
            inner = pair_interior(p, s)
            for i in range(ctx.n):
                if s >> i & 1:
                    continue
                if inner & ~pair_interior(p, s | (1 << i)):
                    _fail(out, ctx, pair, braced(s), "pair interior is monotone")
                    monotone_broken = True
                    break
            if monotone_broken:
                break

        regular = ctx.regularity(a, b, out)
        if regular:
            out.instances_checked += 1
            if not rep.is_topology:
                _fail(out, ctx, pair, "X", "regular enlarger makes the family a topology")
        if regular and ctx.dominates(a, b):
            out.instances_checked += 1
            if not rep.closed_iff_cl_equal:
                _fail(out, ctx, pair, "X", "dominating enlarger upgrades closed sets to fixed points")
        if regular and base.family_nested:
            out.instances_checked += 1
            # closure-operator readings: the weaker one must hold, the
            # stronger one is recorded either way
            if not rep.is_topology:
                # already reported above; the readings below presuppose it
                _fail(out, ctx, pair, "X", "closure operator induces the pair topology")
            else:
                ptop = _family_topology(ctx.top, pair_open_family(p))
                chain_ok = True
                for s in ctx.subsets:
                    pc = pair_closure(p, s)
                    if s & ~pc or pc & ~ptop.closure(s):
                        chain_ok = False
                        break
                if not chain_ok:
                    _fail(out, ctx, pair, "X", "closure operator induces the pair topology")
                out.note("cl_reading_both" if rep.closed_iff_cl_equal else "cl_reading_subset_only")

                if base.base_pair_open:
                    out.instances_checked += 1
                    if not rep.is_kuratowski:
                        _fail(out, ctx, pair, "X", "pair closure is a Kuratowski operator")
                    if any(pair_closure(p, s) != ptop.closure(s) for s in ctx.subsets):
                        _fail(out, ctx, pair, "X", "pair closure equals closure in the pair topology")

        out.instances_checked += 1
        if base.hypothesis_a and not base.base_in_pair_and_selector:
            _fail(out, ctx, pair, "base", "stable images land in both open families")
        if (base.hypothesis_b or base.hypothesis_c or base.hypothesis_d) and not base.is_base:
            _fail(out, ctx, pair, "base", "enlargement base generates the pair-open family")

    _shared_runs(out, ctx.pair_names, lambda a, b: (ctx.pairs[(a, b)].kernel, ctx.dominates(a, b)), check)
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

    # enlargers agreeing on the selector-open family induce the same
    # family; names are compared one by one only in a class whose kernels
    # differ
    split: dict = {}
    for (a, b), agreeing in ctx.partners.items():
        out.instances_checked += len(agreeing)
        if ctx.class_differs(a, b, pair_open_family, split):
            for c in agreeing:
                if pair_open_family(ctx.pairs[(a, b)]) != pair_open_family(ctx.pairs[(a, c)]):
                    _fail(out, ctx, f"{a},{b}", f"{a},{c}", "agreeing enlargers induce one family")
    return out


def _first_points(rows: Sequence[int]):
    """(i, x) for each position i flagged in some ``rows[x]``, ascending,
    with x the lowest such point."""
    flagged = 0
    for row in rows:
        flagged |= row
    for i in iter_points(flagged):
        yield i, next(x for x, row in enumerate(rows) if row >> i & 1)


def _suite_filters(ctx: _SpaceContext, cfg: SuiteConfig) -> SuiteResult:
    out = SuiteResult()
    braced = ctx.top.ground.braced
    n, full = ctx.n, ctx.full
    exhaustive = n <= EXHAUSTIVE_POINTS
    # the bases by the core of the filter each generates, bit j for base j
    by_core: dict[int, int] = {}
    for j, base in enumerate(ctx.bases):
        core = generated_filter(n, base).core
        by_core[core] = by_core.get(core, 0) | 1 << j
    has = member_table(ctx.bases, n)
    # per-point rows flag the quantified cores by their position i in the
    # core list; inside[t] flags the cores inside t
    cores = ctx.core_list
    everyone = (1 << len(cores)) - 1
    inside = member_table([(c,) for c in cores], n)
    singletons = mask_of(i for i, c in enumerate(cores) if c.bit_count() == 1)
    values: dict = {}

    def core_values(q: OpPair) -> tuple[list[int], list[int]]:
        """The limit and adherence sets of the quantified cores, by
        position: one read of each kernel's rows per suite."""
        got = values.get(q.kernel)
        if got is None:
            lim, adh = principal_rows(q)
            got = values[q.kernel] = [lim[c] for c in cores], [adh[c] for c in cores]
        return got

    def subject(i: int) -> str:
        return braced(cores[i])

    def check(a: str, b: str, out: SuiteResult) -> None:
        p = ctx.pairs[(a, b)]
        pair = p.name
        sel_open = ctx.open_sets[a]
        regular = ctx.regularity(a, b, out)
        nested = ctx.inside[(a, b)]
        inter_closed = ctx.props[a][0]
        monotone_enl = ctx.monotone[b]
        lim, adh = principal_rows(p)
        lims, adhs = core_values(p)
        lim_at, adh_at = point_rows(lims, n), point_rows(adhs, n)
        env = envelopes(p)

        # base predicates match the generated filter's, compared on rows by
        # point: the bases' from the groups and the member table, the
        # generated filters' from the envelopes and the pair interior; the
        # witness is the lowest point where either set differs
        out.instances_checked += len(ctx.bases)
        base_lim_at, base_adh_at = base_rows(p, ctx.bases, has)
        core_lim_at = spread_rows(((lim[c], js) for c, js in by_core.items()), n)
        core_adh_at = spread_rows(((adh[c], js) for c, js in by_core.items()), n)
        bad = [(base_lim_at[x] ^ core_lim_at[x]) | (base_adh_at[x] ^ core_adh_at[x]) for x in range(n)]
        for j, x in _first_points(bad):
            _fail(out, ctx, pair, str(list(ctx.bases[j])), "base and generated filter agree", str(x))

        # superset-closed neighbourhood variant changes nothing (monotone
        # enlarger); each up-set is one pass over all subsets, and the
        # variant is gated on bigger carriers.  The cores are tested
        # literally against the distinct enlargements of the up-set around
        # each point, kept on the kernel: one core-table row per member
        if monotone_enl and (1 << n) * max(len(sel_open), 1) <= 10**7:
            images = neighbourhood_images(p)
            out.instances_checked += len(cores)
            within = rows_within(inside, images, everyone)
            meeting = rows_meeting(inside, images, everyone, full)
            bad = [(lim_at[x] ^ within[x]) | (adh_at[x] ^ meeting[x]) for x in range(n)]
            for i, x in _first_points(bad):
                _fail(out, ctx, pair, subject(i), "neighbourhood variant agrees", str(x))
        elif monotone_enl:
            out.note("neighbourhood_variant_skipped")

        # membership characterization of convergence, against the
        # distinct enlargements of the selector-open sets around each point
        groups = image_groups(p)
        images_at = [[t for t, union in groups if union >> x & 1] for x in range(n)]
        within = rows_within(inside, images_at, everyone)
        out.instances_checked += len(cores)
        unadherent = 0
        for x in range(n):
            unadherent |= lim_at[x] & ~adh_at[x]
        uncontained = [lim_at[x] ^ within[x] for x in range(n)]
        first = dict(_first_points(uncontained))
        for i in iter_points(unadherent | mask_of(first)):
            if unadherent >> i & 1:
                _fail(out, ctx, pair, subject(i), "limits are adherent")
            if i in first:
                _fail(out, ctx, pair, subject(i), "convergence is enlarged-members containment", str(first[i]))

        # refinement monotonicity; single-point core drops suffice, any
        # refinement is a chain of them and the two set maps compose
        for c1, lim1, adh1 in zip(cores, lims, adhs):
            if c1.bit_count() == 1:
                continue
            out.instances_checked += 1
            broken = False
            for i in range(n):
                c2 = c1 ^ (1 << i)  # finer
                if not c1 >> i & 1 or c2 == 0:
                    continue
                if adh[c2] & ~adh1 or lim1 & ~lim[c2]:
                    _fail(out, ctx, pair, braced(c1), "refinement moves limits up, adherence down", braced(c2))
                    broken = True
                    break
            if broken:
                break

        # accumulation equals existence of a finer convergent filter, and
        # the refinement construction is exercised on every accumulating
        # core and point.  Exact: convergence survives refinement, so some
        # finer filter converges iff some singleton core inside does, i.e.
        # iff the core meets the envelope; the literal submask scan, read
        # off the limit rows, is kept on small carriers to check exactly that
        out.instances_checked += len(cores)
        finer_at = [everyone & ~inside[full ^ e] for e in env]
        statements = []
        if exhaustive:
            # up to 4 points inside[core] flags every nonempty submask
            literal_at = point_rows([points_reached(inside[c], lim_at) for c in cores], n)
            statements.append(("singleton cores decide finer convergence",
                               [literal_at[x] ^ finer_at[x] for x in range(n)]))
        statements.append(("convergent refinements accumulate",
                           [finer_at[x] & ~adh_at[x] for x in range(n)]))
        if regular:
            statements.append(("regular: accumulation iff finer convergence",
                               [adh_at[x] ^ finer_at[x] for x in range(n)]))
            unrefined = [0] * n
            for x in range(n):
                for i in iter_points(adh_at[x]):
                    try:
                        meet = refined_core(p, cores[i], x)
                    except RuntimeError:
                        meet = 0
                    if not meet or meet & ~cores[i] or meet & ~env[x]:
                        unrefined[x] |= 1 << i
            statements.append(("refinement construction converges", unrefined))
        flagged = 0
        for _, rows in statements:
            for row in rows:
                flagged |= row
        for i in iter_points(flagged):
            for x in range(n):
                for statement, rows in statements:
                    if rows[x] >> i & 1:
                        _fail(out, ctx, pair, subject(i), statement, str(x))

        # maximal filters: accumulation already is convergence
        for F in maximal_filters(ctx.top):
            out.instances_checked += 1
            if adh[F.core] & ~lim[F.core]:
                _fail(out, ctx, pair, braced(F.core), "maximal accumulation is convergence")

        # separation kills multiple limits
        if is_t2(p):
            out.instances_checked += len(cores)
            for i, (lim_c, adh_c) in enumerate(zip(lims, adhs)):
                if lim_c and (adh_c != lim_c or lim_c.bit_count() > 1):
                    _fail(out, ctx, pair, subject(i), "separated pairs give unique limits")

        # neighbourhood filterbases converge by construction
        if inter_closed and nested:
            for x in range(n):
                out.instances_checked += 1
                try:
                    nbhd_plane(p, x, "plain")
                except RuntimeError:
                    _fail(out, ctx, pair, str(x), "plain neighbourhood base converges")
        if regular and nested:
            for x in range(n):
                out.instances_checked += 1
                try:
                    nbhd_plane(p, x, "enlarged")
                except RuntimeError:
                    _fail(out, ctx, pair, str(x), "enlarged neighbourhood base converges")

        # filters versus the pair closure; cores inside s are scanned in
        # full on small carriers (every core inside[s] flags), while above
        # that the scan shrinks to the singletons and s itself, which is
        # exact: convergence survives refinement (singletons decide it)
        # and accumulation survives coarsening (the core s decides it).
        # Above 4 points s need not be a quantified core, so its rows are
        # read directly
        for s in ctx.subsets:
            pc = pair_closure(p, s)
            out.instances_checked += 1
            # points where some filter containing s accumulates / converges
            within = inside[s] if exhaustive else inside[s] & singletons
            acc_exists = points_reached(within, adh_at)
            conv_exists = points_reached(within, lim_at)
            if s and not exhaustive:
                acc_exists |= adh[s]
                conv_exists |= lim[s]
            unclosed = acc_exists & ~pc
            unreached = pc ^ conv_exists if regular else 0
            for x in iter_points(unclosed | unreached):
                if unclosed >> x & 1:
                    _fail(out, ctx, pair, braced(s), "accumulating filters land in the closure", str(x))
                if unreached >> x & 1:
                    _fail(out, ctx, pair, braced(s), "regular: closure points are filter limits", str(x))
            if regular:
                closed = pc & ~s == 0
                absorbed = conv_exists & ~s == 0
                if closed != absorbed:
                    _fail(out, ctx, pair, braced(s), "regular: closed iff limits stay inside")

        # the convergence closure operator, by both routes in one pass
        singleton, every = convergence_closures(p, ctx.subsets)
        ccl = dict(zip(ctx.subsets, singleton))
        out.instances_checked += 1
        if singleton != every:
            _fail(out, ctx, pair, "cl*", "singleton scan equals the exhaustive scan")
        if regular:
            out.instances_checked += 1
            if any(ccl[s] != pair_closure(p, s) for s in ctx.subsets):
                _fail(out, ctx, pair, "cl*", "regular: convergence closure is the pair closure")
            if exhaustive:
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
        # wider pair's rows: one comparison per wider kernel, one count per
        # name, and one record per name of a kernel that breaks it
        wider = ctx.wider(a, b)
        out.instances_checked += len(wider)
        first_break: dict = {}
        for wide in ctx.wider_kernels(a, b):
            wide_lims, wide_adhs = core_values(wide)
            for i in range(len(cores)):
                if lims[i] & ~wide_lims[i] or adhs[i] & ~wide_adhs[i]:
                    first_break[wide.kernel] = i
                    break
        if first_break:
            for (c, d) in wider:
                i = first_break.get(ctx.pairs[(c, d)].kernel)
                if i is not None:
                    _fail(out, ctx, pair, f"{c},{d}", "transfer to a wider pair", subject(i))

    _shared_runs(out, ctx.pair_names, lambda a, b: ctx.pairs[(a, b)].kernel, check)
    return out


def _suite_compactness_oracle(ctx: _SpaceContext, cfg: SuiteConfig) -> SuiteResult:
    out = SuiteResult()
    braced = ctx.top.ground.braced
    if ctx.n <= 2:
        # every family holding the whole set, the largest mask
        ambients = [fam + (ctx.full,) for fam in _subfamilies(range(ctx.full))]
    else:
        derived = set(ctx.open_sets.values())
        for p in ctx.pairs.values():
            derived.add(pair_open_family(p))
            derived.add(canonical_family(enlargement_base(p) + (ctx.full,)))
        ambients = sorted(derived)

    store = ctx.oracle
    subsets = tuple(ctx.subsets)

    def check(fam: Family, enl_name: str, row: tuple[int, ...], out: SuiteResult) -> None:
        # the enlarger is read on the family's members only, where its
        # images are ``row``, and the store holds the family's walk
        cs = CoverSystem(fam, ctx.ops[enl_name])
        for s, literal_compact in zip(subsets, store.literal[fam, row, subsets]):
            out.instances_checked += 1
            verdict = is_compact(cs, s)
            if verdict.compact != literal_compact:
                _fail(out, ctx, enl_name, braced(s),
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
                    _fail(out, ctx, enl_name, braced(s),
                          "failing verdicts carry valid witnesses", str(list(cover)))

    # every family is walked whole up to 4 points (16 members at most);
    # above that big ones are cut to a seeded draw, so far without a note
    sweep_cap = 10
    rng = random.Random(derive_seed(cfg.seed, "oracle", ctx.label))
    for fam in ambients:
        if ctx.n > EXHAUSTIVE_POINTS and len(fam) > sweep_cap:
            trimmed = rng.sample([m for m in fam if m != ctx.full], sweep_cap - 1)
            fam = canonical_family(trimmed + [ctx.full])
        # one literal walk answers each distinct image tuple of the
        # enlargers on the family that the sweep has not met yet, and one
        # clean run per sweep checks each
        items = [(fam, nm, tuple(map(ctx.ops[nm].table.__getitem__, fam))) for nm in BUILTIN_NAMES]
        walk = [row for row in dict.fromkeys(row for _, _, row in items)
                if (fam, row, subsets) not in store.literal]
        if walk:
            for row, verdicts in zip(walk, brute_force_compact_images(fam, walk, subsets)):
                store.literal[fam, row, subsets] = verdicts
        _shared_runs(out, items, lambda fam, nm, row: (fam, row, subsets), check, clean=store.clean)
    return out


def _suite_compactness(ctx: _SpaceContext, cfg: SuiteConfig) -> SuiteResult:
    out = SuiteResult()
    braced = ctx.top.ground.braced
    quantified = family_plane(ctx.subsets, ctx.n)

    def first(plane: int) -> str:
        """The lowest quantified subset flagged in ``plane``."""
        return braced((plane & -plane).bit_length() - 1)

    def verdicts(p: OpPair, s: int, kinds: tuple[str, ...]) -> str:
        return str({k: not failing_plane(p, k) >> s & 1 for k in kinds})

    def check(a: str, b: str, out: SuiteResult) -> None:
        p = ctx.pairs[(a, b)]
        pair = p.name
        out.instances_checked += len(ctx.subsets)
        # the quantified subsets each check flags, one plane per check
        cover = failing_plane(p)
        faces = quantified & ((cover ^ failing_plane(p, "ultra")) | (cover ^ failing_plane(p, "closed")))
        kinds = additive = 0
        if base_report(p).hypothesis_d:
            kinds = quantified & (cover | failing_plane(p, "base") | failing_plane(p, "pair_open"))
        if additive_hypothesis(p):
            additive = quantified & (cover ^ failing_plane(p, "restricted"))
        for s in ctx.subsets:
            if faces >> s & 1:
                _fail(out, ctx, pair, braced(s), "filter statements agree",
                      verdicts(p, s, ("pair", "ultra", "closed")))
            if kinds >> s & 1:
                _fail(out, ctx, pair, braced(s), "cover kinds agree under the base hypothesis",
                      verdicts(p, s, ("pair", "base", "pair_open")))
            if additive >> s & 1:
                _fail(out, ctx, pair, braced(s),
                      "additive enlarger matches restricted accumulation")
        sflags = space_compactness_flags(p)
        out.instances_checked += 1
        if sflags.hypothesis and not sflags.agree():
            _fail(out, ctx, pair, "X", "space-level statements agree", str(sflags.statements()))

        # compactness transfers to wider pairs: sets compact here and
        # failing there, compared once per wider kernel and named per name
        wider = ctx.wider(a, b)
        out.instances_checked += len(wider)
        if any(failing_plane(q) & ~cover & quantified for q in ctx.wider_kernels(a, b)):
            for (c, d) in wider:
                strict = failing_plane(ctx.pairs[(c, d)]) & ~cover & quantified
                if strict:
                    _fail(out, ctx, pair, f"{c},{d}", "compact sets transfer to wider pairs", first(strict))

    split: dict = {}

    def planes(q: OpPair) -> tuple[int, int]:
        return quantified & failing_plane(q), quantified & failing_plane(q, "pair_open")

    def agreeing(a: str, b: str, out: SuiteResult) -> None:
        # enlargers agreeing on the selector-open family give one verdict;
        # the partners share the selector's name, so this runs per name,
        # and compares names one by one only in a class whose kernels
        # differ
        partners = ctx.partners[(a, b)]
        out.instances_checked += len(partners) - 1
        if not ctx.class_differs(a, b, planes, split):
            return
        p = ctx.pairs[(a, b)]
        cover, pair_open = planes(p)
        for d in partners:
            if d != b:
                other_cover, other_pair_open = planes(ctx.pairs[(a, d)])
                diff = (cover ^ other_cover) | (pair_open ^ other_pair_open)
                if diff:
                    _fail(out, ctx, p.name, f"{a},{d}", "agreeing enlargers give one verdict", first(diff))

    # the body reads the selector's table twice: through hypothesis_d of
    # the base report and through the additive hypothesis
    _shared_runs(
        out, ctx.pair_names,
        lambda a, b: (ctx.pairs[(a, b)].kernel, ctx.dominates(a, b), ctx.monotone[a]),
        check, agreeing,
    )

    # named class implications, on pairs that die with this suite
    named = [OpPair(ctx.ops[sel], ctx.ops[enl]) for sel, enl in map(NAMED_CLASSES.get, "NHsS")]
    for s in ctx.subsets:
        out.instances_checked += 1
        n_cls, h_cls, s_cls, big_s = (compactness_kind(p, s) for p in named)
        if (n_cls and not h_cls) or (s_cls and not big_s) or (big_s and not h_cls):
            _fail(out, ctx, "", braced(s), "named class implications hold")
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
    after another, merging results in space order.  The compactness
    oracle's answers (:class:`_OracleStore`) are kept for this call."""
    if spaces is None:
        spaces = sweep_spaces(cfg)
    suites = {name: SuiteResult() for name in cfg.suites}
    oracle = _OracleStore()
    for label, top in spaces:
        ctx = _SpaceContext(label, top, cfg, oracle)
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

    Scans the spaces a sweep of every space up to ``n_max`` points
    enumerates (:func:`sweep_spaces`, at most
    :data:`~topolab.space.EXHAUSTIVE_POINTS`) and reads each through the
    sweep's context: its catalog, open families, order, wider pairs and
    the compactness planes kept on the pair kernels.

    Deterministic: spaces, operations and families are scanned in
    canonical order, and the full witness list is returned.
    """
    if target not in MINE_TARGETS:
        raise SchemaError(f"unknown mine target {target!r}; choose from {MINE_TARGETS}")
    cfg = SuiteConfig(n_exhaustive=max(0, min(n_max, EXHAUSTIVE_POINTS)))
    witnesses: list[dict] = []
    for label, top in sweep_spaces(cfg):
        ctx = _SpaceContext(label, top, cfg)
        opens_labels = [top.ground.labels_of_mask(m) for m in top.opens]
        if target == "inclusion_without_order":
            for a in BUILTIN_NAMES:
                for b in BUILTIN_NAMES:
                    if a != b and ctx.inside[(a, b)] and not ctx.dominates(a, b):
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
                        if not is_regular_wrt(ctx.ops[nm], fam):
                            witnesses.append({
                                "space": label, "opens": opens_labels,
                                "operation": nm,
                                "family": [top.ground.labels_of_mask(m) for m in fam],
                            })
        elif target == "transfer_strictness":
            for a, b in ctx.pair_names:
                failing = failing_plane(ctx.pairs[(a, b)])
                for c, d in ctx.wider(a, b):
                    # sets compact in the wider pair and not in this one
                    gained = failing & ~failing_plane(ctx.pairs[(c, d)])
                    if gained:
                        witnesses.append({
                            "space": label, "opens": opens_labels,
                            "from_pair": f"{a},{b}", "to_pair": f"{c},{d}",
                            "subset": top.ground.labels_of_mask((gained & -gained).bit_length() - 1),
                        })
        elif target == "nonadditive_enlarger":
            for a in BUILTIN_NAMES:
                sel = ctx.open_sets[a]
                for b in BUILTIN_NAMES:
                    enl = ctx.ops[b].table
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
