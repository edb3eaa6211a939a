"""Property sweep driver and counterexample miner.

Six suites check every property the library promises, over every
enumerated space up to a configurable size plus seeded random spaces
above it.  Each statement is declared once (:data:`STATEMENTS`), and one
runner (:func:`_run`) checks the declarations, sharing each clean run
among the items that read the same inputs.  A failure never aborts the
sweep: the full report is always produced, with one record per violated
statement, because harvested counterexamples are the point of the
exercise.

Reports are deterministic: given the same configuration (seed included)
the emitted JSON is byte-identical from run to run.
"""

from __future__ import annotations

import operator
import platform
import random
from dataclasses import asdict, dataclass, field, fields
from functools import cached_property, partial, reduce
from operator import attrgetter
from itertools import product
from typing import Callable, Iterator, NamedTuple, Optional, Sequence, Union

from . import __version__
from .bits import canonical_family, derive_seed, down_plane, family_plane, iter_points, mask_of
from .compact import (
    NAMED_CLASSES,
    CoverSystem,
    _additive_scan,
    brute_force_compact_images,
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
    _kernel_report,
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
    pair_open_plane,
    regular_scan,
)
from .space import EXHAUSTIVE_POINTS, Topology, enumerate_topologies, random_topology

CATALOG_PAIRS = tuple(f"{a},{b}" for a in BUILTIN_NAMES for b in BUILTIN_NAMES)

SUITE_NAMES = (
    "operations",
    "structure",
    "families",
    "filters",
    "compactness_oracle",
    "compactness",
)

#: catalog operations (a, b) with b the dual of a, and the links (a, b)
#: of the catalog's order chains, a below b
_DUALS = (("int", "cl"), ("cloint", "introcl"), ("scl", "sint"), ("identity", "identity"))
_CHAIN = (("int", "cloint"), ("cloint", "cl"), ("int", "identity"), ("identity", "scl"), ("scl", "cl"),
          ("int", "introcl"), ("introcl", "scl"))

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
    ``samples`` further spaces of size ``n_sampled``, which must then be
    bigger, are generated from the seed.  Subsets, filter cores and
    filterbases (:class:`_Universe`) are quantified exhaustively up to
    :data:`~topolab.space.EXHAUSTIVE_POINTS` (4) points and drawn from
    the seed and the space's label above: 16 subsets; the singletons, the
    whole set and seeded cores; 24 seeded filterbases (8 above 9 points).
    The compactness oracle walks every ambient family whole up to 4
    points; above, it cuts any family of more than 10 members to a seeded
    draw.
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
        if self.samples and self.n_sampled <= self.n_exhaustive:
            raise SchemaError("samples need n_sampled above n_exhaustive")
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


class _SpaceContext:
    """Per-space inputs shared by all suites and the miner: the catalog,
    the requested pairs, and the catalog's readings made once per space
    (open families and their planes and closure verdicts, monotonicity,
    order, which open families sit inside which, which enlargers agree on
    each).  The pairs are built on first read.  Every row built from a
    pair lives on its kernel (:class:`~topolab.pairs.PairKernel`) and dies
    with the context's pairs.  ``universe`` is what the statements
    quantify over: the sweep's :class:`_Universe` of n points if given,
    else the space's own."""

    def __init__(self, label: str, top: Topology, cfg: SuiteConfig,
                 universe: Optional[_Universe] = None):
        self.label = label
        self.top = top
        self.n = top.n
        self.full = top.full
        self.universe = universe or _Universe(top.n, cfg.seed, label)
        self.ops = catalog(top)
        self.pair_names = [(a, b) for a, _, b in (spec.partition(",") for spec in cfg.pairs)]
        #: enlargers[a]: the enlargers requested with selector a, in request order
        self.enlargers = {a: [d for c, d in self.pair_names if c == a] for a in BUILTIN_NAMES}
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

    @cached_property
    def pairs(self) -> dict[tuple[str, str], OpPair]:
        """One :class:`OpPair` per requested name, in request order."""
        return {(a, b): OpPair(self.ops[a], self.ops[b]) for a, b in self.pair_names}

    def dominates(self, a: str, b: str) -> bool:
        """Whether enlarger b sits above the identity or above selector a,
        as ``order_dominates`` of :func:`~topolab.pairs.base_report` says."""
        return self.order[("identity", b)] or self.order[(a, b)]

    def wider(self, a: str, b: str) -> list[tuple[str, str]]:
        """The requested pairs (c, d) that (a, b) transfers to, in request
        order: the c-open family inside the a-open family, and b below d."""
        narrower = {c for c in BUILTIN_NAMES if self.inside[(c, a)]}
        above = {d for d in BUILTIN_NAMES if self.order[(b, d)]}
        return [(c, d) for c, d in self.pair_names if c in narrower and d in above]

    def agreeing(self, a: str, b: str) -> list[tuple[str, str]]:
        """The requested pairs (a, d) whose enlarger agrees with b on the
        a-open family, (a, b) among them, in request order."""
        mark = self.agreement[(a, b)]
        return [(a, d) for d in self.enlargers[a] if self.agreement[(a, d)] == mark]


class _Universe:
    """What the statements quantify over on n points, each built on first
    read: the subsets, the filter cores and the filterbases, with their
    tables.  ``runs`` keeps the clean runs of the statements over them,
    by statement and run key, and the literal oracle's verdicts under
    ``"literal"``.  Up to :data:`~topolab.space.EXHAUSTIVE_POINTS` points
    every universe is complete, a function of n alone, and
    :func:`run_suites` keeps one per n for its whole sweep; above, the
    seed and a space's label draw it, for that space alone.  So two
    spaces share a run exactly when they read one universe.  Every
    universe keys its pair runs by the kernel's contents at every size
    (the ``kernel`` reading, :attr:`~topolab.pairs.PairKernel.key`), so
    it holds ints, tuples, counts and verdicts only."""

    def __init__(self, n: int, seed: int, label: Optional[str]):
        self.n, self.full, self.seed, self.label = n, (1 << n) - 1, seed, label
        self.runs: dict = {}

    def _rng(self, what: str) -> random.Random:
        return random.Random(derive_seed(self.seed, what, self.label))

    @cached_property
    def subsets(self) -> tuple[int, ...]:
        """Subsets to quantify over: all of them up to
        :data:`~topolab.space.EXHAUSTIVE_POINTS` points, the ends plus
        seeded draws above."""
        if self.n <= EXHAUSTIVE_POINTS:
            return tuple(range(1 << self.n))
        rng = self._rng("subsets")
        picked = {0, self.full}
        while len(picked) < 16:
            picked.add(rng.randrange(1 << self.n))
        return tuple(sorted(picked))

    @cached_property
    def quantified(self) -> int:
        """:attr:`subsets` as a 2**n-bit plane."""
        return family_plane(self.subsets, self.n)

    @cached_property
    def bases(self) -> Sequence[tuple[int, ...]]:
        """Filterbases to quantify over: every one up to
        :data:`~topolab.space.EXHAUSTIVE_POINTS` points, by selection mask
        (569 at 4 points), seeded supersets of a random core above."""
        if self.n <= EXHAUSTIVE_POINTS:
            return tuple(filter(is_filterbase, _subfamilies(range(1, 1 << self.n))))
        rng = self._rng("bases")
        out = []
        for _ in range(24 if self.n <= 9 else 8):
            core = rng.randrange(1, 1 << self.n)
            members = {core}
            for _ in range(rng.randrange(0, 3)):
                members.add(core | rng.randrange(1 << self.n))
            out.append(canonical_family(members))
        return out

    @cached_property
    def base_table(self) -> list[int]:
        """:func:`~topolab.filters.member_table` of :attr:`bases`."""
        return member_table(self.bases, self.n)

    @cached_property
    def base_cores(self) -> dict[int, int]:
        """The bases by the core of the filter each generates, bit j for j."""
        by_core: dict[int, int] = {}
        for j, base in enumerate(self.bases):
            core = generated_filter(self.n, base).core
            by_core[core] = by_core.get(core, 0) | 1 << j
        return by_core

    @cached_property
    def core_list(self) -> Sequence[int]:
        """Filter cores to quantify over: every nonempty mask up to
        :data:`~topolab.space.EXHAUSTIVE_POINTS` points, singletons plus
        seeded draws plus the full set above."""
        if self.n <= EXHAUSTIVE_POINTS:
            return range(1, 1 << self.n)
        rng = self._rng("cores")
        picked = {1 << x for x in range(self.n)}
        picked.add(self.full)
        while len(picked) < self.n + 17:
            picked.add(rng.randrange(1, 1 << self.n))
        return sorted(picked)

    @cached_property
    def core_table(self) -> list[int]:
        """``core_table[t]`` flags the cores inside t by position."""
        return member_table([(c,) for c in self.core_list], self.n)


class _PairRun:
    """A requested pair (a, b) as a suite's pair statements read it: its
    names, its pair and the rows several statements share, each made
    once per run, and by any other attribute the reading of that name
    (:data:`_READINGS`), made on first read."""

    def __init__(self, ctx: _SpaceContext, a: str, b: str):
        self.ctx, self.a, self.b, self.p = ctx, a, b, ctx.pairs[(a, b)]

    def __getattr__(self, name: str):
        if name not in _READINGS:
            raise AttributeError(name)
        value = self.__dict__[name] = _READINGS[name].of(self.ctx, self)
        return value

    structure = cached_property(lambda self: classify_structure(self.p))
    base = cached_property(lambda self: _kernel_report(self.p))
    closures = cached_property(lambda self: convergence_closures(self.p, self.ctx.universe.subsets))

    @cached_property
    def refined(self) -> tuple[int, Optional[tuple[int, int]]]:
        """(cores scanned, the first (core, finer core) where refinement
        moves a limit down or adherence up, else None).  Single-point
        drops suffice: any refinement is a chain of them."""
        lim, adh = principal_rows(self.p)
        lims, adhs = self.core_rows
        scanned = 0
        for c1, lim1, adh1 in zip(self.ctx.universe.core_list, lims, adhs):
            if c1.bit_count() == 1:
                continue
            scanned += 1
            for i in range(self.ctx.n):
                c2 = c1 ^ (1 << i)  # finer
                if c1 >> i & 1 and (adh[c2] & ~adh1 or lim1 & ~lim[c2]):
                    return scanned, (c1, c2)
        return scanned, None

    @cached_property
    def core_rows(self) -> tuple[list[int], list[int]]:
        """The quantified cores' limit and adherence sets, by position."""
        lim, adh = principal_rows(self.p)
        cores = self.ctx.universe.core_list
        return [lim[c] for c in cores], [adh[c] for c in cores]

    at_points = cached_property(lambda self: tuple(point_rows(row, self.ctx.n) for row in self.core_rows))


# ---------------------------------------------------------------------------
# the runner

#: what a statement reads: the space; a requested pair; a requested pair
#: and other requested pairs; or an ambient family and an image row on it
SPACE, PAIR, PAIRS, AMBIENT = "space", "pair", "pairs", "ambient"


class _Reading(NamedTuple):
    of: Callable  # of(ctx, *args), on a statement's args
    fixed: bool = True  # whether a pair's kernel, on its universe, fixes it


#: every reading a declaration names, each once; those of a pair take
#: its :class:`_PairRun`, which also reads them by name
_READINGS = {
    # run keys.  The kernel is what it is made of (its key); the
    # agreement class holds the pairs (a, d)
    "kernel": _Reading(lambda ctx, run: run.p.kernel.key),
    "dominates": _Reading(lambda ctx, run: ctx.dominates(run.a, run.b), False),
    "monotone": _Reading(lambda ctx, run: ctx.monotone[run.a], False),
    "agreement": _Reading(lambda ctx, run: (run.a, ctx.agreement[(run.a, run.b)]), False),
    "ambient": _Reading(lambda ctx, nm, fam, row: (fam, row), False),
    # hypotheses.  regular is None past its gate, but for a monotone
    # enlarger on a meet_closed (intersection-closed) selector-open family,
    # which nested puts inside the enlarger-open family
    "regular": _Reading(lambda ctx, run: enlarger_is_regular(run.p) if ctx.monotone[run.b] and ctx.props[run.a][0]
                        or not _READINGS["regularity_scan_skipped"].of(ctx, run.a) else None),
    "nested": _Reading(lambda ctx, run: ctx.inside[(run.a, run.b)]),
    "meet_closed": _Reading(lambda ctx, run: ctx.props[run.a][0]),
    "monotone_enlarger": _Reading(lambda ctx, run: ctx.monotone[run.b]),
    "topology": _Reading(lambda ctx, run: run.structure.is_topology),
    "base_pair_open": _Reading(lambda ctx, run: run.base.base_pair_open),
    "t2": _Reading(lambda ctx, run: is_t2(run.p)),
    # sizes
    "n": _Reading(lambda ctx, *args: ctx.n),
    "subsets": _Reading(lambda ctx, *args: len(ctx.universe.subsets)),
    "cores": _Reading(lambda ctx, *args: len(ctx.universe.core_list)),
    "bases": _Reading(lambda ctx, *args: len(ctx.universe.bases)),
    "refinement": _Reading(lambda ctx, run: run.refined[0]),
    # gates: regularity over the a-open family, whose closed form is
    # linear, so it only keeps the notes bench/expected.json pins; the
    # neighbourhood variant, one pass over all subsets per up-set
    "regularity_scan_skipped": _Reading(
        lambda ctx, a, *names: ctx.open_planes[a].bit_count() ** 3 * max(ctx.n, 1) > 2 * 10**8),
    "regularity_unknown": _Reading(lambda ctx, run: run.regular is None),
    "neighbourhood_variant_skipped": _Reading(
        lambda ctx, run: (1 << ctx.n) * max(ctx.open_planes[run.a].bit_count(), 1) > 10**7),
}


@dataclass(frozen=True, eq=False)
class Statement:
    """One statement of a suite, declared once.  ``check(ctx, *args)``
    yields its failures, each as an index into ``texts`` and the record
    fields its item does not name, and the names of the readings it
    notes.  The other fields name readings (:data:`_READINGS`), listed in
    ``names`` and resolved once, here.  It counts ``size`` and is checked
    where no ``hyp`` reading of the pair fails or is undecided (None) and
    the ``gate`` reading does not hold; where that holds and no hypothesis
    fails, the gate is noted instead.  ``given`` names what the check
    tests for some texts alone, ``key`` a PAIRS statement's key if not
    the kernel.  By ``reads``:

    SPACE    args are an item of ``over(ctx)`` (else none); the check
             names pair, subject and witness.
    PAIR     args are the pair's :class:`_PairRun`; records name the pair.
    PAIRS    args are the :class:`_PairRun` of a requested pair and of
             each other pair ``over(ctx, a, b)`` lists, one instance each;
             records name both, and the check returns its witnesses.
    AMBIENT  args are the items (enlarger name, family, image row) of
             ``over(ctx)``; records name the enlarger.
    """

    suite: str
    texts: tuple[str, ...]
    reads: str
    check: Callable
    hyp: tuple[str, ...] = ()
    size: Union[int, str] = 1
    gate: str = ""
    given: tuple[str, ...] = ()
    key: tuple[str, ...] = ()
    over: Optional[Callable] = None

    def __post_init__(self) -> None:
        names = (*self.hyp, *self.given, *(r for r in (self.size, self.gate) if type(r) is str and r), *self.key)
        of = {name: _READINGS[name].of for name in names}
        # a pair's hypotheses are read off its run, which makes each once
        hyp = tuple(lambda ctx, run, get=attrgetter(name): get(run) for name in self.hyp)
        for attr, value in (("names", names), ("_hyp", hyp),
                            ("_size", of.get(self.size)), ("_gate", of.get(self.gate))):
            object.__setattr__(self, attr, value)


def _stage_key(statements: Sequence[Statement]) -> tuple[str, ...]:
    """The readings a run of one stage of a suite is keyed by: a suite's
    PAIR statements by the kernel and every reading they name that it
    does not fix, a PAIRS statement by its key or the kernel."""
    first = statements[0]
    if first.reads == AMBIENT:
        return ("ambient",)
    if first.reads == PAIRS:
        return first.key or ("kernel",)
    return ("kernel", *dict.fromkeys(r for st in statements for r in st.names if not _READINGS[r].fixed))


def _fail(out: SuiteResult, ctx: _SpaceContext, statement: str, pair: str, subject: str,
          witness: str = "") -> None:
    out.failures.append({
        "space": ctx.label,
        "opens": [ctx.top.ground.labels_of_mask(m) for m in ctx.top.opens],
        "pair": pair,
        "subject": subject,
        "statement": statement,
        "witness": witness,
    })


def _apply(out: SuiteResult, ctx: _SpaceContext, st: Statement, args: tuple, names: tuple) -> None:
    """Count, gate and check ``st`` on one item into ``out``."""
    held = [holds(ctx, *args) for holds in st._hyp] if st._hyp else ()
    if False in held:
        return
    if st._gate and st._gate(ctx, *args):
        out.note(st.gate)
    elif None not in held:
        out.instances_checked += st._size(ctx, *args) if st._size else st.size
        for got in st.check(ctx, *args):
            if type(got) is str:
                out.note(got)
            else:
                _fail(out, ctx, st.texts[got[0]], *names, *got[1:])


def _run_keys(ctx: _SpaceContext, key: tuple[str, ...], items: Sequence[tuple]) -> list:
    """The readings ``key`` of each of ``items``: everything a run keyed
    so reads of its item, but the names its records carry."""
    columns = [[of(ctx, *item) for item in items] for of in (_READINGS[r].of for r in key)]
    return columns[0] if len(columns) == 1 else list(zip(*columns))


def _keyed(out: SuiteResult, ctx: _SpaceContext, items: Sequence[tuple],
           stages: Sequence[tuple[Callable, dict, tuple[str, ...]]]) -> None:
    """Each stage ``(body, clean, key)`` runs ``body(run, *item)`` over
    ``items`` once per distinct run key (:func:`_run_keys`), as if once
    per item; an item's stages run in turn.  A clean run records nothing
    that names its item, so the items of one key share it, its instances
    and notes multiplied by its uses.  A run with a failure is never
    shared: each other item of its key runs on its own, so its records
    carry its own names, and so do the item's later stages, since its
    rows may depend on more than its key.  ``clean`` (key -> clean run)
    may outlive the call."""
    stages = [(body, clean, _run_keys(ctx, key, items), set(), {}) for body, clean, key in stages]
    for i, item in enumerate(items):
        alone = False
        for body, clean, keys, failed, uses in stages:
            key = None if alone else keys[i]
            if key in clean:
                uses[key] = uses.get(key, 0) + 1
                continue
            run = SuiteResult()
            body(run, *item)
            if alone or run.failures or key in failed:
                out.merge(run)
                failed.add(key)
                alone = True
            else:
                clean[key] = run
                uses[key] = 1
    for _, clean, _, _, uses in stages:
        for key, count in uses.items():
            run = clean[key]
            out.instances_checked += run.instances_checked * count
            for note, value in run.notes.items():
                out.note(note, value * count)


def _compared(ctx: _SpaceContext, st: Statement, out: SuiteResult, run: _PairRun, views: dict) -> None:
    """A PAIRS statement between ``run``'s pair (a, b) and each other
    pair ``over`` lists: against the first of each kernel key and, if
    one fails, against every one, so each record names its own."""
    a, b = run.a, run.b
    others = st.over(ctx, a, b)
    firsts = {ctx.pairs[q].kernel.key: q for q in reversed(others)}.values()
    out.instances_checked += len(others)
    if any(st.check(ctx, run, views[q]) for q in firsts):
        for c, d in others:
            for got in st.check(ctx, run, views[c, d]):
                _fail(out, ctx, st.texts[got[0]], f"{a},{b}", f"{c},{d}", *got[1:])


def _run(statements: Sequence[Statement], ctx: _SpaceContext, cfg: SuiteConfig) -> SuiteResult:
    """One suite's declarations over one space, in order.  The pair
    statements run in one pass over the requested pairs: per pair, one
    run of its PAIR statements, then one per PAIRS statement, which reads
    the whole catalog through ``over`` and so is kept within the space.
    The PAIR and AMBIENT runs are kept on the universe for every space
    that reads it, so a PAIR statement reads the context only through n,
    ``full``, the universe, the pair and the readings its key fixes; of
    ``top``, n and the labels, which only a failing run, never shared,
    writes."""
    out = SuiteResult()
    paired = [st for st in statements if st.reads in (PAIR, PAIRS)]
    pair = [st for st in paired if st.reads == PAIR]
    if paired[:len(pair)] != pair:
        # a pair's PAIRS runs follow its PAIR run, which keeps the record
        # order of the declarations only if they are declared so
        raise ValueError(f"suite {paired[0].suite!r} declares a PAIRS statement before a PAIR one")

    def pair_run(run: SuiteResult, pr: _PairRun) -> None:
        args, names = (pr,), (f"{pr.a},{pr.b}",)
        for st in pair:
            _apply(run, ctx, st, args, names)

    for st in statements:
        if st.reads == SPACE:
            for item in st.over(ctx) if st.over else [()]:
                _apply(out, ctx, st, item, ())
        elif st.reads == AMBIENT:
            def body(run: SuiteResult, *item, st=st) -> None:
                _apply(run, ctx, st, item, item[:1])

            _keyed(out, ctx, list(st.over(ctx)), [(body, ctx.universe.runs.setdefault(st, {}), _stage_key([st]))])
        elif st is paired[0]:
            views = {name: _PairRun(ctx, *name) for name in ctx.pair_names}
            stages = [(pair_run, ctx.universe.runs.setdefault(st, {}), _stage_key(pair))] if pair else []
            stages += [(lambda run, pr, st=other: _compared(ctx, st, run, pr, views), {}, _stage_key([other]))
                       for other in paired[len(pair):]]
            _keyed(out, ctx, [(pr,) for pr in views.values()], stages)
    return out


def _subfamilies(members: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """Every subfamily of ``members``, by ascending selection mask: bit i
    of the mask picks ``members[i]``."""
    for sel in range(1 << len(members)):
        yield tuple(m for i, m in enumerate(members) if sel >> i & 1)


def _plane_closure(plane: int, s: int, n: int) -> int:
    """The closure of ``s`` in the topology on n points whose opens the
    2**n-bit ``plane`` flags: the whole set minus the interior of the
    complement, its largest open subset.  That is the highest flagged
    set below it, as it holds every other open set below it."""
    full = (1 << n) - 1
    return full ^ (plane & down_plane((full ^ s,), n)).bit_length() - 1


def _first_points(rows: Sequence[int]):
    """(i, x) for each position i flagged in some ``rows[x]``, ascending,
    with x the lowest such point."""
    for i in iter_points(reduce(operator.or_, rows, 0)):
        yield i, next(x for x, row in enumerate(rows) if row >> i & 1)


def _one(bad: bool, *fields) -> Sequence[tuple]:
    """The record of a statement's first text with ``fields``, if bad."""
    return [(0, *fields)] if bad else ()


def _lowest(ctx: _SpaceContext, plane: int) -> Sequence[tuple]:
    """The record of a statement's first text naming the lowest subset
    in ``plane``, if any."""
    return [(0, ctx.top.ground.braced((plane & -plane).bit_length() - 1))] if plane else ()


# ---------------------------------------------------------------------------
# the checks longer than one expression; STATEMENTS holds the others


def _partial_order(ctx):
    order, ops = ctx.order, ctx.ops
    for a in BUILTIN_NAMES:
        if not order[(a, a)]:
            yield 0, a, a
        for b in BUILTIN_NAMES:
            if order[(a, b)] and order[(b, a)] and ops[a].table != ops[b].table:
                yield 1, f"{a},{b}", a
            for c in BUILTIN_NAMES:
                if order[(a, b)] and order[(b, c)] and not order[(a, c)]:
                    yield 2, f"{a},{c}", b


def _open_families(ctx):
    opens = ctx.top.family_plane(ctx.top.opens)
    for nm in BUILTIN_NAMES:
        plane = ctx.open_planes[nm]
        if not plane & 1 or not plane >> ctx.full & 1 or opens & ~plane:
            yield 0, nm, nm
        if not ctx.monotone[nm]:
            yield 1, nm, nm
        elif not ctx.props[nm][1]:
            yield 2, nm, nm


def _pair_axioms(ctx, run):
    p, braced = run.p, ctx.top.ground.braced
    if not run.structure.is_supratopology:
        yield 0, "X"
    # complement duality and monotonicity of the pair operators
    subsets = ctx.universe.subsets
    for s, by_points in zip(subsets, pair_closure_by_points(p, subsets)):
        if pair_closure(p, s) != by_points:
            yield 1, braced(s)
            break
    for s in subsets:
        inner = pair_interior(p, s)
        for i in range(ctx.n):
            if not s >> i & 1 and inner & ~pair_interior(p, s | 1 << i):
                yield 2, braced(s)
                return


def _closure_induces_topology(ctx, run):
    # the weaker closure-operator reading must hold, the stronger one is
    # noted either way
    if not run.structure.is_topology:
        # reported by the statement above; the readings presuppose it
        yield 0, "X"
        return
    p = run.p
    plane = pair_open_plane(p)
    for s in ctx.universe.subsets:
        pc = pair_closure(p, s)
        if s & ~pc or pc & ~_plane_closure(plane, s, ctx.n):
            yield 0, "X"
            break
    yield "cl_reading_both" if run.structure.closed_iff_cl_equal else "cl_reading_subset_only"


def _kuratowski(ctx, run):
    if not run.structure.is_kuratowski:
        yield 0, "X"
    p, plane = run.p, pair_open_plane(run.p)
    if any(pair_closure(p, s) != _plane_closure(plane, s, ctx.n) for s in ctx.universe.subsets):
        yield 1, "X"


def _enlargement_base(ctx, run):
    # hypothesis a: stable images; b, c, d: a pair-open base with nested
    # families or a dominating enlarger, or stable images and dominance
    base = run.base
    if base.image_stable and not base.base_in_pair_and_selector:
        yield 0, "base"
    if (base.base_pair_open and (run.nested or run.dominates) or run.dominates and base.image_stable) \
            and not base.is_base:
        yield 1, "base"


def _bases_agree(ctx, run):
    # base predicates match the generated filter's, compared on rows by
    # point: the bases' from the groups and the member table, the
    # generated filters' from the envelopes and the pair interior; the
    # witness is the lowest point where either set differs
    p, n, u = run.p, ctx.n, ctx.universe
    lim, adh = principal_rows(p)
    base_lim_at, base_adh_at = base_rows(p, u.bases, u.base_table)
    core_lim_at = spread_rows(((lim[c], js) for c, js in u.base_cores.items()), n)
    core_adh_at = spread_rows(((adh[c], js) for c, js in u.base_cores.items()), n)
    bad = [(base_lim_at[x] ^ core_lim_at[x]) | (base_adh_at[x] ^ core_adh_at[x]) for x in range(n)]
    for j, x in _first_points(bad):
        yield 0, str(list(u.bases[j])), str(x)


def _variant_agrees(ctx, run):
    # the superset-closed neighbourhood variant changes nothing (monotone
    # enlarger): the cores are tested literally against the distinct
    # enlargements of the up-set around each point, kept on the kernel
    lim_at, adh_at = run.at_points
    images = neighbourhood_images(run.p)
    cores, inside = ctx.universe.core_list, ctx.universe.core_table
    everyone = (1 << len(cores)) - 1
    within = rows_within(inside, images, everyone)
    meeting = rows_meeting(inside, images, everyone, ctx.full)
    bad = [(lim_at[x] ^ within[x]) | (adh_at[x] ^ meeting[x]) for x in range(ctx.n)]
    for i, x in _first_points(bad):
        yield 0, ctx.top.ground.braced(cores[i]), str(x)


def _limits_contained(ctx, run):
    # membership characterization of convergence, against the distinct
    # enlargements of the selector-open sets around each point
    n, cores = ctx.n, ctx.universe.core_list
    lim_at, adh_at = run.at_points
    groups = tuple(image_groups(run.p))  # read n times: unpacked once
    images_at = [[t for t, union in groups if union >> x & 1] for x in range(n)]
    within = rows_within(ctx.universe.core_table, images_at, (1 << len(cores)) - 1)
    unadherent = 0
    for x in range(n):
        unadherent |= lim_at[x] & ~adh_at[x]
    first = dict(_first_points([lim_at[x] ^ within[x] for x in range(n)]))
    for i in iter_points(unadherent | mask_of(first)):
        if unadherent >> i & 1:
            yield 0, ctx.top.ground.braced(cores[i])
        if i in first:
            yield 1, ctx.top.ground.braced(cores[i]), str(first[i])


def _accumulation(ctx, run):
    # accumulation equals existence of a finer convergent filter, and the
    # refinement construction is exercised on every accumulating core and
    # point.  Exact: convergence survives refinement, so some finer filter
    # converges iff some singleton core inside does, i.e. iff the core
    # meets the envelope; the literal submask scan, read off the limit
    # rows, is kept on small carriers to check exactly that
    n, full, cores, inside = ctx.n, ctx.full, ctx.universe.core_list, ctx.universe.core_table
    lim_at, adh_at = run.at_points
    env = envelopes(run.p)
    everyone = (1 << len(cores)) - 1
    finer_at = [everyone & ~inside[full ^ e] for e in env]
    rows = []
    if n <= EXHAUSTIVE_POINTS:
        # up to 4 points inside[core] flags every nonempty submask
        literal_at = point_rows([points_reached(inside[c], lim_at) for c in cores], n)
        rows.append((0, [literal_at[x] ^ finer_at[x] for x in range(n)]))
    rows.append((1, [finer_at[x] & ~adh_at[x] for x in range(n)]))
    if run.regular:
        rows.append((2, [adh_at[x] ^ finer_at[x] for x in range(n)]))
        unrefined = [0] * n
        for x in range(n):
            for i in iter_points(adh_at[x]):
                try:
                    meet = refined_core(run.p, cores[i], x)
                except RuntimeError:
                    meet = 0
                if not meet or meet & ~cores[i] or meet & ~env[x]:
                    unrefined[x] |= 1 << i
        rows.append((3, unrefined))
    for i in iter_points(reduce(operator.or_, (row for _, by_point in rows for row in by_point), 0)):
        for x in range(n):
            for text, by_point in rows:
                if by_point[x] >> i & 1:
                    yield text, ctx.top.ground.braced(cores[i]), str(x)


def _maximal_filters(ctx, run):
    # one maximal filter per point: accumulation already is convergence
    lim, adh = principal_rows(run.p)
    for F in maximal_filters(ctx.top):
        if adh[F.core] & ~lim[F.core]:
            yield 0, ctx.top.ground.braced(F.core)


def _neighbourhood_bases(ctx, run, variant):
    # neighbourhood filterbases converge by construction
    for x in range(ctx.n):
        try:
            nbhd_plane(run.p, x, variant)
        except RuntimeError:
            yield 0, str(x)


def _filters_and_closure(ctx, run):
    # cores inside s are scanned in full on small carriers (every core
    # inside[s] flags), while above that the scan shrinks to the
    # singletons and s itself, which is exact: convergence survives
    # refinement (singletons decide it) and accumulation survives
    # coarsening (the core s decides it).  Above 4 points s need not be a
    # quantified core, so its rows are read directly
    p, braced, regular, u = run.p, ctx.top.ground.braced, run.regular, ctx.universe
    exhaustive = ctx.n <= EXHAUSTIVE_POINTS
    lim, adh = principal_rows(p)
    lim_at, adh_at = run.at_points
    singletons = mask_of(i for i, c in enumerate(u.core_list) if c.bit_count() == 1)
    for s in u.subsets:
        pc = pair_closure(p, s)
        # points where some filter containing s accumulates / converges
        within = u.core_table[s] if exhaustive else u.core_table[s] & singletons
        acc_exists = points_reached(within, adh_at)
        conv_exists = points_reached(within, lim_at)
        if s and not exhaustive:
            acc_exists |= adh[s]
            conv_exists |= lim[s]
        unclosed = acc_exists & ~pc
        unreached = pc ^ conv_exists if regular else 0
        for x in iter_points(unclosed | unreached):
            if unclosed >> x & 1:
                yield 0, braced(s), str(x)
            if unreached >> x & 1:
                yield 1, braced(s), str(x)
        if regular and (pc & ~s == 0) != (conv_exists & ~s == 0):
            yield 2, braced(s)


def _convergence_closure(ctx, run):
    p, full, subsets = run.p, ctx.full, ctx.universe.subsets
    ccl = dict(zip(subsets, run.closures[0]))
    if any(ccl[s] != pair_closure(p, s) for s in subsets):
        yield 0, "cl*"
    if ctx.n <= EXHAUSTIVE_POINTS:
        # every subset is quantified here, so ccl holds every complement
        fam = pair_open_family(p)
        if tuple(u for u in subsets if ccl[full ^ u] & ~(full ^ u) == 0) != fam:
            yield 1, "cl*"
        if run.nested and tuple(
                u for u in subsets if ccl[full ^ u] == full ^ u) != fam:
            yield 2, "cl*"


def _ambients(ctx):
    """(enlarger name, ambient family, the enlarger's images of its
    members: all the oracle and the fast criterion read of it) for each
    oracle family and catalog enlarger.  Families are walked whole up to
    4 points; above, big ones are cut to a seeded draw, without a note."""
    full = ctx.full
    if ctx.n <= 2:
        # every family holding the whole set, the largest mask
        ambients = [fam + (full,) for fam in _subfamilies(range(full))]
    else:
        derived = set(ctx.open_sets.values())
        for p in ctx.pairs.values():
            derived.add(pair_open_family(p))
            derived.add(canonical_family(enlargement_base(p) + (full,)))
        ambients = sorted(derived)
    sweep_cap = 10
    rng = random.Random(derive_seed(ctx.universe.seed, "oracle", ctx.label))
    for fam in ambients:
        if ctx.n > EXHAUSTIVE_POINTS and len(fam) > sweep_cap:
            trimmed = rng.sample([m for m in fam if m != full], sweep_cap - 1)
            fam = canonical_family(trimmed + [full])
        for nm in BUILTIN_NAMES:
            yield nm, fam, tuple(map(ctx.ops[nm].table.__getitem__, fam))


def _oracle_agrees(ctx, nm, fam, row):
    subsets, braced = ctx.universe.subsets, ctx.top.ground.braced
    literal = ctx.universe.runs.setdefault("literal", {})
    if (fam, row) not in literal:
        # one literal walk answers every image row of the catalog on the
        # family that the universe has not met yet
        rows = dict.fromkeys(tuple(map(ctx.ops[e].table.__getitem__, fam)) for e in BUILTIN_NAMES)
        walk = [r for r in rows if (fam, r) not in literal]
        for r, verdicts in zip(walk, brute_force_compact_images(fam, walk, subsets)):
            literal[fam, r] = verdicts
    cs = CoverSystem(fam, ctx.ops[nm])
    enl = ctx.ops[nm].table
    for s, literal_compact in zip(subsets, literal[fam, row]):
        verdict = is_compact(cs, s)
        if verdict.compact != literal_compact:
            yield 0, braced(s), str(list(fam))
        if not verdict.compact:
            cover, point = verdict.witness_cover, verdict.witness_point
            union = reduce(operator.or_, cover, 0)
            if s & ~union or not s >> point & 1 or any(enl[u] >> point & 1 for u in cover):
                yield 1, braced(s), str(list(cover))


def _kinds_agree(ctx, run):
    # the quantified subsets each check flags, one plane per check
    p, braced, quantified = run.p, ctx.top.ground.braced, ctx.universe.quantified
    cover = failing_plane(p)
    faces = quantified & ((cover ^ failing_plane(p, "ultra")) | (cover ^ failing_plane(p, "closed")))
    kinds = additive = 0
    if run.dominates and run.base.image_stable:
        kinds = quantified & (cover | failing_plane(p, "base") | failing_plane(p, "pair_open"))
    if run.monotone and _additive_scan(p):
        additive = quantified & (cover ^ failing_plane(p, "restricted"))

    def verdicts(s: int, kinds: tuple[str, ...]) -> str:
        return str({k: not failing_plane(p, k) >> s & 1 for k in kinds})

    for s in ctx.universe.subsets:
        if faces >> s & 1:
            yield 0, braced(s), verdicts(s, ("pair", "ultra", "closed"))
        if kinds >> s & 1:
            yield 1, braced(s), verdicts(s, ("pair", "base", "pair_open"))
        if additive >> s & 1:
            yield 2, braced(s)


def _duals(ctx):
    # the catalog's duals, built and validated here so they die with this
    # statement (a 16-point dual holds about 2.5 MB); the double dual is
    # compared as a raw table, so an unlawful one is a failure record
    # rather than a validation error
    duals = {nm: dual(op) for nm, op in ctx.ops.items()}
    for nm in BUILTIN_NAMES:
        if dual_table(duals[nm]) != ctx.ops[nm].table:
            yield 0, nm, nm
    for a, b in _DUALS:
        if duals[a].table != ctx.ops[b].table:
            yield 1, f"{a},{b}", a


def _named_classes(ctx):
    # N => H, s => S and S => H on the classes' failing planes, read on
    # the requested pairs where there are some
    n, h, s, big_s = (failing_plane(ctx.pairs.get(q) or OpPair(*map(ctx.ops.get, q)))
                      for q in map(NAMED_CLASSES.get, "NHsS"))
    for a in iter_points(ctx.universe.quantified & (h & ~n | big_s & ~s | h & ~big_s)):
        yield 0, "", ctx.top.ground.braced(a)


# ---------------------------------------------------------------------------
# the declarations

#: every statement the sweep checks, by suite, in record order.  Library
#: functions are read through module globals at call time.
STATEMENTS = (
    Statement("operations", ("double dual returns the operation", "catalog dual identity"), SPACE,
              _duals, size=len(BUILTIN_NAMES) + len(_DUALS)),
    Statement("operations", ("catalog order chain",), SPACE,
              lambda ctx: [(0, f"{a},{b}", a) for a, b in _CHAIN if not ctx.order[(a, b)]], size=len(_CHAIN)),
    Statement("operations", ("order is reflexive", "order is antisymmetric", "order is transitive"),
              SPACE, _partial_order, size=len(BUILTIN_NAMES)),
    Statement("operations", ("open family contains the opens and the ends",
                             "catalog operations are monotone",
                             "monotone operation yields a supratopology"),
              SPACE, _open_families, size=2 * len(BUILTIN_NAMES)),
    Statement("operations", ("order forces open-family inclusion",), SPACE,
              lambda ctx: [(0, f"{a},{b}", a) for a, b in product(BUILTIN_NAMES, BUILTIN_NAMES)
                           if ctx.dominates(a, b) and not ctx.inside[(a, b)]], size=len(BUILTIN_NAMES) ** 2),
    # over the int-open family, the opens, whose size the gate reads
    Statement("operations", ("catalog operation regular over the opens",), SPACE,
              lambda ctx, a, nm: _one(not is_regular_wrt(ctx.ops[nm], ctx.top.opens), nm, nm),
              gate="regularity_scan_skipped",
              over=lambda ctx: [("int", nm) for nm in ("cloint", "cl", "scl", "identity", "introcl")]),
    # the kernel's scan, not enlarger_is_regular, whose fast path is this
    # statement
    Statement("operations", ("monotone enlarger regular over a selector topology",), SPACE,
              lambda ctx, a, b: _one(not regular_scan(ctx.pairs.get((a, b)) or OpPair(ctx.ops[a], ctx.ops[b])),
                                     f"{a},{b}", b),
              gate="regularity_scan_skipped", over=lambda ctx: [(a, b) for a in BUILTIN_NAMES if all(ctx.props[a])
                                                                for b in BUILTIN_NAMES if ctx.monotone[b]]),
    # on the requested pair where there is one, so its rows stay on the
    # kernel the later suites read
    Statement("operations", ("identity enlarger keeps the selector family",), SPACE,
              lambda ctx, a: _one(pair_open_plane(ctx.pairs.get((a, "identity")) or OpPair(
                  ctx.ops[a], ctx.ops["identity"])) != ctx.open_planes[a], f"{a},identity", a),
              over=lambda ctx: [(a,) for a in BUILTIN_NAMES if ctx.monotone[a]]),
    Statement("operations", ("semi-closure idempotent on semi-open sets",), SPACE,
              lambda ctx: _one(any(ctx.ops["scl"].table[v] != v for v in map(
                  ctx.ops["scl"].table.__getitem__, named_family(ctx.top, "SO"))), "scl", "SO")),

    Statement("structure", ("pair-open family is a supratopology",
                            "pointwise and complement closures agree", "pair interior is monotone"),
              PAIR, _pair_axioms),
    # one statement of each suite that reads regularity notes where the
    # gate hides it, so regularity_unknown counts each pair once per suite
    Statement("structure", ("regular enlarger makes the family a topology",), PAIR,
              lambda ctx, run: _one(not run.structure.is_topology, "X"), hyp=("regular",),
              gate="regularity_unknown"),
    Statement("structure", ("dominating enlarger upgrades closed sets to fixed points",), PAIR,
              lambda ctx, run: _one(not run.structure.closed_iff_cl_equal, "X"), hyp=("regular", "dominates")),
    Statement("structure", ("closure operator induces the pair topology",), PAIR, _closure_induces_topology,
              hyp=("regular", "nested")),
    Statement("structure", ("pair closure is a Kuratowski operator",
                            "pair closure equals closure in the pair topology"), PAIR, _kuratowski,
              hyp=("regular", "nested", "topology", "base_pair_open")),
    Statement("structure", ("stable images land in both open families",
                            "enlargement base generates the pair-open family"), PAIR, _enlargement_base,
              given=("nested", "dominates")),

    Statement("families", ("pair family equals the named family",), SPACE,
              lambda ctx, a, b, fam: _one(ctx.top.family_plane(named_family(ctx.top, fam))
                                          != pair_open_plane(ctx.pairs[(a, b)]), f"{a},{b}", fam),
              over=lambda ctx: [t for t in FAMILY_IDENTITIES if t[:2] in ctx.pairs]),
    Statement("families", ("interior-open sets are the opens",), SPACE,
              lambda ctx: _one(ctx.open_planes["int"] != ctx.top.family_plane(ctx.top.opens), "int", "tau")),
    Statement("families", ("operation-open family equals the named family",), SPACE,
              lambda ctx: [(0, nm, fam) for nm, fam in (("cloint", "SO"), ("introcl", "PO"))
                           if ctx.open_planes[nm] != ctx.top.family_plane(named_family(ctx.top, fam))], size=2),
    Statement("families", ("operation-open family is the whole power set",), SPACE,
              lambda ctx: [(0, nm, "P(X)") for nm in ("cl", "identity", "scl")
                           if ctx.open_planes[nm] != (1 << (1 << ctx.n)) - 1], size=3),
    Statement("families", ("closed family complements the open one",), SPACE,
              lambda ctx: [(0, "", closed) for opened, closed in (
                  ("SO", "SC"), ("PO", "PC"), ("SthetaO", "SthetaC"), ("thetaSO", "thetaSC"))
                           if named_family(ctx.top, closed)
                           != canonical_family(ctx.full ^ m for m in named_family(ctx.top, opened))], size=4),
    Statement("families", ("enlargement base equals the named family",), SPACE,
              lambda ctx, a, b, fam: _one(enlargement_base(ctx.pairs[(a, b)]) != named_family(ctx.top, fam),
                                          f"{a},{b}", fam),
              over=lambda ctx: [t for t in (("int", "introcl", "RO"), ("cloint", "cl", "RC"))
                                if t[:2] in ctx.pairs]),
    Statement("families", ("identity enlarger bases the selector family",), SPACE,
              lambda ctx, a: _one(enlargement_base(ctx.pairs[(a, "identity")]) != ctx.open_sets[a],
                                  f"{a},identity", a),
              over=lambda ctx: [(a,) for a in BUILTIN_NAMES if (a, "identity") in ctx.pairs]),
    Statement("families", ("agreeing enlargers induce one family",), PAIRS,
              lambda ctx, run, other: _one(pair_open_plane(run.p) != pair_open_plane(other.p)),
              key=("agreement",), over=lambda ctx, a, b: ctx.agreeing(a, b)),

    Statement("filters", ("base and generated filter agree",), PAIR, _bases_agree, size="bases"),
    Statement("filters", ("neighbourhood variant agrees",), PAIR, _variant_agrees, hyp=("monotone_enlarger",),
              size="cores", gate="neighbourhood_variant_skipped"),
    Statement("filters", ("limits are adherent", "convergence is enlarged-members containment"), PAIR,
              _limits_contained, size="cores"),
    Statement("filters", ("refinement moves limits up, adherence down",), PAIR,
              lambda ctx, run: [(0, *map(ctx.top.ground.braced, run.refined[1]))]
              if run.refined[1] else (), size="refinement"),
    Statement("filters", ("singleton cores decide finer convergence", "convergent refinements accumulate",
                          "regular: accumulation iff finer convergence",
                          "refinement construction converges"),
              PAIR, _accumulation, size="cores", given=("regular",)),
    Statement("filters", ("maximal accumulation is convergence",), PAIR, _maximal_filters, size="n"),
    Statement("filters", ("separated pairs give unique limits",), PAIR,
              lambda ctx, run: [(0, ctx.top.ground.braced(c)) for c, lim, adh
                                in zip(ctx.universe.core_list, *run.core_rows)
                                if lim and (adh != lim or lim.bit_count() > 1)], hyp=("t2",), size="cores"),
    Statement("filters", ("plain neighbourhood base converges",), PAIR,
              lambda ctx, run: _neighbourhood_bases(ctx, run, "plain"), hyp=("meet_closed", "nested"), size="n"),
    Statement("filters", ("enlarged neighbourhood base converges",), PAIR,
              lambda ctx, run: _neighbourhood_bases(ctx, run, "enlarged"), hyp=("regular", "nested"), size="n"),
    Statement("filters", ("accumulating filters land in the closure",
                          "regular: closure points are filter limits",
                          "regular: closed iff limits stay inside"),
              PAIR, _filters_and_closure, size="subsets", given=("regular",)),
    # the convergence closure operator, by both routes in one pass
    Statement("filters", ("singleton scan equals the exhaustive scan",), PAIR,
              lambda ctx, run: _one(run.closures[0] != run.closures[1], "cl*")),
    Statement("filters", ("regular: convergence closure is the pair closure",
                          "shrinking-complement family matches the pair family",
                          "fixed-complement family matches the pair family"),
              PAIR, _convergence_closure, hyp=("regular",), gate="regularity_unknown", given=("nested",)),
    # convergence and accumulation move up to the wider pair
    Statement("filters", ("transfer to a wider pair",), PAIRS,
              lambda ctx, run, wide: next(([(0, ctx.top.ground.braced(c))] for c, lim, adh, wide_lim, wide_adh
                                           in zip(ctx.universe.core_list, *run.core_rows, *wide.core_rows)
                                           if lim & ~wide_lim or adh & ~wide_adh), ()),
              over=lambda ctx, a, b: ctx.wider(a, b)),

    Statement("compactness_oracle", ("fast criterion agrees with the literal oracle",
                                     "failing verdicts carry valid witnesses"),
              AMBIENT, _oracle_agrees, size="subsets", over=_ambients),

    # the base hypothesis of both is stable images and dominance; the
    # additive one reads the selector's monotonicity
    Statement("compactness", ("filter statements agree", "cover kinds agree under the base hypothesis",
                              "additive enlarger matches restricted accumulation"),
              PAIR, _kinds_agree, size="subsets", given=("dominates", "monotone")),
    Statement("compactness", ("space-level statements agree",), PAIR,
              lambda ctx, run: [(0, "X", str(f.statements())) for f in [space_compactness_flags(run.p)]
                                if run.dominates and run.base.image_stable and not f.agree()],
              given=("dominates",)),
    # sets compact for the pair and failing for the wider pair
    Statement("compactness", ("compact sets transfer to wider pairs",), PAIRS,
              lambda ctx, run, wide: _lowest(ctx, ctx.universe.quantified & failing_plane(wide.p)
                                             & ~failing_plane(run.p)),
              over=lambda ctx, a, b: ctx.wider(a, b)),
    Statement("compactness", ("agreeing enlargers give one verdict",), PAIRS,
              lambda ctx, run, other: _lowest(ctx, ctx.universe.quantified & (
                  (failing_plane(run.p) ^ failing_plane(other.p))
                  | (failing_plane(run.p, "pair_open") ^ failing_plane(other.p, "pair_open")))),
              key=("agreement",), over=lambda ctx, a, b: [q for q in ctx.agreeing(a, b) if q != (a, b)]),
    Statement("compactness", ("named class implications hold",), SPACE, _named_classes, size="subsets"),
)

_SUITES: dict[str, Callable[[_SpaceContext, SuiteConfig], SuiteResult]] = {
    name: partial(_run, [st for st in STATEMENTS if st.suite == name]) for name in SUITE_NAMES
}


def sweep_spaces(cfg: SuiteConfig) -> list[tuple[str, Topology]]:
    """The space universe a configuration asks for, in canonical order."""
    spaces = []
    for n in range(1, cfg.n_exhaustive + 1):
        for idx, top in enumerate(enumerate_topologies(n)):
            spaces.append((f"n={n}#{idx}", top))
    for i in range(cfg.samples):
        seed = derive_seed(cfg.seed, "space", i)
        top = random_topology(cfg.n_sampled, seed, cfg.n_sampled)
        spaces.append((f"n={cfg.n_sampled}~{i}", top))
    return spaces


def run_suites(cfg: SuiteConfig, spaces: Optional[Sequence[tuple[str, Topology]]] = None) -> Report:
    """Run the configured suites over the configured spaces, one space
    after another, merging results in space order.  The spaces of n
    points, n up to :data:`~topolab.space.EXHAUSTIVE_POINTS`, read one
    :class:`_Universe` for this call, and so share its tables and runs."""
    if spaces is None:
        spaces = sweep_spaces(cfg)
    suites = {name: SuiteResult() for name in cfg.suites}
    universes = {n: _Universe(n, cfg.seed, None) for n in range(EXHAUSTIVE_POINTS + 1)}
    for label, top in spaces:
        ctx = _SpaceContext(label, top, cfg, universes.get(top.n))
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


def _inclusion_without_order(ctx):
    """Open-family inclusion between two catalog operations with neither
    order hypothesis."""
    for a, b in product(BUILTIN_NAMES, BUILTIN_NAMES):
        if a != b and ctx.inside[(a, b)] and not ctx.dominates(a, b):
            yield {"first": a, "second": b}


def _nonregular_pair(ctx):
    """An operation failing regularity against a three-member family
    {U, V, X} of incomparable intersecting U, V."""
    full, labels = ctx.full, ctx.top.ground.labels_of_mask
    proper = range(1, full)
    for i, u in enumerate(proper):
        for v in proper[i + 1:]:
            if u & v and u & ~v and v & ~u:
                fam = canonical_family((u, v, full))
                for nm in BUILTIN_NAMES:
                    if not is_regular_wrt(ctx.ops[nm], fam):
                        yield {"operation": nm, "family": [labels(m) for m in fam]}


def _transfer_strictness(ctx):
    """Compact classes strictly growing along a valid transfer of pairs."""
    for a, b in ctx.pair_names:
        failing = failing_plane(ctx.pairs[(a, b)])
        for c, d in ctx.wider(a, b):
            # sets compact in the wider pair and not in this one
            gained = failing & ~failing_plane(ctx.pairs[(c, d)])
            if gained:
                yield {"from_pair": f"{a},{b}", "to_pair": f"{c},{d}",
                       "subset": ctx.top.ground.labels_of_mask((gained & -gained).bit_length() - 1)}


def _nonadditive_enlarger(ctx):
    """An enlarger that is not union-additive on its selector-open family,
    with the first such (u, v)."""
    labels = ctx.top.ground.labels_of_mask
    for a, b in product(BUILTIN_NAMES, BUILTIN_NAMES):
        sel, enl = ctx.open_sets[a], ctx.ops[b].table
        for u, v in ((u, v) for u in sel for v in sel if enl[u | v] != enl[u] | enl[v]):
            yield {"pair": f"{a},{b}", "u": labels(u), "v": labels(v)}
            break


#: the witnesses of each phenomenon on one space's context, by target
_MINERS = {
    "inclusion_without_order": _inclusion_without_order,
    "nonregular_pair": _nonregular_pair,
    "transfer_strictness": _transfer_strictness,
    "nonadditive_enlarger": _nonadditive_enlarger,
}
MINE_TARGETS = tuple(_MINERS)


def mine_counterexamples(target: str, n_max: int = 2) -> list[dict]:
    """Search the enumerated spaces for witnesses of a named phenomenon,
    one of :data:`MINE_TARGETS`, as its miner describes it.  Scans the
    spaces a sweep of every space up to ``n_max`` points enumerates
    (:func:`sweep_spaces`, at most
    :data:`~topolab.space.EXHAUSTIVE_POINTS`) and reads each through the
    sweep's context: its catalog, open families, order, wider pairs and
    the compactness planes kept on the pair kernels.  Deterministic:
    spaces, operations and families are scanned in canonical order, and
    the full witness list is returned."""
    if target not in MINE_TARGETS:
        raise SchemaError(f"unknown mine target {target!r}; choose from {MINE_TARGETS}")
    cfg = SuiteConfig(n_exhaustive=max(0, min(n_max, EXHAUSTIVE_POINTS)))
    return [{"space": label, "opens": [top.ground.labels_of_mask(m) for m in top.opens], **found}
            for label, top in sweep_spaces(cfg) for found in _MINERS[target](_SpaceContext(label, top, cfg))]
