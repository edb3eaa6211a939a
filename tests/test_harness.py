import collections
import gc
import hashlib
import json
import pathlib
import random
import weakref
from dataclasses import replace

import pytest

from topolab import (
    BUILTIN_NAMES,
    Filter,
    OpPair,
    SchemaError,
    SuiteConfig,
    additive_hypothesis,
    adherence_set,
    base_report,
    catalog,
    compactness_kind,
    converges,
    indiscrete,
    enumerate_topologies,
    is_monotone,
    leq,
    limit_set,
    mine_counterexamples,
    random_topology,
    run_suites,
    sierpinski,
    sweep_spaces,
)
from topolab import compact, filters, harness
from topolab import ops as ops_module
from topolab.bits import intersect_all, mask_of, submasks_desc
from topolab.filters import (
    member_table,
    neighbourhood_images,
    point_rows,
    points_reached,
    principal_rows,
    rows_meeting,
    rows_within,
)
from topolab.pairs import PairKernel, envelopes, image_groups
from topolab.ops import Operation
from topolab.harness import CATALOG_PAIRS, MINE_TARGETS, SUITE_NAMES, _SpaceContext

import oracles
from oracles import (
    context_pairs,
    family_accumulates,
    family_converges,
    maximal_bases_converge,
    pointwise_pair_closure,
    route_check,
    scan_limit_set,
)
from test_source import SPACE_READS

PINS = pathlib.Path(__file__).resolve().parent.parent / "bench" / "expected.json"


def _report_digest(cfg: SuiteConfig, spaces=None) -> str:
    """sha256 of the report without its environment block, as pinned in
    the benchmark's expected.json."""
    data = run_suites(cfg, spaces).to_dict()
    del data["environment"]
    return hashlib.sha256(json.dumps(data, sort_keys=True, separators=(",", ":")).encode()).hexdigest()


def test_config_defaults_and_validation():
    cfg = SuiteConfig()
    assert cfg.n_exhaustive == 3 and cfg.n_sampled == 6
    assert len(cfg.pairs) == 49 and cfg.suites == SUITE_NAMES
    with pytest.raises(SchemaError):
        SuiteConfig(n_exhaustive=5)
    with pytest.raises(SchemaError):
        SuiteConfig(n_sampled=17)
    with pytest.raises(SchemaError):
        SuiteConfig(pairs=("int,boom",))
    with pytest.raises(SchemaError):
        SuiteConfig(suites=("nope",))
    # a repeated name would be counted, and its failures listed, twice
    with pytest.raises(SchemaError, match="'suites' repeats 'families'"):
        SuiteConfig(n_exhaustive=2, suites=("families", "families"))
    with pytest.raises(SchemaError, match="'pairs' repeats 'int,cl'"):
        SuiteConfig(pairs=("int,cl", "cl,int", "int,cl"))
    # sampled spaces no bigger than the enumerated ones would be dropped
    with pytest.raises(SchemaError, match="samples need n_sampled above n_exhaustive"):
        SuiteConfig(n_exhaustive=3, n_sampled=3, samples=5)


def test_config_from_dict():
    cfg = SuiteConfig.from_dict({"n_exhaustive": 2, "pairs": ["int,cl"], "suites": ["families"]})
    assert cfg.pairs == ("int,cl",) and cfg.suites == ("families",)
    with pytest.raises(SchemaError, match="unknown config"):
        SuiteConfig.from_dict({"bogus": 1})
    with pytest.raises(SchemaError, match="integer"):
        SuiteConfig.from_dict({"seed": "x"})
    # a JSON boolean is not an integer, though bool subclasses int
    for key in ("n_exhaustive", "n_sampled", "samples", "seed"):
        with pytest.raises(SchemaError, match=f"'{key}' must be an integer"):
            SuiteConfig.from_dict({key: True})
    with pytest.raises(SchemaError, match="list of strings"):
        SuiteConfig.from_dict({"pairs": "int,cl"})
    with pytest.raises(SchemaError, match="repeats 'structure'"):
        SuiteConfig.from_dict({"suites": ["structure", "families", "structure"]})
    with pytest.raises(SchemaError, match="repeats 'int,cl'"):
        SuiteConfig.from_dict({"pairs": ["int,cl", "int,cl"]})
    with pytest.raises(SchemaError, match="object"):
        SuiteConfig.from_dict([1])
    with pytest.raises(SchemaError, match="n_sampled above n_exhaustive"):
        SuiteConfig.from_dict({"n_exhaustive": 3, "n_sampled": 2, "samples": 1})


def test_sweep_spaces_counts():
    cfg = SuiteConfig(n_exhaustive=3)
    labels = [label for label, _ in sweep_spaces(cfg)]
    assert len(labels) == 1 + 4 + 29
    assert labels[0] == "n=1#0" and labels[-1] == "n=3#28"
    cfg = SuiteConfig(n_exhaustive=1, n_sampled=5, samples=2, seed=9)
    spaces = sweep_spaces(cfg)
    assert len(spaces) == 3 and spaces[-1][1].n == 5


def test_run_suites_small_clean():
    cfg = SuiteConfig(n_exhaustive=1, suites=("structure", "families"))
    report = run_suites(cfg)
    assert report.ok
    assert set(report.suites) == {"structure", "families"}
    assert report.suites["structure"].instances_checked > 0
    body = report.to_dict()
    assert body["environment"]["seed"] == 0
    assert body["config"]["n_exhaustive"] == 1


def test_run_suites_empty_config():
    report = run_suites(SuiteConfig(n_exhaustive=1, suites=()))
    assert report.ok and report.suites == {}


def test_report_deterministic():
    cfg = SuiteConfig(n_exhaustive=2, samples=0, seed=5, suites=("structure",))
    first = run_suites(cfg).to_json()
    second = run_suites(cfg).to_json()
    assert first == second


def test_wide_report_matches_pinned_digest():
    # the benchmark's wide11 workload runs this config at its default seed
    # and pins the sha256 of the report without its environment block; the
    # digest is also pinned here, so the structure suite's report cannot
    # move with a re-pin of the benchmark
    cfg = SuiteConfig(n_exhaustive=0, n_sampled=11, samples=2, seed=0,
                      suites=("operations", "structure", "families"))
    digest = _report_digest(cfg)
    assert digest == "be766c8051d0184c0bbfd855c619a2e02a69f83d5f65be4712bc781fbf53d72c"
    assert digest == json.loads(PINS.read_text())["wide11"]["digest"]


def test_exhaustive_report_matches_pinned_digest():
    # the benchmark's exhaustive3 workload: every space of at most three
    # points, all suites and pairs; the only sweep that reaches the n <= 3
    # branches of the filters suite
    cfg = SuiteConfig(n_exhaustive=3, seed=0)
    assert _report_digest(cfg) == json.loads(PINS.read_text())["exhaustive3"]["digest"]


def test_ten_point_report_matches_pinned_digest():
    # every suite on one 10-point space (512 opens), one of three pinned
    # reports that run the filters and compactness suites above six points
    cfg = SuiteConfig(n_exhaustive=0, n_sampled=10)
    digest = _report_digest(cfg, [("n=10", random_topology(10, 0, 10))])
    assert digest == "268cd35a5a9af39b00cd4f081915e71dfbebd80639b50812090fa0beefc3551f"


def test_twelve_point_report_matches_pinned_digest():
    # every suite and all 49 pairs on one 12-point space: the largest
    # pinned report, where the pairs share the fewest kernels per name
    cfg = SuiteConfig(n_exhaustive=0, n_sampled=12)
    digest = _report_digest(cfg, [("n=12", random_topology(12, 0, 12))])
    assert digest == "69606403c29b8ad174adab2591feb32a0613dafda0bfa6bb1309e06204b6ce8a"


def test_sixteen_point_report_matches_pinned_digest():
    # every suite and all 49 pairs on one 16-point space (21504 opens):
    # the largest ground set, and the only pinned report whose per-point
    # meets pack their rows into 32-bit lanes
    cfg = SuiteConfig(n_exhaustive=0, n_sampled=16)
    digest = _report_digest(cfg, [("n=16", random_topology(16, 0, 16))])
    assert digest == "ef45ecbee902d32237374a28a4fa84f9bf1d1625aad76923c104a81c3dcde098"


def test_four_point_report_matches_pinned_digest():
    # every suite over every space of at most four points: the largest
    # exhaustive sweep, where no quantifier is sampled
    digest = _report_digest(SuiteConfig(n_exhaustive=4))
    assert digest == "b36205fd50b589530dad5b2ea26a7e5a45f291107170dadfd17138c172040784"


def _records(result) -> list[tuple]:
    return [(f["pair"], f["statement"], f["subject"], f["witness"]) for f in result.failures]


def test_flipped_base_limit_bit_fails_like_the_per_base_scan(monkeypatch):
    # one wrong bit in the batched base limit rows is reported with the
    # subject and witness the per-base scan gives with the same bit flipped
    cfg = SuiteConfig(n_exhaustive=0, n_sampled=5, samples=1, seed=3, suites=("filters",))
    flip_base, flip_point = 2, 1
    real = harness.base_rows

    def flipped(p, bases, has=None):
        limits, adherences = real(p, bases, has)
        limits[flip_point] ^= 1 << flip_base
        return limits, adherences

    monkeypatch.setattr(harness, "base_rows", flipped)
    got = _records(run_suites(cfg).suites["filters"])
    expected = []
    for label, top in sweep_spaces(cfg):
        ctx = _SpaceContext(label, top, cfg)
        for (a, b), p in context_pairs(ctx).items():
            for j, base in enumerate(ctx.universe.bases):
                f = Filter(top.n, intersect_all(base, top.full))
                scan = scan_limit_set(base, p) ^ (j == flip_base) << flip_point
                diff = (scan ^ limit_set(f, p)) | (adherence_set(base, p) ^ adherence_set(f, p))
                if diff:
                    expected.append((f"{a},{b}", "base and generated filter agree", str(list(base)),
                                     str((diff & -diff).bit_length() - 1)))
    assert len(expected) == 49
    assert got == expected


def test_flipped_base_adherence_bit_fails_like_the_member_walk(monkeypatch):
    # the base side of "base and generated filter agree" comes from the
    # groups (the adherence rows of base_rows) and the filter side from
    # the interior table: one wrong bit on the base side is reported with
    # the subject and witness of the literal walk over the members'
    # pointwise closures with the same bit flipped
    cfg = SuiteConfig(n_exhaustive=0, n_sampled=5, samples=1, seed=3, suites=("filters",))
    flip_base, flip_point = 3, 2
    real = harness.base_rows

    def flipped(p, bases, has=None):
        limits, adherences = real(p, bases, has)
        adherences[flip_point] ^= 1 << flip_base
        return limits, adherences

    monkeypatch.setattr(harness, "base_rows", flipped)
    got = _records(run_suites(cfg).suites["filters"])
    expected = []
    for label, top in sweep_spaces(cfg):
        ctx = _SpaceContext(label, top, cfg)
        for (a, b), p in context_pairs(ctx).items():
            for j, base in enumerate(ctx.universe.bases):
                f = Filter(top.n, intersect_all(base, top.full))
                walk = oracles.literal_base_adherence(base, p) ^ (j == flip_base) << flip_point
                diff = (scan_limit_set(base, p) ^ limit_set(f, p)) | (walk ^ adherence_set(f, p))
                if diff:
                    expected.append((f"{a},{b}", "base and generated filter agree", str(list(base)),
                                     str((diff & -diff).bit_length() - 1)))
    assert len(expected) == 49
    assert got == expected


def test_base_rows_match_the_per_base_sets_and_the_literal_rules():
    # the filters suite's base block compares rows by point, bit j of row
    # x for base j, over the suite's own bases and every kernel of every
    # space of at most 3 points and of seeded 5-, 6- and 8-point spaces.
    # The base rows are the per-base sets transposed and agree with the
    # literal convergence rule and the member walk; the generated
    # filters' rows, spread over the bases by core, are the principal
    # filters' sets.  Two flipped bits of one base give the per-base
    # comparison's witness, the lower point, in base order
    rng = random.Random(131)
    spaces = [t for n in range(4) for t in enumerate_topologies(n)]
    spaces += [random_topology(n, rng.randrange(10**6), n) for n in (5, 6, 8)]
    for top in spaces:
        ctx = _SpaceContext("s", top, SuiteConfig())
        n, bases = top.n, ctx.universe.bases
        has = member_table(bases, n)
        cores = [intersect_all(base, top.full) for base in bases]
        by_core = {}
        for j, core in enumerate(cores):
            by_core[core] = by_core.get(core, 0) | 1 << j
        for p in {p.kernel: p for p in context_pairs(ctx).values()}.values():
            lim_at, adh_at = filters.base_rows(p, bases, has)
            assert (lim_at, adh_at) == filters.base_rows(p, bases), p
            limits, adherences = oracles.base_limit_sets(p, bases, has), oracles.base_adherence_sets(p, bases, has)
            walks = [oracles.literal_base_adherence(base, p) for base in bases]
            for j, base in enumerate(bases):
                assert limits[j] == sum(converges(base, p, x) << x for x in range(n)), (p, base)
                assert adherences[j] == walks[j], (p, base)
                for x in range(n):
                    assert lim_at[x] >> j & 1 == limits[j] >> x & 1, (p, base, x)
                    assert adh_at[x] >> j & 1 == adherences[j] >> x & 1, (p, base, x)
            lim, adh = principal_rows(p)
            core_lim_at = filters.spread_rows(((lim[c], js) for c, js in by_core.items()), n)
            assert core_lim_at == lim_at, p
            assert filters.spread_rows(((adh[c], js) for c, js in by_core.items()), n) == adh_at, p
            if n < 2:
                continue
            j = rng.randrange(len(bases))
            x, y = sorted(rng.sample(range(n), 2))
            flipped = list(lim_at)
            flipped[x] ^= 1 << j
            flipped[y] ^= 1 << j
            bad = [flipped[z] ^ core_lim_at[z] for z in range(n)]
            diffs = [(limits[i] ^ lim[c]) ^ (i == j) * (1 << x | 1 << y) for i, c in enumerate(cores)]
            expected = [(i, (d & -d).bit_length() - 1) for i, d in enumerate(diffs) if d]
            assert list(harness._first_points(bad)) == expected == [(j, x)], p


def test_wrong_monotone_verdict_fails_the_regularity_statement(monkeypatch):
    # scl is swapped for a non-monotone operation on the indiscrete space
    # that maps the singleton {0} to the whole space, so no neighbourhood
    # of point 0 squeezes under {0,1} and {0,2}; with every monotone
    # verdict forced true the catalog monotonicity check passes, and only
    # the literal regularity scan over the selector topologies is left to
    # catch it
    top = indiscrete(3)
    real_catalog = harness.catalog

    def broken(t):
        ops = real_catalog(t)
        ops["scl"] = Operation(t, [t.full if a == 1 else a for a in t.subsets()], "scl")
        return ops

    monkeypatch.setattr(harness, "catalog", broken)
    monkeypatch.setattr(ops_module, "is_monotone_lanes", lambda lanes, width, n: True)
    cfg = SuiteConfig(n_exhaustive=0, suites=("operations",))
    failures = run_suites(cfg, [("indiscrete3", top)]).suites["operations"].failures
    assert not any(f["statement"] == "catalog operations are monotone" for f in failures)
    flagged = {f["pair"] for f in failures
               if f["statement"] == "monotone enlarger regular over a selector topology"}
    # the selectors whose open family is all of P(X); the other three
    # select only the ends, where regularity holds trivially
    assert flagged == {"identity,scl", "cl,scl", "scl,scl", "introcl,scl"}


def test_unlawful_double_dual_is_a_failure_record(monkeypatch):
    # identity's dual faulted to a lawful table (every nonempty set to the
    # whole space) whose own dual maps every proper subset to the empty
    # set, though the open {a} is its own interior: no operation.  The
    # suite compares the raw double dual, so it records the failure and
    # runs on
    real_dual = harness.dual

    def faulted(op):
        if op.name != "identity":
            return real_dual(op)
        top = op.topology
        return Operation(top, [top.full if a else 0 for a in top.subsets()], "faulted")

    monkeypatch.setattr(harness, "dual", faulted)
    top = sierpinski()
    with pytest.raises(ops_module.OperationError):
        real_dual(faulted(catalog(top)["identity"]))
    cfg = SuiteConfig(n_exhaustive=0, suites=("operations",))
    failures = run_suites(cfg, [("sierpinski", top)]).suites["operations"].failures
    records = {(f["pair"], f["statement"]) for f in failures}
    assert ("identity", "double dual returns the operation") in records
    assert ("identity,identity", "catalog dual identity") in records
    assert not any(f["statement"] == "double dual returns the operation"
                   for f in failures if f["pair"] != "identity")


def test_emptied_limit_row_fails_transfer_per_name(monkeypatch):
    # one kernel's limit row reads empty: every named pair that transfers
    # to a pair of that kernel fails at its first core with a limit,
    # rebuilt here name by name and core by core from the same rows.  The
    # context below holds the kernels, so the sweep shares them
    cfg = SuiteConfig(n_exhaustive=0, n_sampled=5, samples=1, seed=3, suites=("filters",))
    [(label, top)] = sweep_spaces(cfg)
    ctx = _SpaceContext(label, top, cfg)
    target = ctx.kernels[("int", "cl")]
    real = harness.principal_rows

    def emptied(k):
        lim, adh = real(k)
        if k is target:
            return collections.defaultdict(int), adh
        return lim, adh

    monkeypatch.setattr(harness, "principal_rows", emptied)
    statement = "transfer to a wider pair"
    got = [r for r in _records(run_suites(cfg, [(label, top)]).suites["filters"]) if r[1] == statement]
    expected = []
    for a, b in ctx.pair_names:
        lim, adh = emptied(ctx.kernels[(a, b)])
        for c, d in ctx.pair_names:
            if not (set(ctx.open_sets[c]) <= set(ctx.open_sets[a]) and leq(ctx.ops[b], ctx.ops[d])):
                continue
            wide_lim, wide_adh = emptied(ctx.kernels[(c, d)])
            for core in ctx.universe.core_list:
                if lim[core] & ~wide_lim[core] or adh[core] & ~wide_adh[core]:
                    expected.append((f"{a},{b}", statement, f"{c},{d}", ctx.top.ground.braced(core)))
                    break
    assert len({r[0] for r in expected}) > 1
    assert got == expected


def test_position_rows_match_the_per_core_predicates():
    # the filters suite's rows flag the quantified cores by position: the
    # transposed limit and adherence rows, the core table and the literal
    # rows read off it (containment, the neighbourhood variant, the submask
    # scan, the cores inside a set) and the finer-convergence rows, each
    # against its per-core predicate, on every kernel of every space of at
    # most 3 points and of seeded 5-, 6- and 10-point spaces
    def under(s, row):
        """The OR of ``row`` over the nonempty submasks of s."""
        out = 0
        for c in submasks_desc(s):
            if c:
                out |= row[c]
        return out

    spaces = [t for n in (1, 2, 3) for t in enumerate_topologies(n)]
    spaces += [random_topology(n, seed, n) for n, seed in ((5, 51), (6, 52), (10, 53))]
    for i, top in enumerate(spaces):
        n, full = top.n, top.full
        ctx = _SpaceContext(f"s{i}", top, SuiteConfig())
        cores = list(ctx.universe.core_list)
        everyone = (1 << len(cores)) - 1
        inside = member_table([(c,) for c in cores], n)
        assert all(inside[t] == mask_of(j for j, c in enumerate(cores) if c & ~t == 0)
                   for t in range(1 << n)), i

        def flags(test):
            return [mask_of(j for j, c in enumerate(cores) if test(c, x)) for x in range(n)]

        for p in {p.kernel: p for p in context_pairs(ctx).values()}.values():
            lim, adh = principal_rows(p)
            lim_at = point_rows([lim[c] for c in cores], n)
            adh_at = point_rows([adh[c] for c in cores], n)
            assert lim_at == flags(lambda c, x: lim[c] >> x & 1), (i, p.name)
            assert adh_at == flags(lambda c, x: adh[c] >> x & 1), (i, p.name)
            fam = p.kernel.family
            images_at = [[t for t, union in image_groups(p) if union >> x & 1] for x in range(n)]
            assert rows_within(inside, images_at, everyone) == flags(
                lambda c, x: family_converges(c, p, x, fam)), (i, p.name)
            images = neighbourhood_images(p)
            assert rows_within(inside, images, everyone) == flags(
                lambda c, x: all(c & ~t == 0 for t in images[x])), (i, p.name)
            assert rows_meeting(inside, images, everyone, full) == flags(
                lambda c, x: all(t & c for t in images[x])), (i, p.name)
            env = envelopes(p)
            assert [everyone & ~inside[full ^ e] for e in env] == flags(
                lambda c, x: c & env[x]), (i, p.name)
            if n > 3:
                continue
            literal_at = point_rows([points_reached(inside[c], lim_at) for c in cores], n)
            assert literal_at == flags(lambda c, x: under(c, lim) >> x & 1), (i, p.name)
            for s in range(1 << n):
                assert points_reached(inside[s], adh_at) == under(s, adh), (i, p.name, s)
                assert points_reached(inside[s], lim_at) == under(s, lim), (i, p.name, s)


@pytest.mark.parametrize("row, pair, core, points", [
    (0, "int,cl", "point", "top"), (1, "int,cl", "point", "all"),
    (1, "identity,identity", "whole", "top"),
])
def test_flipped_row_bit_fails_like_the_per_core_loop(monkeypatch, row, pair, core, points):
    # wrong bits in the limit (row 0) or adherence (row 1) row of every
    # kernel made of what one space's kernel of the pair is made of (n and
    # its key: selector-open plane, enlarger table), as the sweep shares a
    # clean run among those across spaces, at the core {0} or the whole set,
    # flipped at the top point or at every point: the per-core statements
    # report what the per-core loop over the same rows reports, pair by
    # pair, with every other input read literally.  The three cases
    # between them fail all twelve statements, and the second fails
    # several at more than one point of a core
    cfg = SuiteConfig(n_exhaustive=2, n_sampled=5, samples=1, seed=7, suites=("filters",))
    spaces = sweep_spaces(cfg)
    contexts = [_SpaceContext(label, top, cfg) for label, top in spaces]
    made_of = lambda k: (k.topology.n, k.key)
    targets = {made_of(ctx.kernels[tuple(pair.split(","))]) for ctx in contexts}
    real = harness.principal_rows

    def flipped(k):
        got = real(k)
        if made_of(k) not in targets:
            return got
        top = k.topology
        rows = [{c: r[c] for c in range(1, 1 << top.n)} for r in got]
        rows[row][1 if core == "point" else top.full] ^= top.full if points == "all" else 1 << (top.n - 1)
        return tuple(rows)

    monkeypatch.setattr(harness, "principal_rows", flipped)
    expected = []
    for ctx in contexts:
        for a, b in ctx.pair_names:
            expected += oracles.per_core_filter_records(
                ctx, a, b, flipped, ctx.top.ground.braced)
    statements = {r[1] for r in expected}
    assert len(statements) >= 3, statements
    got = _records(run_suites(cfg, spaces).suites["filters"])
    checked = {
        "neighbourhood variant agrees", "limits are adherent",
        "convergence is enlarged-members containment",
        "singleton cores decide finer convergence", "convergent refinements accumulate",
        "regular: accumulation iff finer convergence", "refinement construction converges",
        "separated pairs give unique limits", "accumulating filters land in the closure",
        "regular: closure points are filter limits", "regular: closed iff limits stay inside",
        "transfer to a wider pair",
    }
    assert [r for r in got if r[1] in checked] == expected


def test_padded_neighbourhoods_fail_like_the_per_core_predicates(monkeypatch):
    # an extra singleton in every neighbourhood up-set: the variant's
    # distinct-image test reports what the per-core predicates over the
    # padded family report, core by core and point by point
    cfg = SuiteConfig(n_exhaustive=2, n_sampled=5, samples=1, seed=7, suites=("filters",))
    real = ops_module.neighborhoods

    def padded(n, family, x):
        return real(n, family, x) + (1 << x,)

    monkeypatch.setattr(filters, "neighborhoods", padded)
    got = _records(run_suites(cfg).suites["filters"])
    expected = []
    for label, top in sweep_spaces(cfg):
        ctx = _SpaceContext(label, top, cfg)
        for a, b in ctx.pair_names:
            if not ctx.monotone[b]:
                continue
            p = OpPair(ctx.ops[a], ctx.ops[b])
            lim, adh = principal_rows(p)
            for core in ctx.universe.core_list:
                for x in range(top.n):
                    fam = padded(top.n, ctx.open_sets[a], x)
                    if bool(lim[core] >> x & 1) != family_converges(core, p, x, fam) or \
                       bool(adh[core] >> x & 1) != family_accumulates(core, p, x, fam):
                        expected.append((f"{a},{b}", "neighbourhood variant agrees",
                                         ctx.top.ground.braced(core), str(x)))
                        break
    assert expected
    assert got == expected


def test_flipped_failing_plane_bit_fails_like_the_per_set_scan(monkeypatch):
    # one wrong bit in one kernel's failing plane: the compactness suite
    # reports the same records as with the plane assembled set by set from
    # the avoidance scan, with the same bit flipped; the transfer and
    # agreeing-enlarger records are also rebuilt name by name and set by
    # set from the flipped verdicts.  The context below holds the kernels,
    # so the sweep shares them
    cfg = SuiteConfig(n_exhaustive=0, n_sampled=4, samples=1, seed=5, suites=("compactness",))
    [(label, top)] = sweep_spaces(cfg)
    ctx = _SpaceContext(label, top, cfg)
    target, flip_set = ctx.kernels[("int", "cl")], 0b0001
    real = compact.failing_plane

    def hit(k, kind):
        return kind == "pair" and k is target

    def batched(k, kind="pair"):
        return real(k, kind) ^ hit(k, kind) << flip_set

    def per_set(k, kind="pair"):
        plane = sum(1 << s for s in k.topology.subsets() if not compactness_kind(k, s, kind))
        return plane ^ hit(k, kind) << flip_set

    records = {}
    for name, fn in (("batched", batched), ("per_set", per_set)):
        monkeypatch.setattr(compact, "failing_plane", fn)
        monkeypatch.setattr(harness, "failing_plane", fn)
        records[name] = _records(run_suites(cfg, [(label, top)]).suites["compactness"])
    assert records["batched"] == records["per_set"]
    subject = ctx.top.ground.braced(flip_set)
    assert ("int,cl", "filter statements agree", subject) in {r[:3] for r in records["batched"]}

    def compact_at(a, b, s, kind="pair"):
        k = ctx.kernels[(a, b)]
        return compactness_kind(k, s, kind) != (hit(k, kind) and s == flip_set)

    blocks = ("compact sets transfer to wider pairs", "agreeing enlargers give one verdict")
    expected = []
    for a, b in ctx.pair_names:
        for c, d in ctx.pair_names:
            if set(ctx.open_sets[c]) <= set(ctx.open_sets[a]) and leq(ctx.ops[b], ctx.ops[d]):
                strict = [s for s in ctx.universe.subsets if compact_at(a, b, s) and not compact_at(c, d, s)]
                if strict:
                    expected.append((f"{a},{b}", blocks[0], f"{c},{d}", ctx.top.ground.braced(strict[0])))
        for c, d in ctx.pair_names:
            if c != a or d == b:
                continue
            if all(ctx.ops[b].table[u] == ctx.ops[d].table[u] for u in ctx.open_sets[a]):
                for s in ctx.universe.subsets:
                    if any(compact_at(a, b, s, k) != compact_at(c, d, s, k) for k in ("pair", "pair_open")):
                        expected.append((f"{a},{b}", blocks[1], f"{c},{d}", ctx.top.ground.braced(s)))
                        break
    assert {r[1] for r in expected} == set(blocks)
    assert [r for r in records["batched"] if r[1] in blocks] == expected


def test_flipped_filter_and_restricted_bits_fail_like_the_per_set_statements(monkeypatch):
    # wrong bits in the ultra, closed and restricted planes of one pair
    # kernel (restricted both ways: once where the set is compact, once
    # where it is not): the compactness suite reports the records that the
    # statements read set by set give with the same bits flipped, in the
    # same order and with the same witnesses, for every pair of the kernel
    cfg = SuiteConfig(n_exhaustive=0, n_sampled=4, samples=1, seed=5, suites=("compactness",))
    [(label, top)] = sweep_spaces(cfg)
    ctx = _SpaceContext(label, top, cfg)
    target = ctx.kernels[("identity", "introcl")]
    flips = {("ultra", 0b0011), ("closed", 0b1001), ("restricted", 0b0010), ("restricted", 0b0110)}
    real = compact.failing_plane

    def flip(k, kind, s):
        return (kind, s) in flips and k is target

    def flipped(k, kind="pair"):
        return real(k, kind) ^ sum(flip(k, kind, s) << s for _, s in flips)

    monkeypatch.setattr(compact, "failing_plane", flipped)
    monkeypatch.setattr(harness, "failing_plane", flipped)
    got = _records(run_suites(cfg, [(label, top)]).suites["compactness"])

    expected = []
    for (a, b), p in context_pairs(ctx).items():
        enl = p.enlarger.table
        residues = {top.full ^ enl[u] for u in p.kernel.family} - {0}
        for s in ctx.universe.subsets:
            v = {k: compactness_kind(p, s, k) for k in ("pair", "base", "pair_open", "closed")}
            v["ultra"] = maximal_bases_converge(p, s)
            v["restricted"] = all(pointwise_pair_closure(p, r) & s for r in residues if r & s)
            for k in ("ultra", "closed", "restricted"):
                v[k] ^= flip(p.kernel, k, s)
            subject = ctx.top.ground.braced(s)
            faces = {k: v[k] for k in ("pair", "ultra", "closed")}
            if len(set(faces.values())) > 1:
                expected.append((f"{a},{b}", "filter statements agree", subject, str(faces)))
            kinds = {k: v[k] for k in ("pair", "base", "pair_open")}
            if base_report(p).hypothesis_d and not all(kinds.values()):
                expected.append((f"{a},{b}", "cover kinds agree under the base hypothesis", subject, str(kinds)))
            if additive_hypothesis(p) and v["pair"] != v["restricted"]:
                expected.append((f"{a},{b}", "additive enlarger matches restricted accumulation", subject, ""))
    assert {r[1] for r in expected} == {"filter statements agree",
                                        "additive enlarger matches restricted accumulation"}
    assert got == expected


def test_refinement_construction_runs_on_multipoint_cores(monkeypatch):
    # a broken construction must be reported on cores of several points
    # above three points, not only on singletons
    def broken(p, core, point):
        raise RuntimeError("refinement base failed the filterbase laws")

    monkeypatch.setattr(harness, "refined_core", broken)
    cfg = SuiteConfig(n_exhaustive=0, n_sampled=5, samples=1,
                      pairs=("int,cl", "int,identity"), suites=("filters",))
    failures = run_suites(cfg).suites["filters"].failures
    cores = {f["subject"] for f in failures if f["statement"] == "refinement construction converges"}
    assert any("," in core for core in cores), cores


def test_separation_and_neighbourhood_bases_run_on_twelve_points(monkeypatch):
    # 4096 selector-open sets: separation and both neighbourhood bases are
    # checked at every point, with no cost gate in the way
    variants = []
    real = harness.nbhd_plane

    def counted(p, point, variant):
        variants.append(variant)
        return real(p, point, variant)

    monkeypatch.setattr(harness, "nbhd_plane", counted)
    cfg = SuiteConfig(n_exhaustive=0, n_sampled=12, pairs=("identity,identity",), suites=("filters",))
    result = run_suites(cfg, spaces=[("n=12", random_topology(12, 0, 12))]).suites["filters"]
    assert not result.failures
    assert "separation_scan_skipped" not in result.notes
    assert sorted(variants) == ["enlarged"] * 12 + ["plain"] * 12


def test_swept_space_is_collectable(monkeypatch):
    # nothing process-wide may keep a swept space alive: the named-class
    # pairs, the filter rows and every other table die with the space.
    # Every pair kernel of the sweep dies with the sweep's contexts, while
    # its space lives on: the sweep keeps no kernel on the space
    kernels = []
    real = _SpaceContext.__init__

    def spied(self, label, top, cfg, *rest):
        real(self, label, top, cfg, *rest)
        kernels.extend((label, weakref.ref(k)) for k in self.kernels.values())

    monkeypatch.setattr(_SpaceContext, "__init__", spied)
    spaces = [("s", random_topology(3, 7, 3)), ("t", random_topology(4, 8, 4))]
    run_suites(SuiteConfig(n_exhaustive=0, pairs=("int,cl", "cloint,scl", "identity,cl")), spaces=spaces)
    gc.collect()
    top = spaces[0][1]
    first = [ref() for label, ref in kernels if label == "s"]
    assert first and all(k is None for k in first)
    ref = weakref.ref(top)
    del top, spaces
    gc.collect()
    assert ref() is None


def test_each_run_key_runs_once(monkeypatch):
    # the benchmark's sampled6 space n=6~0 has four distinct catalog
    # operations and 16 distinct (selector, enlarger) pairs: the structure
    # statements run once per pair kernel and order dominance, the
    # compactness statements once per kernel, dominance and monotone
    # selector, and the oracle once per ambient family and distinct image
    # tuple of the enlargers on it, which is all the oracle and the fast
    # criterion read of an enlarger
    cfg = SuiteConfig(n_exhaustive=2, n_sampled=6, samples=2, seed=31)
    top = dict(sweep_spaces(cfg))["n=6~0"]
    seen = {"classify_structure": [], "space_compactness_flags": [], "brute_force_compact_images": [],
            "is_compact": []}
    for name, calls in seen.items():
        def counted(first, *rest, real=getattr(harness, name), calls=calls):
            calls.append((first, *rest[:1]))
            return real(first, *rest)
        monkeypatch.setattr(harness, name, counted)
    report = run_suites(cfg, spaces=[("n=6~0", top)])
    assert report.ok

    ctx = _SpaceContext("n=6~0", top, cfg)
    pairs = context_pairs(ctx).values()
    distinct_ops = set(ctx.ops.values())
    distinct_pairs = {(p.selector, p.enlarger) for p in pairs}
    assert len(distinct_ops) == 4 and len(distinct_pairs) == 16
    run_keys = {
        "classify_structure": lambda p: (p.kernel, base_report(p).order_dominates),
        "space_compactness_flags": lambda p: (
            p.kernel, base_report(p).order_dominates, is_monotone(p.selector)),
    }
    for name, key in run_keys.items():
        # the checks see kernels only: each kernel is seen once per key
        # it is keyed under
        expected = {key(p) for p in pairs}
        assert collections.Counter(k for (k,) in seen[name]) == collections.Counter(k for k, *_ in expected), name
    assert len({run_keys["classify_structure"](p) for p in pairs}) == 9
    # one literal walk per ambient family, answering each distinct image
    # tuple of the seven enlargers on it once; above 4 points the bigger
    # ambient families are cut to seeded draws of 10
    walks = seen["brute_force_compact_images"]
    ambients = [fam for fam, _ in walks]
    assert len(set(ambients)) == len(ambients)
    assert max(map(len, ambients)) == 10
    keys = []
    for fam, images in walks:
        on_fam = [tuple(op.table[u] for u in fam) for op in ctx.ops.values()]
        assert list(images) == list(dict.fromkeys(on_fam)), fam
        keys += [(fam, row) for row in images]
    # 9 runs where there are 16 (ambient, distinct operation) pairs: some
    # operations differ only off an ambient family
    assert (len(keys), len(ambients) * len(distinct_ops)) == (9, 16)
    assert report.suites["compactness_oracle"].instances_checked == len(ambients) * 7 * len(ctx.universe.subsets)
    # the fast criterion runs once per key and quantified subset
    runs = collections.Counter((cs.ambient, tuple(cs.enlarger.table[u] for u in cs.ambient))
                               for cs, _ in seen["is_compact"])
    assert runs == dict.fromkeys(keys, len(ctx.universe.subsets))


def test_sweeps_and_the_miner_build_no_operation_pair(monkeypatch):
    # a pair run is its kernel and two readings of the context's tables,
    # so no sweep builds an OpPair: not over every space of at most 3
    # points, not on the benchmark's sampled space n=6~0, and not in the
    # miner
    built = []
    real = OpPair.__init__

    def spied(self, *ops):
        built.append(ops)
        real(self, *ops)

    monkeypatch.setattr(OpPair, "__init__", spied)
    assert run_suites(SuiteConfig(n_exhaustive=3)).ok
    cfg = SuiteConfig(n_exhaustive=2, n_sampled=6, samples=2, seed=31)
    assert run_suites(cfg, spaces=[("n=6~0", dict(sweep_spaces(cfg))["n=6~0"])]).ok
    assert all(mine_counterexamples(target, n_max=3) for target in MINE_TARGETS)
    assert built == []
    ops = catalog(sierpinski())
    OpPair(ops["int"], ops["cl"])
    assert built == [(ops["int"], ops["cl"])]


def test_oracle_walks_every_ambient_family_whole_up_to_four_points(monkeypatch):
    # the largest is the power set, the identity-open family of 16 members
    sizes = []

    def spied(ambient, images, targets, real=compact.brute_force_compact_images):
        sizes.append(len(ambient))
        return real(ambient, images, targets)

    monkeypatch.setattr(harness, "brute_force_compact_images", spied)
    cfg = SuiteConfig(n_exhaustive=0, suites=("compactness_oracle",))
    assert run_suites(cfg, spaces=[("n=4", random_topology(4, 0, 4))]).ok
    assert max(sizes) == 16


def test_failing_oracle_runs_are_not_shared(monkeypatch):
    # two enlargers whose images agree on an ambient family share one
    # oracle run key there; a wrong literal verdict for that image tuple
    # fails the run, so each name runs its own body and reports its own
    # record under its own name
    cfg = SuiteConfig(n_exhaustive=0, n_sampled=3, samples=1, seed=5, suites=("compactness_oracle",))
    [(label, top)] = sweep_spaces(cfg)
    ctx = _SpaceContext(label, top, cfg)
    real = compact.brute_force_compact_images
    target = []

    def flipped(ambient, images, targets):
        # the first image tuple shared by enlargers with different tables
        # gets a wrong verdict for the last target, the whole space
        got = real(ambient, images, targets)
        for at, row in enumerate(images):
            names = [nm for nm, op in ctx.ops.items() if tuple(op.table[u] for u in ambient) == row]
            if not target and len({ctx.ops[nm].table for nm in names}) > 1:
                target.append((ambient, names))
            if target and target[0] == (ambient, names):
                got[at] = got[at][:-1] + (not got[at][-1],)
        return got

    monkeypatch.setattr(harness, "brute_force_compact_images", flipped)
    got = _records(run_suites(cfg, [(label, top)]).suites["compactness_oracle"])
    [(ambient, names)] = target
    statement = "fast criterion agrees with the literal oracle"
    assert got == [(nm, statement, ctx.top.ground.braced(top.full), str(list(ambient))) for nm in names]


def test_failing_runs_are_not_shared(monkeypatch):
    # a failing run names its pair, so every kernel twin of a failing pair
    # (the filters suite's run key) runs its own body and fails with the
    # same records under its own name
    def broken(p, core, point):
        raise RuntimeError("refinement base failed the filterbase laws")

    monkeypatch.setattr(harness, "refined_core", broken)
    cfg = SuiteConfig(n_exhaustive=3, suites=("filters",))
    records = {}
    for f in run_suites(cfg).suites["filters"].failures:
        rest = {k: v for k, v in f.items() if k != "pair"}
        records.setdefault((f["space"], f["pair"]), []).append(rest)
    twins = 0
    for label, top in sweep_spaces(cfg):
        ctx = _SpaceContext(label, top, cfg)
        for a, b in ctx.pair_names:
            mine = records.get((label, f"{a},{b}"))
            if mine is None:
                continue
            for c, d in ctx.pair_names:
                if (c, d) != (a, b) and ctx.kernels[(c, d)] is ctx.kernels[(a, b)]:
                    assert records.get((label, f"{c},{d}")) == mine, (label, a, b, c, d)
                    twins += 1
    assert twins


def test_fault_in_one_pair_of_a_shared_kernel_names_only_that_pair(monkeypatch):
    # cloint,int and int,int on the space {{}, {a}, {a,b}} are different
    # operation pairs sharing one kernel, and only the second has a
    # dominating enlarger, so the two read different compactness run keys;
    # a wrong base plane on the kernel, seen only under the base
    # hypothesis, is reported under the dominating pair's name alone,
    # whichever pair runs first
    label = "n=2#1"
    top = dict(sweep_spaces(SuiteConfig(n_exhaustive=2)))[label]
    names = ("cloint,int", "int,int")
    cfg = SuiteConfig(n_exhaustive=0, pairs=names, suites=("compactness",))
    loose, dominating = context_pairs(_SpaceContext(label, top, cfg)).values()
    assert loose.kernel is dominating.kernel and loose.selector != dominating.selector
    assert not base_report(loose).order_dominates and base_report(dominating).order_dominates
    real = compact.failing_plane

    def flipped(k, kind="pair"):
        return real(k, kind) | (kind == "base" and k is dominating.kernel) << top.full

    monkeypatch.setattr(compact, "failing_plane", flipped)
    monkeypatch.setattr(harness, "failing_plane", flipped)
    flags = (True, False, True, True, True, False, True, True, False)
    expected = [("int,int", "cover kinds agree under the base hypothesis", top.ground.braced(top.full),
                 str({"pair": True, "base": False, "pair_open": True})),
                ("int,int", "space-level statements agree", "X", str(flags))]
    for order in (names, names[::-1]):
        assert _records(run_suites(replace(cfg, pairs=order), [(label, top)]).suites["compactness"]) == expected


def test_report_does_not_depend_on_pair_order(monkeypatch):
    # a name leaking into a shared run would make the counts depend on
    # which name of a group runs first; the broken refinement construction
    # gives the filters suite failures to compare as well
    def broken(p, core, point):
        raise RuntimeError("refinement base failed the filterbase laws")

    monkeypatch.setattr(harness, "refined_core", broken)
    forward = run_suites(SuiteConfig(n_exhaustive=3)).suites
    backward = run_suites(SuiteConfig(n_exhaustive=3, pairs=CATALOG_PAIRS[::-1])).suites
    assert forward["filters"].failures
    for name in SUITE_NAMES:
        assert forward[name].instances_checked == backward[name].instances_checked, name
        assert forward[name].notes == backward[name].notes, name
        key = lambda f: json.dumps(f, sort_keys=True)
        assert sorted(forward[name].failures, key=key) == sorted(backward[name].failures, key=key), name


def kernels_split_by_dominance(cfg):
    """Whether some pair kernel of the swept spaces serves two pairs of
    which one has a dominating enlarger and the other not."""
    for label, top in sweep_spaces(cfg):
        dominance = collections.defaultdict(set)
        for p in context_pairs(_SpaceContext(label, top, cfg)).values():
            dominance[p.kernel].add(base_report(p).order_dominates)
        if any(len(v) > 1 for v in dominance.values()):
            return True
    return False


def test_sharing_changes_no_report(monkeypatch):
    # against a run that shares nothing; on the discrete spaces these names
    # coincide but pick different partners for the agreeing-enlargers
    # check of the compactness suite.  The spaces up to 3 points have
    # kernels whose pairs differ in order dominance, which the structure
    # statements read for their counts; the compactness statements read it
    # only to gate failures, so a fault in every base plane, seen only
    # under the base hypothesis, must also be reported alike
    pairs = ("int,cl", "identity,cl", "int,scl", "cl,cl", "int,identity", "sint,int")
    configs = (SuiteConfig(n_exhaustive=2, n_sampled=4, samples=1, seed=3, pairs=pairs),
               SuiteConfig(n_exhaustive=3))
    assert kernels_split_by_dominance(configs[1])
    real_plane = compact.failing_plane

    def faulty_base(p, kind="pair"):
        return real_plane(p, kind) | (kind == "base") << p.topology.full

    def reports():
        got = [run_suites(cfg).to_json() for cfg in configs]
        with monkeypatch.context() as m:
            m.setattr(compact, "failing_plane", faulty_base)
            m.setattr(harness, "failing_plane", faulty_base)
            faulted = run_suites(replace(configs[1], suites=("compactness",)))
        assert faulted.suites["compactness"].failures
        return got + [faulted.to_json()]

    shared = reports()
    monkeypatch.setattr(harness, "_run_keys", lambda ctx, key, items: [(ctx.label, item) for item in items])
    assert reports() == shared


@pytest.mark.parametrize("kind", ["family", "pair", "pair_open"])
def test_faulted_kernel_in_an_agreement_class_fails_like_the_per_name_loop(monkeypatch, kind):
    # one kernel of a three-kernel agreement class (selector int, the
    # enlargers agreeing with cl on the opens) reads a wrong pair-open
    # family, or a wrong pair or pair_open plane: the class splits and its
    # names are compared one by one, with the records of the per-name loop
    # and its count, which is what the sweep loses when each name is its
    # own only partner (the families statement also compares a name with
    # itself)
    cfg = SuiteConfig(n_exhaustive=0, n_sampled=4, samples=1, seed=5)
    spaces = sweep_spaces(cfg)
    [(label, top)] = spaces
    ctx = _SpaceContext(label, top, cfg)
    kernels = list(dict.fromkeys(ctx.kernels[q] for q in ctx.agreeing("int", "cl")))
    assert len(kernels) == 3
    target = kernels[1]
    if kind == "family":
        suite, statement, name = "families", "agreeing enlargers induce one family", "pair_open_plane"
        real = harness.pair_open_plane

        def faulty(k):
            return real(k) & ~(1 << top.full) if k is target else real(k)
    else:
        suite, statement, name = "compactness", "agreeing enlargers give one verdict", "failing_plane"
        real = harness.failing_plane

        def faulty(k, of="pair"):
            return real(k, of) ^ (k is target and of == kind) << top.full

    cfg = replace(cfg, suites=(suite,))
    clean = run_suites(cfg, spaces).suites[suite]
    monkeypatch.setattr(harness, name, faulty)
    got = run_suites(cfg, spaces).suites[suite]
    count, expected = oracles.per_name_pair_records(ctx, statement, faulty)
    assert len({r[0] for r in expected}) > 1
    assert [r for r in _records(got) if r[1] == statement] == expected
    assert got.instances_checked == clean.instances_checked
    monkeypatch.setattr(_SpaceContext, "agreeing", lambda self, a, b: [(a, b)])
    lone = run_suites(cfg, spaces).suites[suite]
    self_checks = len(ctx.pair_names) if kind == "family" else 0
    assert got.instances_checked - lone.instances_checked == count - self_checks


def test_faulted_wider_kernel_shared_by_several_names_fails_like_the_per_name_loop(monkeypatch):
    # a kernel six names share fails at one more set, its first nonempty
    # compact one: each pair with those names among its wider pairs
    # reports one record per such name, as the per-name loop does, and the
    # transfer statement counts what that loop counts, which is what the
    # sweep loses with no wider pairs at all
    cfg = SuiteConfig(n_exhaustive=0, n_sampled=4, samples=1, seed=5, suites=("compactness",))
    spaces = sweep_spaces(cfg)
    [(label, top)] = spaces
    ctx = _SpaceContext(label, top, cfg)
    target = ctx.kernels[("int", "cl")]
    sharing = {f"{c},{d}" for (c, d), k in ctx.kernels.items() if k is target}
    assert len(sharing) == 6
    real = harness.failing_plane
    plane = real(target)
    flip_set = next(s for s in ctx.universe.subsets if s and not plane >> s & 1)

    def faulty(k, kind="pair"):
        return real(k, kind) | (k is target and kind == "pair") << flip_set

    clean = run_suites(cfg, spaces).suites["compactness"]
    monkeypatch.setattr(harness, "failing_plane", faulty)
    got = run_suites(cfg, spaces).suites["compactness"]
    statement = "compact sets transfer to wider pairs"
    count, expected = oracles.per_name_pair_records(ctx, statement, faulty)
    assert len({r[2] for r in expected} & sharing) > 1
    assert [r for r in _records(got) if r[1] == statement] == expected
    assert got.instances_checked == clean.instances_checked
    monkeypatch.setattr(_SpaceContext, "wider", lambda self, a, b: [])
    assert got.instances_checked - run_suites(cfg, spaces).suites["compactness"].instances_checked == count


def test_oracle_walks_and_runs_once_per_sweep_and_fails_in_each_space(monkeypatch):
    # across the spaces of at most two points, each (ambient family, image
    # row) key of each universe is walked once and its fast criterion runs
    # once.  A wrong literal verdict for a key the four 2-point spaces
    # all meet fails the run in each of them, under every name whose images
    # on the family give the row, with the space's own label
    cfg = SuiteConfig(n_exhaustive=2, suites=("compactness_oracle",))
    spaces = sweep_spaces(cfg)
    fam = row = (0b01, 0b11)
    walks, runs = [], collections.Counter()
    real_walk, real_run = harness.brute_force_compact_images, harness.is_compact

    def spied_walk(ambient, images, targets, flip=False):
        walks.extend((ambient, r, tuple(targets)) for r in images)
        got = real_walk(ambient, images, targets)
        return [v[:-1] + (not v[-1],) if flip and (ambient, r) == (fam, row) else v
                for r, v in zip(images, got)]

    def spied_run(cs, s):
        runs[cs.ambient, tuple(cs.enlarger.table[u] for u in cs.ambient), cs.enlarger.topology.n] += 1
        return real_run(cs, s)

    monkeypatch.setattr(harness, "brute_force_compact_images", spied_walk)
    monkeypatch.setattr(harness, "is_compact", spied_run)
    clean = run_suites(cfg, spaces).suites["compactness_oracle"]
    assert not clean.failures
    assert len(walks) == len(set(walks)) and (fam, row, (0, 1, 2, 3)) in walks
    assert runs == {(a, r, len(t).bit_length() - 1): len(t) for a, r, t in walks}

    monkeypatch.setattr(harness, "brute_force_compact_images", lambda *args: spied_walk(*args, flip=True))
    got = run_suites(cfg, spaces).suites["compactness_oracle"]
    expected = []
    for label, top in spaces:
        ctx = _SpaceContext(label, top, cfg)
        for nm in BUILTIN_NAMES:
            if top.n == 2 and tuple(ctx.ops[nm].table[u] for u in fam) == row:
                expected.append((label, nm, top.ground.braced(top.full), str(list(fam))))
    assert len({r[0] for r in expected}) == 4
    statement = "fast criterion agrees with the literal oracle"
    assert [(f["space"], f["pair"], f["subject"], f["witness"]) for f in got.failures] == expected
    assert {f["statement"] for f in got.failures} == {statement}
    assert got.instances_checked == clean.instances_checked


def test_oracle_store_lives_for_one_sweep(monkeypatch):
    # the spaces of n points in a sweep read one universe, which keeps the
    # oracle's verdicts, and nothing keeps it once the sweep returns; the
    # next sweep starts empty and walks again
    refs = []
    real = _SpaceContext.__init__

    def spied(self, label, top, cfg, *rest):
        real(self, label, top, cfg, *rest)
        assert all(ref() is self.universe for n, ref in refs if n == self.n)
        refs.append((self.n, weakref.ref(self.universe)))

    monkeypatch.setattr(_SpaceContext, "__init__", spied)
    walks = []
    real_walk = harness.brute_force_compact_images

    def counted(ambient, images, targets):
        walks.append(ambient)
        return real_walk(ambient, images, targets)

    monkeypatch.setattr(harness, "brute_force_compact_images", counted)
    cfg = SuiteConfig(n_exhaustive=2, suites=("compactness_oracle",))
    counts = []
    for _ in range(2):
        assert run_suites(cfg).ok
        gc.collect()
        assert [n for n, _ in refs] == [1, 2, 2, 2, 2] and all(ref() is None for _, ref in refs)
        refs.clear()
        counts.append(len(walks))
        walks.clear()
    assert counts[0] == counts[1] > 0


def test_oracle_runs_are_not_shared_across_quantified_subsets(monkeypatch):
    # one 5-point space swept under two labels quantifies two seeded
    # draws of subsets over the same ambient families: each label walks
    # the literal oracle on its own draw, so a run is shared only between
    # spaces that read one universe
    top = random_topology(5, 3, 5)
    spaces = [("a", top), ("b", top)]
    cfg = SuiteConfig(n_exhaustive=0, suites=("compactness_oracle",))
    walks = collections.defaultdict(set)
    real = harness.brute_force_compact_images

    def spied(ambient, images, targets):
        walks[ambient].add(tuple(targets))
        return real(ambient, images, targets)

    monkeypatch.setattr(harness, "brute_force_compact_images", spied)
    assert run_suites(cfg, spaces).ok
    draws = {_SpaceContext(label, t, cfg).universe.subsets for label, t in spaces}
    assert len(draws) == 2 and any(seen == draws for seen in walks.values())


def test_pair_runs_are_shared_across_the_spaces_of_a_sweep(monkeypatch):
    # the 34 spaces of at most 3 points hold 391 pair kernels made of 294
    # distinct (n, key), the key being the selector-open plane and the
    # enlarger table: the filters
    # statements run once per such content in the whole sweep, the
    # structure and compactness statements once per content and the
    # selector readings they are keyed by
    cfg = SuiteConfig(n_exhaustive=3)
    runs = collections.Counter()
    for suite, name in (("structure", "classify_structure"), ("filters", "base_rows"),
                        ("compactness", "space_compactness_flags")):
        def counted(*args, real=getattr(harness, name), suite=suite):
            runs[suite] += 1
            return real(*args)
        monkeypatch.setattr(harness, name, counted)
    assert run_suites(cfg).ok
    kernels = [k for label, top in sweep_spaces(cfg) for k in set(_SpaceContext(label, top, cfg).kernels.values())]
    made_of = {(k.topology.n, k.key) for k in kernels}
    assert (len(set(kernels)), len(made_of)) == (391, 294)
    assert runs == {"structure": 317, "filters": 294, "compactness": 317}


def test_sweep_store_keeps_no_space_alive(monkeypatch):
    # the spaces of at most 3 points keep their pair runs on the sweep's
    # universe of their n, and a 5-point space keeps its own on a universe
    # of its own, each keyed by what the kernels are made of: once
    # the sweep returns, with the sweep's universes still held, every space
    # and pair kernel of it is gone, and every run key they keep is ints
    # and tuples
    universes, refs = {}, []
    real = _SpaceContext.__init__

    def spied(self, label, top, cfg, universe):
        real(self, label, top, cfg, universe)
        if universe:
            universes[self.n] = universe
        refs.append(weakref.ref(top))
        refs.extend(weakref.ref(k) for k in self.kernels.values())

    monkeypatch.setattr(_SpaceContext, "__init__", spied)
    assert run_suites(SuiteConfig(n_exhaustive=3, n_sampled=5, samples=1, seed=3)).ok
    gc.collect()
    assert len(refs) > 35 * 2 and all(ref() is None for ref in refs)
    assert sorted(universes) == [1, 2, 3]

    def plain(key):
        return isinstance(key, int) or type(key) is tuple and all(map(plain, key))

    firsts = [next(st for st in harness.STATEMENTS if st.suite == suite and st.reads == harness.PAIR)
              for suite in ("structure", "filters", "compactness")]
    for universe in universes.values():
        runs = universe.runs
        assert all(runs[st] for st in firsts)
        assert {type(key) for key in runs} == {harness.Statement, str}
        assert all(plain(key) for store in runs.values() for key in store)
        assert all(type(run) is harness.SuiteResult for st in firsts for run in runs[st].values())


def test_equal_kernels_under_different_universes_are_not_shared(monkeypatch):
    # one 5-point space swept under two labels quantifies two seeded
    # universes: each label runs its own filters pair statements on its own
    # bases, once per kernel, as a run is shared only between spaces that
    # read one universe
    top = random_topology(5, 3, 5)
    spaces = [("a", top), ("b", top)]
    cfg = SuiteConfig(n_exhaustive=0, suites=("filters",))
    seen = collections.Counter()
    real = harness.base_rows

    def spied(p, bases, table):
        seen[tuple(bases)] += 1
        return real(p, bases, table)

    monkeypatch.setattr(harness, "base_rows", spied)
    assert run_suites(cfg, spaces).ok
    contexts = [_SpaceContext(label, t, cfg) for label, t in spaces]
    draws = [tuple(ctx.universe.bases) for ctx in contexts]
    kernels = len(set(contexts[0].kernels.values()))
    assert draws[0] != draws[1] and seen == {draw: kernels for draw in draws}


class _Reads:
    """Forwards attribute reads to ``target`` and notes each in ``log`` by
    its dotted path; a path in ``through`` hands back a recorder of its
    own value, so the reads below it are noted instead."""

    def __init__(self, target, log, through, path=""):
        self._target, self._log, self._through, self._path = target, log, through, path

    def __getattr__(self, name):
        value, path = getattr(self._target, name), self._path + name
        if path in self._through:
            return _Reads(value, self._log, self._through, path + ".")
        self._log.add(path)
        return value


def test_pair_checks_read_the_space_only_through_what_their_key_fixes():
    # a clean run of a suite's PAIR statements is shared with its key
    # across the spaces that read one universe, which is sound only while
    # their hypotheses, sizes, gates and checks read the context through
    # n, the universe, the kernels and the readings the key names; the
    # labels serve record text alone, and maximal_filters reads n of the
    # space.  Each reading declared fixed that such a run reads, its
    # kernel key among them, reads no per-name table at all: on a fresh
    # run, n, the universe and the kernels alone, and of a kernel's space
    # only what its rows may read (test_source.SPACE_READS)
    allowed = {"n", "full", "universe", "kernels", "monotone", "dominates", "top.n", "top.ground.braced"}
    cfg = SuiteConfig()
    spaces = sweep_spaces(SuiteConfig(n_exhaustive=2)) + [("c", random_topology(3, 5, 3)),
                                                         ("d", random_topology(5, 3, 5))]
    statements = [st for st in harness.STATEMENTS if st.reads == harness.PAIR]
    stages = [[st for st in statements if st.suite == suite] for suite in SUITE_NAMES]
    fixed = {name for stage in stages if stage
             for name in (*harness._stage_key(stage), *(r for st in stage for r in st.names))
             if harness._READINGS[name].fixed}
    assert {"kernel", "regular", "nested", "meet_closed", "monotone_enlarger",
            "neighbourhood_variant_skipped"} <= fixed
    read, fixed_read = set(), collections.defaultdict(set)
    for label, top in spaces:
        ctx = _SpaceContext(label, top, cfg)
        recorder = _Reads(ctx, read, {"top", "top.ground"})
        out = harness.SuiteResult()
        for a, b in ctx.pair_names:
            run = harness._PairRun(recorder, a, b)
            for st in statements:
                harness._apply(out, recorder, st, (run,), (f"{a},{b}",))
            for name in fixed:
                alone = _Reads(ctx, fixed_read[name], {"top", "top.ground"})
                run = harness._PairRun(alone, a, b)
                # a fresh kernel of the same contents, its rows unbuilt,
                # whose space is read through the recorder too
                k = run.k
                run.k = PairKernel(_Reads(k.topology, fixed_read[name], (), "k.topology."),
                                   k.family, k.enlarger, k.key)
                harness._READINGS[name].of(alone, run)
        assert out.instances_checked and not out.failures
    assert {"n", "universe", "kernels", "monotone", "dominates", "top.ground.braced"} <= read <= allowed
    kernel_reads = {f"k.topology.{name}" for name in SPACE_READS}
    assert {name: names for name, names in fixed_read.items()
            if not names <= {"n", "full", "universe", "kernels", "top.n", *kernel_reads}} == {}
    assert "k.topology.plane_props" in fixed_read["meet_closed"] & fixed_read["regular"]


def test_pair_checks_read_only_the_readings_their_statements_name(monkeypatch):
    # a check reads a hypothesis by its name off the pair's run; each name
    # a PAIR statement reads so, on a fresh run, is one it declares, so no
    # reading the kernel does not fix escapes its stage's key.  A run
    # holds a kernel, which has no selector: the selector enters only
    # through the dominates and monotone readings of the context's tables.
    # So a run depends only on its kernel key, the readings it names and
    # its universe
    read = collections.defaultdict(set)
    current = []

    class Logged(dict):
        def __getitem__(self, name):
            read[current[-1]].add(name)
            return super().__getitem__(name)

    monkeypatch.setattr(harness, "_READINGS", Logged(harness._READINGS))
    cfg = SuiteConfig()
    spaces = sweep_spaces(SuiteConfig(n_exhaustive=2)) + [("c", random_topology(3, 5, 3)),
                                                         ("d", random_topology(5, 3, 5))]
    statements = [st for st in harness.STATEMENTS if st.reads in (harness.PAIR, harness.PAIRS)]
    for label, top in spaces:
        ctx = _SpaceContext(label, top, cfg)
        for st in statements:
            current.append(st)
            for a, b in ctx.pair_names:
                run = harness._PairRun(ctx, a, b)
                if st.reads == harness.PAIR:
                    harness._apply(harness.SuiteResult(), ctx, st, (run,), (f"{a},{b}",))
                for q in st.over(ctx, a, b) if st.over else ():
                    list(st.check(ctx, run, harness._PairRun(ctx, *q)))
    assert all(names <= set(st.names) for st, names in read.items())
    named = {st.texts[0]: names for st, names in read.items()}
    assert named["filter statements agree"] == {"dominates", "monotone"}
    assert named["space-level statements agree"] == {"dominates"}
    assert named["stable images land in both open families"] == {"nested", "dominates"}
    assert named["singleton cores decide finer convergence"] == {"regular"}


def test_pair_statements_are_declared_before_the_two_pair_statements():
    # a pair's PAIRS runs follow its PAIR run, so the records keep the
    # order of the declarations only if each suite declares its PAIR
    # statements first; the runner refuses a suite that does not
    for name in SUITE_NAMES:
        reads = [st.reads for st in harness.STATEMENTS
                 if st.suite == name and st.reads in (harness.PAIR, harness.PAIRS)]
        assert reads == sorted(reads, key=harness.PAIRS.__eq__), name
    compactness = [st for st in harness.STATEMENTS if st.suite == "compactness"]
    first, later = (next(st for st in compactness if st.reads == r) for r in (harness.PAIR, harness.PAIRS))
    cfg = SuiteConfig()
    ctx = _SpaceContext("s", sierpinski(), cfg)
    assert harness._run([first, later], ctx, cfg).instances_checked
    with pytest.raises(ValueError, match="declares a PAIRS statement before a PAIR one"):
        harness._run([later, first], ctx, cfg)


def test_shared_clean_runs_count_their_instances_and_notes_once_per_item():
    # a clean run is merged once with its instances and notes multiplied
    # by its uses; runs with failures are merged in item order, and every
    # other item of their key runs its own check.  The universe keeps the
    # clean runs of a statement over ambient families for a later space
    # that reads it, which runs none of their checks
    calls = []

    def check(ctx, name, key, row):
        calls.append(name)
        yield "regularity_unknown"
        if key == "bad":
            yield 0, "X", ""

    items = [("x", "k", 0), ("y", "bad", 0), ("z", "k", 0), ("w", "bad", 0), ("v", "k", 0)]
    st = harness.Statement("compactness_oracle", ("fails at bad",), harness.AMBIENT, check, size=2,
                           over=lambda ctx: items)
    cfg = SuiteConfig()
    ctx = _SpaceContext("s", sierpinski(), cfg)
    out = harness._run([st], ctx, cfg)
    assert calls == ["x", "y", "w"]
    assert (out.instances_checked, [f["pair"] for f in out.failures], out.notes) == (
        10, ["y", "w"], {"regularity_unknown": 5})
    assert list(ctx.universe.runs[st]) == [("k", 0)]
    items = [("u", "k", 0), ("t", "bad", 0)]
    again = harness._run([st], _SpaceContext("t", sierpinski(), cfg, ctx.universe), cfg)
    assert calls[3:] == ["t"]
    assert (again.instances_checked, [f["pair"] for f in again.failures], again.notes) == (
        4, ["t"], {"regularity_unknown": 2})


def test_notes_of_shared_runs_match_a_run_that_shares_nothing(monkeypatch):
    # the wide11 workload's spaces gate regularity on their big selector
    # families: the structure runs shared by several names note
    # regularity_unknown and the closure readings as often as one run per
    # name does
    cfg = SuiteConfig(n_exhaustive=0, n_sampled=11, samples=2, seed=0, suites=("structure",))
    spaces = sweep_spaces(cfg)
    runs = []
    real_classify = harness.classify_structure

    def counted(p):
        runs.append(p)
        return real_classify(p)

    monkeypatch.setattr(harness, "classify_structure", counted)
    shared = run_suites(cfg, spaces).suites["structure"]
    assert shared.notes["regularity_unknown"] and shared.notes["cl_reading_both"]
    assert len(runs) < 2 * len(CATALOG_PAIRS)
    monkeypatch.setattr(harness, "_run_keys", lambda ctx, key, items: [(ctx.label, item) for item in items])
    alone = run_suites(cfg, spaces).suites["structure"]
    assert (shared.instances_checked, shared.notes) == (alone.instances_checked, alone.notes)


def test_context_order_is_leq():
    cfg = SuiteConfig(pairs=("int,cl",))
    spaces = [t for n in (1, 2, 3) for t in enumerate_topologies(n)]
    spaces += [random_topology(6, seed, 6) for seed in range(3)]
    for i, top in enumerate(spaces):
        ctx = _SpaceContext(f"s{i}", top, cfg)
        assert set(ctx.order) == {(a, b) for a in BUILTIN_NAMES for b in BUILTIN_NAMES}
        for (a, b), verdict in ctx.order.items():
            assert verdict == leq(ctx.ops[a], ctx.ops[b])


def test_mine_inclusion_without_order():
    found = mine_counterexamples("inclusion_without_order", n_max=2)
    assert found == mine_counterexamples("inclusion_without_order", n_max=2)
    assert {
        "space": "n=2#1", "opens": [[], ["a"], ["a", "b"]],
        "first": "cloint", "second": "sint",
    } in found


def test_mine_nonregular_pair():
    found = mine_counterexamples("nonregular_pair", n_max=3)
    assert found == mine_counterexamples("nonregular_pair", n_max=3)
    documented = [
        w for w in found
        if w["operation"] == "identity" and w["family"] == [["a", "b"], ["b", "c"], ["a", "b", "c"]]
    ]
    assert documented


def test_mine_transfer_strictness():
    found = mine_counterexamples("transfer_strictness", n_max=2)
    assert found == mine_counterexamples("transfer_strictness", n_max=2)
    # growing the enlarger from interior to closure strictly widens the class
    assert any(
        w["from_pair"] == "identity,int" and w["to_pair"] == "identity,cl" for w in found
    )


def test_mine_nonadditive_enlarger():
    found = mine_counterexamples("nonadditive_enlarger", n_max=2)
    assert any(w["pair"] == "identity,int" for w in found)
    # two isolated points make the interior of the closure miss the union
    bigger = mine_counterexamples("nonadditive_enlarger", n_max=3)
    assert {
        "space": "n=3#6", "opens": [[], ["a"], ["b"], ["a", "b"], ["a", "b", "c"]],
        "pair": "identity,introcl", "u": ["a"], "v": ["b"],
    } in bigger


MINED_DIGESTS = {
    "inclusion_without_order": "f460f3a35afd6334ac38df30530d7ad24ace51ca595473faee7bd39b1fee9a8d",
    "nonregular_pair": "f0e6b4ae900b3235479f3529fa7fa22b1a2ffea1125caf0464e0673b0d8a348b",
    "transfer_strictness": "b3b353ade83ba0bbd815bbd0b42bfd942e50d3c1a2ff077e63c9a367de014493",
    "nonadditive_enlarger": "208204256598ea966ef8d3e0bf6be23ee9fdff1924bea260e2abe3e386ea9042",
}


@pytest.mark.parametrize("target", MINE_TARGETS)
def test_mined_witness_lists_match_pinned_digests(target):
    # sha256 of the JSONL witness list `topolab mine --n-max 3` prints,
    # over every space of at most three points
    text = "".join(json.dumps(w) + "\n" for w in mine_counterexamples(target, n_max=3))
    assert hashlib.sha256(text.encode()).hexdigest() == MINED_DIGESTS[target]


def test_mine_unknown_target():
    with pytest.raises(SchemaError):
        mine_counterexamples("bogus")


def test_catalog_pairs_cover_the_named_classes():
    for spec in ("int,cl", "int,introcl", "cloint,scl", "cloint,cl", "int,identity"):
        assert spec in CATALOG_PAIRS
    assert MINE_TARGETS == (
        "inclusion_without_order", "nonregular_pair",
        "transfer_strictness", "nonadditive_enlarger",
    )


# Checks that became rows of oracles.ROUTES, kept under their names.
test_enlargers_agree_matches_the_image_scan = route_check("partners")
test_filter_rows_match_literal_rules = route_check("principal_sets")
test_pair_topology_closure_matches_the_member_union = route_check("pair_topology_closure")
test_universes_quantify_every_filterbase_up_to_four_points = route_check("quantified_bases")
