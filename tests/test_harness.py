import gc
import hashlib
import json
import pathlib
import weakref

import pytest

from topolab import (
    BUILTIN_NAMES,
    Filter,
    SchemaError,
    SuiteConfig,
    adherence_set,
    enumerate_topologies,
    leq,
    limit_set,
    mine_counterexamples,
    random_topology,
    run_suites,
    sweep_spaces,
)
from topolab import harness
from topolab.harness import CATALOG_PAIRS, MINE_TARGETS, SUITE_NAMES, _SpaceContext

from oracles import pointwise_pair_closure

PINS = pathlib.Path(__file__).resolve().parent.parent / "bench" / "expected.json"


def _report_digest(cfg: SuiteConfig) -> str:
    """sha256 of the report without its environment block, as pinned in
    the benchmark's expected.json."""
    data = run_suites(cfg).to_dict()
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


def test_config_from_dict():
    cfg = SuiteConfig.from_dict({"n_exhaustive": 2, "pairs": ["int,cl"], "suites": ["families"]})
    assert cfg.pairs == ("int,cl",) and cfg.suites == ("families",)
    with pytest.raises(SchemaError, match="unknown config"):
        SuiteConfig.from_dict({"bogus": 1})
    with pytest.raises(SchemaError, match="integer"):
        SuiteConfig.from_dict({"seed": "x"})
    with pytest.raises(SchemaError, match="list of strings"):
        SuiteConfig.from_dict({"pairs": "int,cl"})
    with pytest.raises(SchemaError, match="object"):
        SuiteConfig.from_dict([1])


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
    # and pins the sha256 of the report without its environment block
    cfg = SuiteConfig(n_exhaustive=0, n_sampled=11, samples=2, seed=0,
                      suites=("operations", "structure", "families"))
    assert _report_digest(cfg) == json.loads(PINS.read_text())["wide11"]["digest"]


def test_exhaustive_report_matches_pinned_digest():
    # the benchmark's exhaustive3 workload: every space of at most three
    # points, all suites and pairs; the only sweep that reaches the n <= 3
    # branches of the filters suite
    cfg = SuiteConfig(n_exhaustive=3, seed=0)
    assert _report_digest(cfg) == json.loads(PINS.read_text())["exhaustive3"]["digest"]


def test_filter_rows_match_literal_rules():
    # every core of every space of at most 3 points and of seeded 4-6-point
    # spaces, all 49 pairs; above four points most cores sit off the
    # quantified rows and are filled on first read
    spaces = [t for n in (1, 2, 3) for t in enumerate_topologies(n)]
    spaces += [random_topology(n, seed, n) for n, seed in ((4, 41), (5, 42), (6, 43))]
    for i, top in enumerate(spaces):
        n = top.n
        ctx = _SpaceContext(f"s{i}", top, SuiteConfig())
        for key, p in ctx.pairs.items():
            enl = p.enlarger.table
            lim_row, adh_row = ctx.filter_rows(key)
            assert set(ctx.cores()) <= set(lim_row) and set(ctx.cores()) <= set(adh_row)
            for core in range(1, 1 << n):
                literal = sum(
                    1 << x for x in range(n)
                    if all(core & ~enl[u] == 0 for u in p.selector_at(x))
                )
                f = Filter(n, core)
                assert lim_row[core] == limit_set(f, p) == literal, (i, key, core)
                assert adh_row[core] == adherence_set(f, p) == pointwise_pair_closure(p, core), (i, key, core)


def test_refinement_construction_runs_on_multipoint_cores(monkeypatch):
    # a broken construction must be reported on cores of several points
    # above three points, not only on singletons
    def broken(f, p, point):
        raise RuntimeError("refined filter failed its contract")

    monkeypatch.setattr(harness, "finer_convergent", broken)
    cfg = SuiteConfig(n_exhaustive=0, n_sampled=5, samples=1,
                      pairs=("int,cl", "int,identity"), suites=("filters",))
    failures = run_suites(cfg).suites["filters"].failures
    cores = {f["subject"] for f in failures if f["statement"] == "refinement construction converges"}
    assert any("," in core for core in cores), cores


def test_separation_and_neighbourhood_bases_run_on_twelve_points(monkeypatch):
    # 4096 selector-open sets: separation and both neighbourhood bases are
    # checked at every point, with no cost gate in the way
    variants = []
    real = harness.nbhd_filterbase

    def counted(p, point, variant):
        variants.append(variant)
        return real(p, point, variant)

    monkeypatch.setattr(harness, "nbhd_filterbase", counted)
    cfg = SuiteConfig(n_exhaustive=0, n_sampled=12, pairs=("identity,identity",), suites=("filters",))
    result = run_suites(cfg, spaces=[("n=12", random_topology(12, 0, 12))]).suites["filters"]
    assert not result.failures
    assert "separation_scan_skipped" not in result.notes
    assert sorted(variants) == ["enlarged"] * 12 + ["plain"] * 12


def test_swept_space_is_collectable():
    # nothing process-wide may keep a swept space alive: the named-class
    # pairs, the filter rows and every other table die with the space
    top = random_topology(3, 7, 3)
    ref = weakref.ref(top)
    run_suites(SuiteConfig(n_exhaustive=0, pairs=("int,cl", "cloint,scl")), spaces=[("s", top)])
    del top
    gc.collect()
    assert ref() is None


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
