import pytest

from topolab import SchemaError, SuiteConfig, mine_counterexamples, run_suites, sweep_spaces
from topolab.harness import CATALOG_PAIRS, MINE_TARGETS, SUITE_NAMES


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
