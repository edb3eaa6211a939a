"""End-to-end acceptance run.

Each test covers one acceptance criterion, prints a PASS/FAIL line for
it, and enforces the stated budget where one exists.  Run with ``-s`` to
see the lines as they happen.
"""

import hashlib
import json
import pathlib
import time

from topolab import (
    OpPair,
    SuiteConfig,
    catalog,
    enumerate_topologies,
    mine_counterexamples,
    named_family,
    named_set_class,
    pair_open_family,
    random_topology,
    run_suites,
)

from oracles import count_preorders, literal_topologies

EXPECTED_COUNTS = (1, 1, 4, 29, 355)


def _report(num: int, name: str, ok: bool, detail: str = ""):
    line = f"{'PASS' if ok else 'FAIL'} criterion {num}: {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_enumeration_counts():
    # the enumerator builds each space from a preorder, so the preorder
    # count alone is no independent check: the literal filter over every
    # subset family must also give the same spaces in the same order
    t0 = time.time()
    spaces = [[t.opens for t in enumerate_topologies(n)] for n in range(5)]
    counts = tuple(len(opens) for opens in spaces)
    oracle = tuple(count_preorders(n) for n in range(5))
    literal = spaces == [literal_topologies(n) for n in range(5)]
    elapsed = time.time() - t0
    ok = counts == EXPECTED_COUNTS == oracle and literal and elapsed < 10.0
    _report(1, "topology enumeration matches the preorder and family-filter oracles", ok,
            f"counts={counts}, oracle={oracle}, same sequence={literal}, {elapsed:.1f}s")


def test_criterion_2_structure_theorems():
    t0 = time.time()
    cfg = SuiteConfig(n_exhaustive=3, suites=("structure",))
    report = run_suites(cfg)
    elapsed = time.time() - t0
    res = report.suites["structure"]
    ok = not res.failures and elapsed < 60.0
    _report(2, "structure ladder holds over 34 spaces x 49 pairs", ok,
            f"{res.instances_checked} instances, {len(res.failures)} failures, {elapsed:.1f}s")


def test_criterion_3_family_identities():
    identities = (
        ("int", "cl", "tau_theta"),
        ("cloint", "scl", "SthetaO"),
        ("int", "introcl", "tau_s"),
        ("cloint", "cl", "thetaSO"),
    )
    spaces = [t for n in (1, 2, 3) for t in enumerate_topologies(n)]
    spaces += [random_topology(6, seed, 6) for seed in range(100)]
    mismatches = 0
    for top in spaces:
        ops = catalog(top)
        for a, b, fam in identities:
            if pair_open_family(OpPair(ops[a], ops[b])) != named_family(top, fam):
                mismatches += 1
    _report(3, "pair families equal their independent constructions", mismatches == 0,
            f"{len(spaces)} spaces, {mismatches} mismatches")


def test_criterion_4_filter_suite():
    t0 = time.time()
    cfg = SuiteConfig(n_exhaustive=3, suites=("filters",))
    report = run_suites(cfg)
    elapsed = time.time() - t0
    res = report.suites["filters"]
    ok = not res.failures and elapsed < 120.0
    _report(4, "filter convergence battery holds over all cores and bases", ok,
            f"{res.instances_checked} instances, {len(res.failures)} failures, {elapsed:.1f}s")


def test_criterion_5_compactness_oracle():
    # every space up to 4 points, every ambient family walked whole
    cfg = SuiteConfig(n_exhaustive=4, suites=("compactness_oracle",))
    report = run_suites(cfg)
    res = report.suites["compactness_oracle"]
    _report(5, "fast compactness criterion agrees with the literal oracle",
            not res.failures and res.instances_checked == 301_700,
            f"{res.instances_checked} instances, {len(res.failures)} disagreements")


def test_criterion_6_equivalence_suites():
    cfg = SuiteConfig(n_exhaustive=3, suites=("compactness",))
    report = run_suites(cfg)
    res = report.suites["compactness"]
    _report(6, "compactness equivalence records agree under their hypotheses",
            not res.failures,
            f"{res.instances_checked} instances, {len(res.failures)} failures")


def test_criterion_7_implication_chain():
    checked = violations = 0
    for n in range(5):
        for top in enumerate_topologies(n):
            for a in top.subsets():
                n_cls = named_set_class(top, a, "N")
                h_cls = named_set_class(top, a, "H")
                s_cls = named_set_class(top, a, "s")
                big_s = named_set_class(top, a, "S")
                if (n_cls and not h_cls) or (s_cls and not big_s) or (big_s and not h_cls):
                    violations += 1
                checked += 1
    _report(7, "named class implications hold on every space up to 4 points",
            violations == 0, f"{checked} instances, {violations} violations")


def test_criterion_8_mined_witnesses():
    incl = mine_counterexamples("inclusion_without_order", n_max=2)
    incl_again = mine_counterexamples("inclusion_without_order", n_max=2)
    sierpinski_witness = {
        "space": "n=2#1", "opens": [[], ["a"], ["a", "b"]],
        "first": "cloint", "second": "sint",
    }
    nonreg = mine_counterexamples("nonregular_pair", n_max=3)
    nonreg_again = mine_counterexamples("nonregular_pair", n_max=3)
    documented = any(
        w["operation"] == "identity"
        and w["family"] == [["a", "b"], ["b", "c"], ["a", "b", "c"]]
        for w in nonreg
    )
    ok = (
        sierpinski_witness in incl
        and incl == incl_again
        and documented
        and nonreg == nonreg_again
    )
    _report(8, "miners find the documented witnesses deterministically", ok,
            f"{len(incl)} order-gap witnesses, {len(nonreg)} regularity witnesses")


def test_criterion_9_deterministic_reports():
    cfg = SuiteConfig(n_exhaustive=2, n_sampled=6, samples=2, seed=31)
    first = run_suites(cfg).to_json()
    second = run_suites(cfg).to_json()
    # the benchmark's sampled6 workload runs this config and pins the
    # sha256 of the report without its environment block
    pins = pathlib.Path(__file__).resolve().parent.parent / "bench" / "expected.json"
    pinned = json.loads(pins.read_text())["sampled6"]["digest"]
    data = json.loads(first)
    del data["environment"]
    digest = hashlib.sha256(json.dumps(data, sort_keys=True, separators=(",", ":")).encode()).hexdigest()
    ok = first == second and digest == pinned
    _report(9, "reports are byte-identical across runs and match the pinned digest", ok,
            f"{len(first)} bytes, sha256 {digest[:12]}")
