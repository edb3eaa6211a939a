#!/usr/bin/env python3
"""The sweep harness and the counterexample miners.

run_suites drives every property over every enumerated space up to a
size, plus seeded random spaces above it; the report is deterministic
byte for byte from run to run.  The miners search the
same universe for witnesses: phenomena that hold nowhere would be
suspicious, and phenomena that hold somewhere deserve an exhibit.
"""

import json

from topolab import SuiteConfig, mine_counterexamples, run_suites

# --- a small but complete sweep ------------------------------------------------
cfg = SuiteConfig(n_exhaustive=2, n_sampled=5, samples=2, seed=7)
report = run_suites(cfg)
print("sweep clean:", report.ok)
for name, result in report.suites.items():
    print(f"  {name:20s} {result.instances_checked:6d} instances,"
          f" {len(result.failures)} failures")
print("report notes:", {k: dict(v.notes) for k, v in report.suites.items() if v.notes})

# determinism: same config, same bytes
assert report.to_json() == run_suites(cfg).to_json()
print("same config reproduces the same report byte for byte")

# --- mining: inclusion without order --------------------------------------------
# the pointwise order between operations forces inclusion of their open
# families; these witnesses show the converse direction genuinely fails
found = mine_counterexamples("inclusion_without_order", n_max=2)
print(f"\ninclusion-without-order witnesses on two points: {len(found)}")
print(json.dumps(found[1]))

# --- mining: a family no operation can be regular against ------------------------
found = mine_counterexamples("nonregular_pair", n_max=3)
doc = next(
    w for w in found
    if w["operation"] == "identity"
    and w["family"] == [["a", "b"], ["b", "c"], ["a", "b", "c"]]
)
print("\nregularity failure for the identity against {ab, bc, X}:")
print(json.dumps(doc))

# --- mining: strictly growing compact classes ------------------------------------
found = mine_counterexamples("transfer_strictness", n_max=2)
print(f"\nstrict compact-class growths on two points: {len(found)}")
print(json.dumps(next(
    w for w in found
    if w["from_pair"] == "identity,int" and w["to_pair"] == "identity,cl"
)))

# --- mining: enlargers that break union additivity --------------------------------
found = mine_counterexamples("nonadditive_enlarger", n_max=2)
print(f"\nnon-additive enlarger witnesses on two points: {len(found)}")
print(json.dumps(found[0]))
