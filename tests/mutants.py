"""Seeded faults in the library, each of which named checks must catch.

    python3 tests/mutants.py

Each mutant is copied with ``src/``, ``tests/``, ``pyproject.toml`` and
the report pins ``bench/expected.json`` (read-only) to a fresh temporary
directory (whose ``pythonpath = ["src"]`` then loads the mutated
``src``); its old text must occur exactly once in its file and is
replaced by the new text, and each check it names, a row of
``oracles.ROUTES`` (run by the test whose ``route_check`` names it) or a
pytest node id, must fail there.  The unmutated copy must pass them all
first, or the ids of the tests it fails are printed.  Exits non-zero on
any survivor.  Standard library only; tier 1 does not collect this file.
"""

import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    file: str  # under src/topolab
    old: str
    new: str
    checks: tuple


#: returns whether each enl[u] is the OR of enl[j] over the union-irreducible j inside u
ZETA = """    irreducibles = _union_irreducibles(k.topology, fam)
    return all(enl[u] == [*accumulate((enl[j] for j in irreducibles if j & ~u == 0), or_, initial=0)][-1]
               for u in fam)
    for j in _union_irreducibles(k.topology, fam):
"""

MUTANTS = (
    Mutant("image_groups drops its last group", "pairs.py",
           "return pair_rows(groups, groups.values(), k.topology.n)",
           "return pair_rows(tuple(groups)[:-1], tuple(groups.values())[:-1], k.topology.n)",
           ("interior_walk", "enlargement_base", "closure_pointwise", "closure_by_points")),
    Mutant("pair rows yield (u, t)", "bits.py",
           "return zip(self.first, self.second)", "return zip(self.second, self.first)",
           ("enlargement_base", "closure_by_points",
            "tests/test_pairs.py::test_compact_rows_are_read_only_and_match_the_tuple_route")),
    Mutant("the table view is cast one lane too narrow", "bits.py",
           'memoryview(lanes.to_bytes(lane << n, "little")).cast(code)',
           'memoryview(lanes.to_bytes(lane << n, "little")).cast(_PACK_CODE[lane >> 1])',
           ("interior_walk", "tests/test_bits.py::test_lanes_round_trip_and_transform_like_the_table",
            "tests/test_pairs.py::test_compact_rows_are_read_only_and_match_the_tuple_route")),
    Mutant("nbhd_plane takes its meet from the envelopes", "filters.py",
           "    meet = plane_meet(plane, n)\n", "    meet = envelopes(k)[point]\n", ("nbhd_bases",)),
    Mutant("spread_rows assigns instead of ORing", "filters.py",
           "out[low.bit_length() - 1] |= flags", "out[low.bit_length() - 1] = flags",
           ("base_limits", "base_adherence")),
    Mutant("base_rows reads has[t] for has[full ^ t]", "filters.py",
           "missed = has[full ^ t]", "missed = has[t]", ("base_adherence",)),
    Mutant("base_rows keeps the trapping bases as missed", "filters.py",
           "missed = everyone ^ has[t]", "missed = everyone & has[t]", ("base_limits",)),
    Mutant("down_plane seeds only a row's first member", "bits.py",
           "    for m in family:\n        plane |=", "    for m in list(family)[:1]:\n        plane |=",
           ("failing_planes", "complement_statements")),
    Mutant("_closed_meets reads the set's own points instead of its dual", "compact.py",
           "zip(closed, map(dual_enl.__getitem__, closed))", "zip(closed, closed)", ("avoidance_row",)),
    Mutant("_additive_scan checks the zeta form", "compact.py",
           "    for j in _union_irreducibles(k.topology, fam):\n", ZETA, ("additive_hypothesis",)),
    Mutant("_residue_row drops the largest residue", "compact.py",
           "for t, _ in image_groups(k)) if r]", "for t, _ in image_groups(k))[:-1] if r]",
           ("complement_statements", "space_flags")),
    Mutant("a cover kind's row reads the neighbouring lane", "compact.py",
           "(inner[full ^ (1 << x)],)", "(inner[(full ^ (1 << x)) - 1],)", ("cover_kinds",)),
    Mutant("a cover kind's row keeps the low byte of each lane", "compact.py",
           "(inner[full ^ (1 << x)],)", "(inner[full ^ (1 << x)] & 255,)", ("cover_kinds",)),
    Mutant("_minimal_cover forgets the kept prefix", "compact.py",
           "if a & ~(below[i] | above):", "if a & ~above:", ("minimal_cover", "witness_covers")),
    Mutant("zero_lanes skips the byte fold", "bits.py",
           "lanes |= lanes >> step", "lanes |= 0", ("pair_open_family", "op_open_family", "zero_plane")),
    Mutant("zero_plane reads its digits low-first", "bits.py",
           ".translate(_ZERO_DIGIT)[::-1], 2)", ".translate(_ZERO_DIGIT), 2)", ("zero_plane",)),
    Mutant("plane_props swaps its verdicts", "bits.py",
           "return close_unions(comp, n) == comp, close_unions(plane, n) == plane",
           "return close_unions(plane, n) == plane, close_unions(comp, n) == comp", ("plane_props", "family_props")),
    Mutant("op_open_plane reads the fixed points", "ops.py",
           "return zero_plane(ident & ~op_lanes(op)[0]", "return zero_plane(ident ^ op_lanes(op)[0]",
           ("op_open_plane",)),
    Mutant("op_shrink_plane reads the grown sets", "ops.py",
           "return zero_plane(op_lanes(op)[0] & ~ident", "return zero_plane(ident & ~op_lanes(op)[0]",
           ("op_shrink_plane",)),
    Mutant("pair_open_plane reads the fixed points", "pairs.py",
           "return zero_plane(ident & ~int_lanes(k)[0]", "return zero_plane(ident ^ int_lanes(k)[0]",
           ("pair_open_plane",)),
    Mutant("image_stable reads the enlarger-open plane", "pairs.py",
           "base_plane & ~op_shrink_plane(enl) == 0", "base_plane & ~op_open_plane(enl) == 0",
           ("kernel_flags", "base_report")),
    Mutant("row_planes' closing row holds a point", "bits.py",
           "table.append(((1 << n) - 1) << n)", "table.append(((1 << n) - 1) << n | 1)",
           ("tests/test_bits.py::test_row_planes_transpose_the_rows",)),
    Mutant("the lane test drops its AND-NOT", "ops.py",
           "if topology.int_lanes()[0] & ~lanes[0] == 0:", "if True:", ("table_violation",)),
    Mutant("the lane test drops its range check", "ops.py",
           "if max(table) == full and min(table) >= 0:", "if max(table) == full:", ("table_violation",)),
    Mutant("pair_closure_by_points keeps one hit plane", "pairs.py",
           "meeting |= hit[y]", "meeting = hit[y]", ("closure_by_points",)),
    Mutant("regular_scan ignores the point", "pairs.py",
           "groups.get(m, 0) >> x & 1 for x, m in enumerate(envelopes(k))",
           "groups.get(m, 0) for x, m in enumerate(envelopes(k))", ("regularity",)),
    Mutant("RO read as inside its measure", "pairs.py",
           "return fixed([inner[c] for c in cl])", "return within(pack_lanes([inner[c] for c in cl])[0])",
           ("named_families",)),
    Mutant("a wrong semi-closure measure", "pairs.py",
           "measure = [u | inner[cl[u]] for u in so]", "measure = [u | cl[u] for u in so]",
           ("named_families",)),
    Mutant("miscounted fixed points", "pairs.py",
           "equal_ok = fixed.bit_count() == plane.bit_count()", "equal_ok = fixed.bit_count() >= plane.bit_count() - 1",
           ("pair_open_family", "structure")),
    Mutant("family_nested reads the planes the wrong way round", "pairs.py",
           "family_nested=selector_plane & ~op_open_plane(enl) == 0",
           "family_nested=op_open_plane(enl) & ~selector_plane == 0", ("kernel_flags",)),
    Mutant("the kernel key drops the enlarger table", "pairs.py",
           "key = (op_open_plane(selector), op_lanes(enlarger)[0])", "key = (op_open_plane(selector), 0)",
           ("tests/test_harness.py::test_sharing_changes_no_report",)),
    Mutant("the kernel key drops the selector plane", "pairs.py",
           "key = (op_open_plane(selector), op_lanes(enlarger)[0])", "key = (0, op_lanes(enlarger)[0])",
           ("tests/test_harness.py::test_exhaustive_report_matches_pinned_digest",)),
    Mutant("a principal row forgets the cores it computed", "filters.py",
           "got = self[core] = self._of(core)", "got = self._of(core)", ("principal_sets",)),
    Mutant("refined_core leaves out the envelope", "filters.py",
           "meet = core & envelopes(k)[point]", "meet = core", ("refined_core", "finer_convergent")),
    Mutant("is_t2 asks for the point itself", "filters.py",
           "not any((full ^ 1 << x) & m for", "not any(full & m for", ("t2",)),
    Mutant("_point_limits returns the envelopes untransposed", "filters.py",
           "return tuple(mask_of(x for x in range(n) if env[x] >> i & 1) for i in range(n))",
           "return tuple(env)", ("avoidance_row", "ultra_plane")),
    Mutant("a space keeps its meets reversed", "space.py",
           "min_nbhds.__wrapped__] = meets\n", "min_nbhds.__wrapped__] = meets[::-1]\n", ("min_nbhds",)),
    Mutant("byte tables joined high-first", "space.py",
           "(low[m & 255], high[(m & full) >> 8])", "(high[(m & full) >> 8], low[m & 255])",
           ("tests/test_space.py::test_braced_matches_the_literal_label_join",)),
    Mutant("a failing run is shared with its twins", "harness.py",
           "            if alone or run.failures or key in failed:\n", "            if alone or key in failed:\n",
           ("tests/test_harness.py::test_shared_clean_runs_count_their_instances_and_notes_once_per_item",)),
    Mutant("a clean run is counted once, not once per name", "harness.py",
           "out.instances_checked += run.instances_checked * count", "out.instances_checked += run.instances_checked",
           ("tests/test_harness.py::test_notes_of_shared_runs_match_a_run_that_shares_nothing",)),
    Mutant("a two-pair verdict is keyed by one kernel only", "harness.py",
           'key=("agreement",), over=lambda ctx, a, b: ctx.agreeing(a, b)),',
           'key=("kernel",), over=lambda ctx, a, b: ctx.agreeing(a, b)),',
           ("tests/test_harness.py::test_sharing_changes_no_report",)),
    Mutant("the dominating-enlarger statement drops its dominance hypothesis", "harness.py",
           'hyp=("regular", "dominates")', 'hyp=("regular",)',
           ("tests/test_harness.py::test_four_point_report_matches_pinned_digest",)),
    Mutant("the oracle's verdicts are kept past their universe, for the process", "harness.py",
           'literal = ctx.universe.runs.setdefault("literal", {})',
           'literal = _oracle_agrees.__dict__.setdefault("literal", {})',
           ("tests/test_harness.py::test_oracle_runs_are_not_shared_across_quantified_subsets",)),
    Mutant("a space above EXHAUSTIVE_POINTS reads the sweep's universe", "harness.py",
           "for n in range(EXHAUSTIVE_POINTS + 1)}", "for n in range(17)}",
           ("tests/test_harness.py::test_equal_kernels_under_different_universes_are_not_shared",)),
    Mutant("the universe seeds filterbases from 4 points", "harness.py",
           "if self.n <= EXHAUSTIVE_POINTS:\n            return tuple(filter(is_filterbase",
           "if self.n < EXHAUSTIVE_POINTS:\n            return tuple(filter(is_filterbase", ("quantified_bases",)),
    Mutant("the pair topology's closure reads the set's own down-set", "harness.py",
           "(plane & down_plane((full ^ s,), n))", "(plane & down_plane((s,), n))", ("pair_topology_closure",)),
    Mutant("leftover arguments not reported", "cli.py",
           "    if extra:\n        parser.error", "    if not extra:\n        parser.error",
           ("tests/test_cli.py::test_dispatch_keeps_the_two_pass_output",)),
)


def copy_tree(dest: Path) -> None:
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")
    pins = dest / "bench" / "expected.json"
    pins.parent.mkdir()
    shutil.copy2(ROOT / "bench" / "expected.json", pins)
    pins.chmod(0o444)


def node_id(check: str) -> str:
    """``check`` if it is a pytest node id, else the test that runs the row."""
    for path in [] if "::" in check else sorted((ROOT / "tests").glob("test_*.py")):
        for test, rows in re.findall(r"^(\w+) = route_check\((.*)\)$", path.read_text(encoding="utf-8"), re.M):
            if f'"{check}"' in rows:
                return f"tests/{path.name}::{test}"
    return check


def run_checks(tree: Path, checks, first: bool = True) -> tuple[int, list[str]]:
    """pytest's exit code for the checks in ``tree`` (0 if all pass, 1 if
    one fails) and the ids of the tests that failed, stopping at the first
    if ``first``."""
    ids = sorted(set(map(node_id, checks)))
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    cmd = [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider", *["-x"] * first, *ids]
    done = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)
    failed = re.findall(r"^(?:FAILED|ERROR) (\S+)", done.stdout, re.M)
    return done.returncode, failed


def outcome(m: Mutant) -> str:
    """"killed" if the edit applies once and every named check fails."""
    path = Path("src/topolab", m.file)
    text = (ROOT / path).read_text(encoding="utf-8")
    if text.count(m.old) != 1:
        return f"NOT APPLIED: the old text occurs {text.count(m.old)} times"
    with tempfile.TemporaryDirectory() as tmp:
        copy_tree(Path(tmp))
        (Path(tmp) / path).write_text(text.replace(m.old, m.new), encoding="utf-8")
        missed = [check for check in dict.fromkeys(map(node_id, m.checks))
                  if run_checks(Path(tmp), (check,))[0] != 1]
    return f"SURVIVED {', '.join(missed)}" if missed else "killed"


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        copy_tree(Path(tmp))
        code, failed = run_checks(Path(tmp), {c for m in MUTANTS for c in m.checks}, first=False)
    if code != 0:
        print(f"the unmutated tree fails the checks (pytest exit {code}):", *failed, sep="\n  ")
        return 1
    bad = 0
    for m in MUTANTS:
        result = outcome(m)
        bad += result != "killed"
        print(f"{result}  {m.name}  [{', '.join(m.checks)}]", flush=True)
    print(f"{len(MUTANTS) - bad} of {len(MUTANTS)} mutants killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
