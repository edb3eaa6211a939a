"""Command line front end.

Exit codes: 0 clean, 1 property failure, 2 usage or schema error.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from .compact import CompactnessVerdict, brute_force_compact, is_compact, CoverSystem
from .filters import Filter, adherence_set, limit_set
from .harness import (
    MINE_TARGETS,
    SuiteConfig,
    mine_counterexamples,
    run_suites,
)
from .jsonio import SchemaError, dumps_space, parse_operation, parse_space
from .ops import BUILTIN_NAMES, Operation, builtin, op_open_family
from .pairs import OpPair, classify_structure, enlargement_base, pair_closed_family, pair_open_family
from .space import Topology, enumerate_topologies


def _operation(top: Topology, spec: str) -> Operation:
    if spec.startswith("custom:"):
        return parse_operation(spec[len("custom:"):], top)
    if spec in BUILTIN_NAMES:
        return builtin(top, spec)
    raise SchemaError(
        f"unknown operation {spec!r}; use one of {BUILTIN_NAMES} or custom:<file>"
    )


def _pair(top: Topology, spec: str) -> OpPair:
    first, sep, second = spec.partition(",")
    if not sep:
        raise SchemaError("pair must be written as <first>,<second>")
    return OpPair(_operation(top, first), _operation(top, second))


def _point_set(top: Topology, spec: str) -> int:
    if spec == "":
        return 0
    try:
        return top.ground.mask_of_labels(spec.split(","))
    except KeyError as exc:
        raise SchemaError(exc.args[0]) from None


def _fmt(top: Topology, mask: int) -> str:
    return "{" + ",".join(top.ground.labels_of_mask(mask)) + "}"


def _fmt_family(top: Topology, family) -> str:
    return " ".join(_fmt(top, m) for m in family)


def _cmd_enumerate(args) -> int:
    if not 0 <= args.n <= 4:
        raise SchemaError("exhaustive enumeration is capped at n = 4; use random_topology")
    lines = [dumps_space(top) for top in enumerate_topologies(args.n)]
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_check(args) -> int:
    with open(args.config, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"invalid config JSON: {exc}") from None
    cfg = SuiteConfig.from_dict(data)
    spaces = None
    if args.space:
        spaces = [(f"file:{args.space}", parse_space(args.space))]
    report = run_suites(cfg, spaces=spaces)
    text = report.to_json()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0 if report.ok else 1


def _cmd_families(args) -> int:
    top = parse_space(args.space)
    p = _pair(top, args.pair)
    rep = classify_structure(p)
    print(f"space: {len(top.opens)} opens on {top.n} points")
    print(f"selector-open ({p.selector.name}):", _fmt_family(top, op_open_family(p.selector)))
    print(f"enlarger-open ({p.enlarger.name}):", _fmt_family(top, op_open_family(p.enlarger)))
    print("pair-open:", _fmt_family(top, pair_open_family(p)))
    print("pair-closed:", _fmt_family(top, pair_closed_family(p)))
    print("enlargement base:", _fmt_family(top, enlargement_base(p)))
    print(
        "structure:"
        f" supratopology={str(rep.is_supratopology).lower()}"
        f" topology={str(rep.is_topology).lower()}"
        f" closed_iff_cl_subset={str(rep.closed_iff_cl_subset).lower()}"
        f" closed_iff_cl_equal={str(rep.closed_iff_cl_equal).lower()}"
        f" kuratowski={str(rep.is_kuratowski).lower()}"
    )
    return 0


def _cmd_filter(args) -> int:
    top = parse_space(args.space)
    p = _pair(top, args.pair)
    core = _point_set(top, args.core)
    if core == 0:
        raise SchemaError("the filter core must name at least one point")
    f = Filter(top.n, core)
    lim = limit_set(f, p)
    adh = adherence_set(f, p)
    print("core:", _fmt(top, core))
    print("limit_set:", _fmt(top, lim))
    print("adherence_set:", _fmt(top, adh))
    if args.report:
        for x in range(top.n):
            print(
                f"  {top.ground.labels[x]}:"
                f" converges={str(bool(lim >> x & 1)).lower()}"
                f" accumulates={str(bool(adh >> x & 1)).lower()}"
            )
    return 0


def _cmd_compact(args) -> int:
    top = parse_space(args.space)
    p = _pair(top, args.pair)
    subset = _point_set(top, args.set)
    cs = CoverSystem(op_open_family(p.selector), p.enlarger)
    verdict: CompactnessVerdict = is_compact(cs, subset)
    print("set:", _fmt(top, subset))
    print("compact:", str(verdict.compact).lower())
    if not verdict.compact:
        print("witness_point:", top.ground.labels[verdict.witness_point])
        print("witness_cover:", _fmt_family(top, verdict.witness_cover))
    if args.oracle:
        oracle = brute_force_compact(cs, subset)
        print("oracle:", str(oracle).lower())
        if oracle != verdict.compact:
            print("oracle disagreement", file=sys.stderr)
            return 1
    return 0


def _cmd_mine(args) -> int:
    for witness in mine_counterexamples(args.target, args.n_max):
        print(json.dumps(witness))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="topolab",
        description="finite-space operator calculus and property checker",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="write every topology of a given size as JSONL")
    p.add_argument("--n", type=int, required=True, help="points (0..4)")
    p.add_argument("--out", help="output file (default stdout)")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("check", help="run property suites from a config file")
    p.add_argument("--config", required=True, help="SuiteConfig as JSON")
    p.add_argument("--space", help="restrict the sweep to one space file")
    p.add_argument("--out", help="report file (default stdout)")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("families", help="print the families a pair induces on a space")
    p.add_argument("--space", required=True)
    p.add_argument("--pair", required=True, help="<first>,<second>; builtin name or custom:<file>")
    p.set_defaults(func=_cmd_families)

    p = sub.add_parser("filter", help="limits and adherence of a principal filter")
    p.add_argument("--space", required=True)
    p.add_argument("--pair", required=True)
    p.add_argument("--core", required=True, help="comma-separated point labels")
    p.add_argument("--report", action="store_true", help="per-point detail")
    p.set_defaults(func=_cmd_filter)

    p = sub.add_parser("compact", help="compactness verdict with witnesses")
    p.add_argument("--space", required=True)
    p.add_argument("--pair", required=True)
    p.add_argument("--set", required=True, help="comma-separated point labels ('' for the empty set)")
    p.add_argument("--oracle", action="store_true", help="cross-check the literal oracle")
    p.set_defaults(func=_cmd_compact)

    p = sub.add_parser("mine", help="search small spaces for counterexample witnesses")
    p.add_argument("--target", required=True, help=f"one of {MINE_TARGETS}")
    p.add_argument("--n-max", type=int, default=2, help="largest ground-set size to scan")
    p.set_defaults(func=_cmd_mine)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (SchemaError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
