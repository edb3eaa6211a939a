"""Command line front end.

Exit codes: 0 clean, 1 property failure, 2 usage or schema error,
including a file that cannot be read or is not UTF-8 text.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Optional, Sequence

from .bits import SUBFAMILY_CAP
from .compact import CompactnessVerdict, brute_force_compact, is_compact, CoverSystem
from .filters import Filter, adherence_set, limit_set
from .harness import (
    MINE_TARGETS,
    SuiteConfig,
    emit_report,
    mine_counterexamples,
    run_suites,
)
from .jsonio import SchemaError, dumps_space, parse_operation, parse_space
from .ops import BUILTIN_NAMES, Operation, builtin, op_open_family
from .pairs import OpPair, classify_structure, enlargement_base, pair_closed_family, pair_open_family
from .space import EXHAUSTIVE_POINTS, Topology, enumerate_topologies


def _operation(top: Topology, spec: str) -> Operation:
    if spec.startswith("custom:"):
        return parse_operation(spec[len("custom:"):], top)
    if spec in BUILTIN_NAMES:
        return builtin(top, spec)
    raise SchemaError(
        f"unknown operation {spec!r}; use one of {BUILTIN_NAMES} or custom:<file>"
    )


def _operations(top: Topology, spec: str) -> tuple[Operation, Operation]:
    first, sep, second = spec.partition(",")
    if not sep:
        raise SchemaError("pair must be written as <first>,<second>")
    return _operation(top, first), _operation(top, second)


def _pair(top: Topology, spec: str) -> OpPair:
    return OpPair(*_operations(top, spec))


def _point_set(top: Topology, spec: str) -> int:
    if spec == "":
        return 0
    try:
        return top.ground.mask_of_labels(spec.split(","))
    except KeyError as exc:
        raise SchemaError(exc.args[0]) from None


def _cmd_enumerate(args) -> int:
    if not 0 <= args.n <= EXHAUSTIVE_POINTS:
        raise SchemaError(f"exhaustive enumeration is capped at n = {EXHAUSTIVE_POINTS}; use random_topology")
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
    if args.out:
        emit_report(report, args.out)
    else:
        sys.stdout.write(report.to_json())
    return 0 if report.ok else 1


def _cmd_families(args) -> int:
    top = parse_space(args.space)
    p = _pair(top, args.pair)
    rep = classify_structure(p)
    print(f"space: {len(top.opens)} opens on {top.n} points")
    print(f"selector-open ({p.selector.name}):", top.ground.braced(*op_open_family(p.selector)))
    print(f"enlarger-open ({p.enlarger.name}):", top.ground.braced(*op_open_family(p.enlarger)))
    print("pair-open:", top.ground.braced(*pair_open_family(p)))
    print("pair-closed:", top.ground.braced(*pair_closed_family(p)))
    print("enlargement base:", top.ground.braced(*enlargement_base(p)))
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
    print("core:", top.ground.braced(core))
    print("limit_set:", top.ground.braced(lim))
    print("adherence_set:", top.ground.braced(adh))
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
    selector, enlarger = _operations(top, args.pair)
    subset = _point_set(top, args.set)
    cs = CoverSystem(op_open_family(selector), enlarger)
    if args.oracle and len(cs.ambient) > SUBFAMILY_CAP:
        raise SchemaError(
            f"--oracle is capped at {SUBFAMILY_CAP}-member selector-open families;"
            f" this one has {len(cs.ambient)}"
        )
    verdict: CompactnessVerdict = is_compact(cs, subset)
    print("set:", top.ground.braced(subset))
    print("compact:", str(verdict.compact).lower())
    if not verdict.compact:
        print("witness_point:", top.ground.labels[verdict.witness_point])
        print("witness_cover:", top.ground.braced(*verdict.witness_cover))
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
    """The top-level parser; :attr:`commands` maps each command name to
    its subparser, so :func:`main` can hand a query straight to it."""
    parser = argparse.ArgumentParser(
        prog="topolab",
        description="finite-space operator calculus and property checker",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = commands = {}

    def command(name: str, func, help: str) -> argparse.ArgumentParser:
        p = commands[name] = sub.add_parser(name, help=help)
        p.set_defaults(command=name, func=func)
        return p

    p = command("enumerate", _cmd_enumerate, "write every topology of a given size as JSONL")
    p.add_argument("--n", type=int, required=True, help=f"points (0..{EXHAUSTIVE_POINTS})")
    p.add_argument("--out", help="output file (default stdout)")

    p = command("check", _cmd_check, "run property suites from a config file")
    p.add_argument("--config", required=True, help="SuiteConfig as JSON")
    p.add_argument("--space", help="restrict the sweep to one space file")
    p.add_argument("--out", help="report file (default stdout)")

    p = command("families", _cmd_families, "print the families a pair induces on a space")
    p.add_argument("--space", required=True)
    p.add_argument("--pair", required=True, help="<first>,<second>; builtin name or custom:<file>")

    p = command("filter", _cmd_filter, "limits and adherence of a principal filter")
    p.add_argument("--space", required=True)
    p.add_argument("--pair", required=True)
    p.add_argument("--core", required=True, help="comma-separated point labels")
    p.add_argument("--report", action="store_true", help="per-point detail")

    p = command("compact", _cmd_compact, "compactness verdict with witnesses")
    p.add_argument("--space", required=True)
    p.add_argument("--pair", required=True)
    p.add_argument("--set", required=True, help="comma-separated point labels ('' for the empty set)")
    p.add_argument("--oracle", action="store_true",
                   help=f"cross-check the literal oracle (at most {SUBFAMILY_CAP} selector-open sets)")

    p = command("mine", _cmd_mine, "search small spaces for counterexample witnesses")
    p.add_argument("--target", required=True, help=f"one of {MINE_TARGETS}")
    p.add_argument("--n-max", type=int, default=2, help="largest ground-set size to scan")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on first use.  Parsing leaves
    it unchanged and builds a fresh Namespace per call, so no query sees
    another's arguments."""
    return build_parser()


def _parse(argv: Sequence[str]) -> argparse.Namespace:
    """``argv`` parsed in one pass: a known command's arguments go
    straight to its subparser, and leftovers are reported by the
    top-level parser, as its own two-pass parse would.  No command, an
    unknown one or a top-level option goes through the top-level parser."""
    parser = _parser()
    sub = parser.commands.get(argv[0]) if argv else None
    if sub is None:
        return parser.parse_args(argv)
    args, extra = sub.parse_known_args(argv[1:])
    if extra:
        parser.error(f"unrecognized arguments: {' '.join(extra)}")
    return args


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    try:
        return args.func(args)
    except (SchemaError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
