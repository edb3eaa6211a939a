"""topolab benchmark: end-to-end and per-layer metrics over four workloads.

Run from the repository root::

    python3 bench/run.py --workload sampled6 --seed 31 --seconds 10 --trace 0
    python3 bench/run.py --all          # every workload at its default seed

``--trace 0`` prints the end-to-end metrics named in BENCHMARK.json;
``--trace 1`` runs the workload once untraced and once traced and prints
the per-layer metrics.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The workloads and why each exists are described in
workloads.py; README.md has the baseline.

Every set-up probe and every measured run is a fresh interpreter
(child.py) with ``TOPOLAB_THREADS`` removed and ``PYTHONHASHSEED`` fixed,
so the serial default is measured and module-level caches start cold.
Every end-to-end time and rate is scaled to a host of reference speed
(speed.py); the raw wall times are printed beside the metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUN_DIR = os.path.join(ROOT, ".bench_run")
#: a run must end within 180 s; children get what is left of this budget
BUDGET_S = 165.0
#: set-up is sampled this many times per run, besides each measured child;
#: half before the measured children and half after
SETUP_PROBES = 20
#: budget kept back for the set-up probes after the measured children
RESERVE_S = 10.0
#: a further sweep child starts only if this many times the last one fits
CHILD_MARGIN = 1.25
#: the CLI loop asks every query at least this often per run, and a
#: query's latency is the median of its answers
MIN_PASSES = 3


class ChildFailed(Exception):
    pass


def load_json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "TOPOLAB_THREADS"}
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = SRC
    return env


def spawn(args, mode: str, work: str, deadline: float, extra=()) -> dict:
    """Run child.py once; its result, with ``setup_s`` measured from spawn."""
    out = os.path.join(work, f"result-{mode}.json")
    cmd = [
        sys.executable, os.path.join(HERE, "child.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--mode", mode, "--out", out, "--work", work, *extra,
    ]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise ChildFailed(f"{mode}: no time left in the run budget")
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True, text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{mode}: timed out") from None
    if proc.returncode != 0:
        raise ChildFailed(f"{mode}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    result = load_json(out)
    os.remove(out)
    result["setup_s"] = result["ready"] - spawned
    return result


def percentile(values: list, q: int) -> float:
    """The q-th percentile, interpolated as statistics.quantiles does."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def peak_rss_mb() -> float:
    kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kb / 1024.0


def machine_info() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    source = hashlib.sha256()
    pkg = os.path.join(SRC, "topolab")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                source.update(name.encode() + b"\0" + fh.read())
    return {
        "commit": git_commit(),
        "source_sha256": source.hexdigest(),
        "python": platform.python_version(),
        "cpu": cpu,
        "nproc": os.cpu_count(),
    }


def git_commit() -> str:
    """HEAD of the repository, or "unknown" outside a git clone."""
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() or "unknown"


class Checks:
    """Operations attempted and failed, and why each failure happened."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def fail(self, problem: str, ops: int = 1) -> None:
        self.failed += ops
        self.problems.append(problem)


def check_sweep(args, result: dict, expected: dict, checks: Checks) -> None:
    """Compare a sweep's report with the pinned values.

    Per-suite ``instances_checked`` is checked at every seed: relabelling
    the spaces and redrawing the sampled quantifiers never changes how many
    instances a suite checks.  The digests and notes are pinned for the
    default seed only, except that ``exhaustive3`` sweeps the same spaces
    at every seed, so its suites digest holds for all of them."""
    if not result["ok"]:
        checks.fail(f"report not ok: {result['failures']} failed statements")
        return
    pinned = expected[args.workload]
    counts = {name: s["instances_checked"] for name, s in result["suites"].items()}
    pinned_counts = {name: s["instances_checked"] for name, s in pinned["suites"].items()}
    if counts != pinned_counts:
        checks.fail(f"instances_checked {counts} != pinned {pinned_counts}")
    elif "suites_digest_any_seed" in pinned and result["suites_digest"] != pinned["suites_digest_any_seed"]:
        checks.fail(f"suites digest {result['suites_digest']} != pinned {pinned['suites_digest_any_seed']}")
    elif args.seed == pinned["seed"] and result["digest"] != pinned["digest"]:
        checks.fail(f"report digest {result['digest']} != pinned {pinned['digest']}")
    elif args.seed == pinned["seed"] and result["suites"] != pinned["suites"]:
        checks.fail("per-suite notes differ from the pinned values")


def check_queries(args, result: dict, expected: dict, checks: Checks) -> None:
    if result["failed"]:
        checks.fail(f"{result['failed']} queries failed: {result['errors'][:3]}", result["failed"])
    pinned = expected[args.workload]
    if result["queries_per_pass"] != pinned["queries_per_pass"]:
        checks.fail(f"{result['queries_per_pass']} queries per pass, pinned {pinned['queries_per_pass']}")
    if args.seed == pinned["seed"] and result["digest"] != pinned["digest"]:
        checks.fail(f"output digest {result['digest']} != pinned {pinned['digest']}")


def check_result(args, result: dict, expected: dict, checks: Checks) -> None:
    """Count a child's operations and check its output."""
    if args.workload == "cli_queries":
        checks.attempted += result["queries"]
        check_queries(args, result, expected, checks)
    else:
        checks.attempted += 1
        check_sweep(args, result, expected, checks)


def loop_args(args, deadline: float, children: int = 1) -> tuple:
    """How long the CLI child runs, within what is left of the budget when
    ``children`` such runs must fit; a sweep child runs once."""
    if args.workload != "cli_queries":
        return ()
    left = (deadline - time.monotonic() - RESERVE_S) / children
    seconds = max(0.0, min(args.seconds, left))
    return ("--seconds", str(seconds), "--min-passes", str(MIN_PASSES))


def probe_setup(args, work: str, deadline: float, count: int) -> list:
    return [spawn(args, "setup", work, deadline) for _ in range(count)]


def end_to_end(args, expected: dict, checks: Checks, work: str, deadline: float) -> tuple[dict, dict]:
    """Set-up probes around measured children run until ``--seconds``
    passed, so the set-up median sees both ends of the run."""
    setups = probe_setup(args, work, deadline, SETUP_PROBES // 2)
    sweep = args.workload != "cli_queries"
    results = []
    started = time.monotonic()
    # a sweep is one operation and runs once per child; the CLI child
    # answers queries for the whole run
    while True:
        child_start = time.monotonic()
        try:
            result = spawn(args, "measure", work, deadline, loop_args(args, deadline))
        except ChildFailed as exc:
            checks.attempted += 1
            checks.fail(str(exc))
            break
        child_s = time.monotonic() - child_start
        setups.append(result)
        results.append(result)
        check_result(args, result, expected, checks)
        now = time.monotonic()
        if not sweep or now - started >= args.seconds:
            break
        # running out of the benchmark's own budget is no failure of the program
        if deadline - now - RESERVE_S < CHILD_MARGIN * child_s:
            print(f"note: --seconds {args.seconds} cut to {now - started:.1f} s by the run budget", file=sys.stderr)
            break
    setups += probe_setup(args, work, deadline, SETUP_PROBES - SETUP_PROBES // 2)
    metrics = {
        "setup_s": statistics.median(speed.scale(r["setup_s"], r["setup_probe_s"]) for r in setups),
        "peak_rss_mb": peak_rss_mb(),
    }
    samples = {"setup_s": len(setups), "peak_rss_mb": len(setups)}
    # raw wall times, and the factors that scale them to the reference host
    info = {"samples": samples, "raw": {"setup_s": statistics.median(r["setup_s"] for r in setups)}}
    if not results:
        return metrics, info
    info["raw"].update(
        work_s=[r["work_s"] for r in results],
        scale=[speed.REFERENCE_S / r["probe_s"] for r in results],
        probes=[r["probes"] for r in results],
    )
    if sweep:
        times = [speed.scale(r["work_s"], r["probe_s"]) for r in results]
        latencies = times
        metrics["sweep_s"] = statistics.median(times)
        metrics["queries_per_s"] = len(times) / sum(times)
        samples["sweep_s"] = len(times)
        info.update(digest=results[0]["digest"], suites_digest=results[0]["suites_digest"],
                    instances={k: v["instances_checked"] for k, v in results[0]["suites"].items()})
    else:
        r = results[0]
        per_pass = r["queries_per_pass"]
        work_s = speed.scale(r["work_s"], r["probe_s"])
        # a query's latency is the median of its answers, so one slow
        # moment of the host does not decide the tail
        latencies = [speed.scale(statistics.median(r["latencies"][i::per_pass]), r["probe_s"])
                     for i in range(per_pass)]
        # one pass over the list, averaged over every query of the run
        metrics["sweep_s"] = work_s * per_pass / r["queries"]
        metrics["queries_per_s"] = r["queries"] / work_s
        samples.update(sweep_s=r["queries"], queries_per_s=r["queries"])
        info["digest"] = r["digest"]
    metrics["query_p50_ms"] = statistics.median(latencies) * 1000.0
    metrics["query_p99_ms"] = percentile(latencies, 99) * 1000.0
    samples.update(query_p50_ms=len(latencies), query_p99_ms=len(latencies))
    samples.setdefault("queries_per_s", len(latencies))
    return metrics, info


def per_layer(args, expected: dict, checks: Checks, work: str, deadline: float) -> tuple[dict, dict]:
    """One untraced and one traced child on the same work."""
    sweep = args.workload != "cli_queries"
    # the traced child runs the same queries about 1.5 times slower
    plain = spawn(args, "measure", work, deadline, loop_args(args, deadline, children=3))
    same_work = () if sweep else ("--queries", str(plain["queries"]))
    spans = os.path.join(RUN_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl")
    traced = spawn(args, "trace", work, deadline, (*same_work, "--spans", spans))
    for result in (plain, traced):
        check_result(args, result, expected, checks)
    if plain["digest"] != traced["digest"]:
        checks.fail(f"traced digest {traced['digest']} != untraced {plain['digest']}")
    metrics = dict(traced["layers"])
    wall = traced["work_s"]
    unattributed = metrics["trace.unattributed_s"]
    if abs(unattributed) > 0.05 * wall:
        checks.fail(f"layer self times leave {unattributed:.3f} s of {wall:.3f} s traced wall time unattributed")
    metrics["trace.overhead_s"] = traced["work_s"] - plain["work_s"]
    metrics["harness.instances"] = sum(s["instances_checked"] for s in traced["suites"].values()) if sweep else 0
    metrics["jsonio.report_bytes"] = traced["report_bytes"] if sweep else 0
    for kind in ("families", "filter", "compact"):
        p50 = plain.get("kind_p50_s", {}).get(kind)
        metrics[f"cli.{kind}.p50_ms"] = p50 * 1000.0 if p50 is not None else 0.0
    info = {
        "traced_s": traced["work_s"], "untraced_s": plain["work_s"], "spans": traced["spans"],
        "spans_file": os.path.relpath(spans, ROOT), "missing_hooks": traced["missing_hooks"],
        "dropped_spans": traced["dropped_spans"], "digest": traced["digest"],
    }
    if traced["missing_hooks"]:
        print("warning: hooks not found, their layers read 0: " + ", ".join(traced["missing_hooks"]), file=sys.stderr)
    return metrics, info


def run_workload(args) -> int:
    spec = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    expected = load_json(os.path.join(HERE, "expected.json"))
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    deadline = time.monotonic() + BUDGET_S
    checks = Checks()
    os.makedirs(RUN_DIR, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=RUN_DIR)
    metrics: dict = {}
    info: dict = {}
    try:
        if args.trace:
            metrics, info = per_layer(args, expected, checks, work, deadline)
        else:
            metrics, info = end_to_end(args, expected, checks, work, deadline)
    except ChildFailed as exc:
        checks.fail(str(exc))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    checks.attempted = max(checks.attempted, 1)

    if set(metrics) != set(units) and not checks.problems:
        checks.fail(f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}")
    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace, **machine_info(), **info}))
    samples = info.get("samples", {})
    traced_s = info.get("traced_s")
    for name in units:
        value = metrics.get(name, 0.0)
        if args.trace:
            timed = name.endswith((".self_s", ".s"))
            note = f"{100 * value / traced_s:5.1f}% of {traced_s:.2f} s traced" if timed and traced_s else ""
        else:
            note = f"n={samples.get(name, 0)}"
        print(f"{args.workload:12} {name:36} {value:16.6f} {units[name]:6} {note}")
    for problem in checks.problems:
        print(f"FAILED: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not checks.problems,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": metrics.get(name, 0.0), "unit": units[name]} for name in units},
    }))
    return 0


def run_all(args) -> int:
    """Every workload at its default seed, one process each."""
    sys.path.insert(0, HERE)
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    correct, attempted, failed, metrics = True, 0, 0, {}
    for name, spec in WORKLOADS.items():
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(spec.default_seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.splitlines()
        sys.stdout.write("".join(line + "\n" for line in lines[:-1]))
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not lines:
            correct = False
            continue
        last = json.loads(lines[-1])
        correct &= last["correct"]
        attempted += last["attempted"]
        failed += last["failed"]
        metrics.update({f"{name}.{k}": v for k, v in last["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", help="exhaustive3, sampled6, wide11 or cli_queries")
    ap.add_argument("--all", action="store_true", help="run every workload at its default seed")
    ap.add_argument("--seed", type=int, help="workload seed (default: the workload's own)")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(SRC, "topolab", "__init__.py")):
        print(f"error: no topolab sources under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    if args.all:
        return run_all(args)
    if not args.workload:
        ap.error("give --workload or --all")
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    if args.seed is None:
        args.seed = WORKLOADS[args.workload].default_seed
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
