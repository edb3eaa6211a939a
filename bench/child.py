"""One benchmark process: set up a workload, then run it once.

``run.py`` starts a fresh interpreter for every set-up probe and every
measured run, so module-level caches in topolab start cold each time.
The result goes to ``--out`` as one JSON object.

Modes:
  setup    import topolab, make the inputs, stop
  measure  also run the workload untraced, sampling the host's speed
           (see speed.py)
  trace    also run it with every layer wrapped (see tracer.py)

A sweep runs once.  The CLI loop cycles through its query list until
``--seconds`` have passed and ``--min-passes`` whole passes are done, or
runs exactly ``--queries`` queries.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import statistics
import time
import traceback
from contextlib import nullcontext, redirect_stderr, redirect_stdout

import topolab
from topolab import cli, harness, write_space

import speed
from workloads import WORKLOADS, Sweep, cli_queries, cli_spaces, relabel_sampled, sweep_config

#: speed loops timed right after set-up, to scale the set-up time
SETUP_LOOPS = 50


def report_digest(text: str) -> tuple[str, str, dict]:
    """sha256 of the report's config+suites, of its suites alone, and the
    per-suite summary.  ``environment`` holds the Python version and is
    left out."""
    data = json.loads(text)
    del data["environment"]

    def sha(obj) -> str:
        return hashlib.sha256(json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()).hexdigest()

    summary = {
        name: {"instances_checked": s["instances_checked"], "notes": s["notes"]}
        for name, s in data["suites"].items()
    }
    return sha(data), sha(data["suites"]), summary


def run_sweep(spec: Sweep, cfg, seed: int, clock, tracer=None) -> dict:
    """Space generation, ``run_suites`` and rendering, timed as one.

    The library is called through its module at call time, so a traced
    run sees these calls too.  Relabelling is the benchmark's own work: it
    is left out of the time and, in a traced run, of every layer."""
    start = clock()
    spaces = harness.sweep_spaces(sweep_config(spec, spec.default_seed))
    relabel_start = clock()
    with tracer.excluded() if tracer is not None else nullcontext():
        spaces = relabel_sampled(spec, seed, spaces)
    relabel_s = clock() - relabel_start
    report = harness.run_suites(cfg, spaces=spaces)
    text = report.to_json()
    work_s = clock() - start - relabel_s
    digest, suites_digest, summary = report_digest(text)
    return {
        "work_s": work_s,
        "ok": report.ok,
        "failures": sum(len(s.failures) for s in report.suites.values()),
        "digest": digest,
        "suites_digest": suites_digest,
        "suites": summary,
        "report_bytes": len(text.encode()),
    }


def cli_setup(seed: int, work: str) -> list:
    spaces = cli_spaces(seed)
    paths = []
    for i, top in enumerate(spaces):
        path = os.path.join(work, f"space-{i}.json")
        write_space(top, path)
        paths.append(path)
    return cli_queries(seed, spaces, paths)


def run_queries(queries: list, seconds: float, min_passes: int, count: int | None, clock, tracer=None) -> dict:
    """Closed loop over the query list, cycling from its start.

    Runs at least ``min_passes`` whole passes, then goes on until
    ``seconds`` have passed, or runs exactly ``count`` queries.  The
    output of every repeated query must equal its first answer."""
    first: list[bytes] = []
    latencies: list[float] = []
    kinds: list[str] = []
    errors: list[str] = []
    failed = 0
    start = clock()
    while True:
        i = len(latencies)
        if count is not None:
            if i >= count:
                break
        elif i >= min_passes * len(queries) and clock() - start >= seconds:
            break
        kind, argv = queries[i % len(queries)]
        if tracer is not None:
            tracer.request = i
        out, err = io.StringIO(), io.StringIO()
        t = clock()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects its input this way
            code = exc.code
        except Exception:  # a crash is a failed query, not a failed run
            code = "exception"
            err.write(traceback.format_exc(limit=3))
        latencies.append(clock() - t)
        kinds.append(kind)
        answer = hashlib.sha256(f"{code}\n{out.getvalue()}\n{err.getvalue()}".encode()).digest()
        if i < len(queries):
            first.append(answer)
        elif answer != first[i % len(queries)]:
            code = f"{code} (answer differs from the first pass)"
        if code != 0:
            failed += 1
            if len(errors) < 5:
                errors.append(f"{' '.join(argv)} -> exit {code}: {err.getvalue()[-300:]}")
    by_kind: dict[str, list[float]] = {}
    for kind, lat in zip(kinds, latencies):
        by_kind.setdefault(kind, []).append(lat)
    return {
        "work_s": clock() - start,
        "latencies": latencies,
        "kind_p50_s": {k: statistics.median(v) for k, v in by_kind.items()},
        "queries": len(latencies),
        "failed": failed,
        "errors": errors,
        "digest": hashlib.sha256(b"".join(first)).hexdigest(),
        "queries_per_pass": len(queries),
    }


def layer_metrics(tracer, wall_s: float) -> dict:
    """Per-layer figures from one traced run (values only; units live in
    BENCHMARK.json)."""
    from tracer import TRACED

    m: dict[str, float] = {}
    for layer in (
        "bits.dp", "space.build", "space.validate", "ops.catalog", "ops.regular",
        "pairs.tables", "pairs.structure", "pairs.base_report", "pairs.named_family",
        "filters.nbhd_filterbase", "compact.filter_flags", "compact.cover_kind",
        "compact.space_flags", "compact.additive", "compact.oracle", "compact.is_compact",
    ):
        m[f"{layer}.self_s"] = tracer.self_s.get(layer, 0.0)
    for layer in (
        "bits.dp", "space.validate", "space.interior", "ops.regular", "ops.at_point",
        "ops.leq", "pairs.structure", "pairs.closure", "filters.converges",
        "filters.accumulates", "compact.filter_flags", "compact.cover_kind",
        "compact.kind", "compact.oracle",
    ):
        m[f"{layer}.calls"] = tracer.calls.get(layer, 0)
    m["bits.dp.entries"] = tracer.entries.get("bits.dp", 0)
    layers = {layer for _, _, layer, _ in TRACED} | set(tracer.self_s)
    modules = ("bits", "space", "ops", "pairs", "filters", "compact", "harness", "jsonio", "cli")
    for mod in modules:
        m[f"{mod}.self_s"] = sum(tracer.self_s.get(layer, 0.0) for layer in layers if layer.startswith(mod + "."))
    for suite in topolab.SUITE_NAMES:
        m[f"harness.suite.{suite}.s"] = tracer.incl_s.get(f"harness.suite.{suite}", 0.0)
    m["harness.context.s"] = tracer.incl_s.get("harness.context", 0.0)
    per_space = tracer.per_space()
    m["harness.space.p50_s"] = statistics.median(per_space) if per_space else 0.0
    m["harness.space.max_s"] = max(per_space, default=0.0)
    m["jsonio.render.s"] = tracer.incl_s.get("jsonio.render", 0.0)
    m["jsonio.parse.s"] = tracer.incl_s.get("jsonio.parse", 0.0)
    attributed = sum(tracer.self_s.values())
    m["trace.unattributed_s"] = wall_s - attributed
    return m


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True, choices=("setup", "measure", "trace"))
    ap.add_argument("--out", required=True)
    ap.add_argument("--work", required=True, help="directory for generated inputs")
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--min-passes", type=int, default=1)
    ap.add_argument("--queries", type=int, help="run exactly this many queries")
    ap.add_argument("--spans", help="where a traced run writes its spans (JSONL)")
    args = ap.parse_args()

    spec = WORKLOADS[args.workload]
    if isinstance(spec, Sweep):
        cfg = sweep_config(spec, args.seed)
    else:
        queries = cli_setup(args.seed, args.work)
    # compared with the parent's clock at spawn: CLOCK_MONOTONIC is system-wide
    result: dict = {"ready": time.monotonic()}
    # the host's speed during set-up, from the same process and moment
    result["setup_probe_s"] = speed.sample(SETUP_LOOPS)

    if args.mode != "setup":
        tracer = probe = None
        if args.mode == "trace":
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        else:
            probe = speed.Probe()
        # a traced run is not scaled: the probes would land in its layers
        with probe if probe is not None else nullcontext():
            clock = probe.clock if probe is not None else time.perf_counter
            if isinstance(spec, Sweep):
                result.update(run_sweep(spec, cfg, args.seed, clock, tracer))
            else:
                result.update(run_queries(queries, args.seconds, args.min_passes, args.queries, clock, tracer))
        if probe is not None:
            result["probe_s"] = probe.mean()
            result["probes"] = len(probe.samples)
        if tracer is not None:
            result["layers"] = layer_metrics(tracer, result["work_s"])
            result["missing_hooks"] = tracer.missing
            result["dropped_spans"] = tracer.dropped_spans
            result["spans"] = len(tracer.spans)
            if args.spans:
                tracer.write_spans(args.spans)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
