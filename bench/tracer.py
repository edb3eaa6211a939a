"""Per-layer tracing of topolab from outside the library.

Every traced function is wrapped in each ``topolab`` module namespace
that bound it: ``harness`` binds names with ``from .compact import ...``,
so patching only the defining module would miss its calls.  The harness
suite registry and the per-space context constructor are wrapped too;
they are the only per-suite and per-space boundaries.

A layer's self time is its time minus the time of the wrapped calls it
made.  Functions called millions of times only add to a counter and to
their layer's summed self time; the rest also record a span (name, start,
end, parent, request id) kept in memory and written out at the end.  The
request id is the space label in sweeps and the query index in the CLI
loop.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

#: (module, attribute, layer, records a span).  "Class.method" patches a
#: method on its class.  Unlisted functions count as their caller's self
#: time.  Generators are left out: wrapping one would time its creation.
TRACED = (
    ("bits", "intersection_dp", "bits.dp", False),
    ("bits", "union_dp", "bits.dp", False),
    ("bits", "contained_union_table", "bits.dp", False),
    ("space", "build_topology", "space.build", True),
    ("space", "random_topology", "space.build", True),
    ("space", "family_violation", "space.validate", False),
    ("space", "is_topology", "space.validate", False),
    ("space", "Topology.interior", "space.interior", False),
    ("space", "Topology.closure", "space.interior", False),
    ("ops", "catalog", "ops.catalog", True),
    ("ops", "builtin", "ops.catalog", False),
    ("ops", "tabulate", "ops.catalog", False),
    ("ops", "is_regular_wrt", "ops.regular", False),
    ("ops", "at_point", "ops.at_point", False),
    ("ops", "leq", "ops.leq", False),
    ("ops", "dual", "ops.other", False),
    ("ops", "dual_table", "ops.other", False),
    ("ops", "table_violation", "ops.other", False),
    ("ops", "is_operation", "ops.other", False),
    ("ops", "is_monotone", "ops.other", False),
    ("ops", "op_open_family", "ops.other", False),
    ("ops", "op_closed_family", "ops.other", False),
    ("ops", "neighborhoods", "ops.other", False),
    ("pairs", "pair_open_family", "pairs.tables", False),
    ("pairs", "pair_closed_family", "pairs.tables", False),
    ("pairs", "enlargement_base", "pairs.tables", False),
    ("pairs", "OpPair.envelope", "pairs.tables", False),
    ("pairs", "classify_structure", "pairs.structure", True),
    ("pairs", "base_report", "pairs.base_report", False),
    ("pairs", "named_family", "pairs.named_family", False),
    ("pairs", "pair_closure", "pairs.closure", False),
    ("pairs", "pair_interior", "pairs.closure", False),
    ("pairs", "pair_closure_by_points", "pairs.closure", False),
    ("filters", "converges", "filters.converges", False),
    ("filters", "accumulates", "filters.accumulates", False),
    ("filters", "nbhd_filterbase", "filters.nbhd_filterbase", False),
    ("filters", "limit_set", "filters.other", False),
    ("filters", "adherence_set", "filters.other", False),
    ("filters", "finer_convergent", "filters.other", False),
    ("filters", "maximal_filters", "filters.other", False),
    ("filters", "is_t2", "filters.other", False),
    ("filters", "convergence_closure", "filters.other", False),
    ("filters", "is_filterbase", "filters.other", False),
    ("filters", "generated_filter", "filters.other", False),
    ("compact", "filter_compactness_flags", "compact.filter_flags", True),
    ("compact", "cover_kind_flags", "compact.cover_kind", True),
    ("compact", "space_compactness_flags", "compact.space_flags", True),
    ("compact", "additive_enlarger_flags", "compact.additive", False),
    ("compact", "compactness_kind", "compact.kind", False),
    ("compact", "brute_force_compact", "compact.oracle", True),
    ("compact", "is_compact", "compact.is_compact", True),
    ("compact", "named_set_class", "compact.other", False),
    ("compact", "closed_space_predicates", "compact.other", False),
    ("compact", "is_cover", "compact.other", False),
    ("compact", "antichain_families", "compact.other", False),
    ("compact", "sampled_families", "compact.other", False),
    ("harness", "run_suites", "harness.run", True),
    ("harness", "sweep_spaces", "harness.spaces", True),
    ("harness", "Report.to_json", "jsonio.render", True),
    ("jsonio", "canonical_json", "jsonio.render", False),
    ("jsonio", "dumps_space", "jsonio.render", False),
    ("jsonio", "space_to_dict", "jsonio.render", False),
    ("jsonio", "write_space", "jsonio.render", False),
    ("jsonio", "parse_space", "jsonio.parse", True),
    ("jsonio", "loads_space", "jsonio.parse", False),
    ("jsonio", "space_from_dict", "jsonio.parse", False),
    ("jsonio", "parse_operation", "jsonio.parse", False),
    ("jsonio", "operation_from_dict", "jsonio.parse", False),
    ("cli", "main", "cli.main", True),
    ("cli", "_cmd_families", "cli.families", True),
    ("cli", "_cmd_filter", "cli.filter", True),
    ("cli", "_cmd_compact", "cli.compact", True),
)

#: layers whose wrapped functions return a table; their entries are counted
SIZED = {"bits.dp"}
SPAN_CAP = 1_000_000


class Tracer:
    """Call counts, self and inclusive time per layer, and spans."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.incl_s: dict[str, float] = defaultdict(float)
        self.entries: dict[str, int] = defaultdict(int)
        self.spans: list[list] = []
        self.dropped_spans = 0
        self.missing: list[str] = []
        # one frame per active wrapped call: [start, time in wrapped callees, span index]
        self._stack: list[list] = []
        self._active: dict[str, int] = defaultdict(int)
        self.request = None

    def wrap(self, fn, layer: str, span: bool, request_of=None):
        stack, active = self._stack, self._active
        clock = time.perf_counter
        sized = layer in SIZED
        calls, self_s, incl_s, entries = self.calls, self.self_s, self.incl_s, self.entries

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outer_request = self.request
            if request_of is not None:
                self.request = request_of(args)
            span_index = -1
            if span:
                if len(self.spans) < SPAN_CAP:
                    parent = next((f[2] for f in reversed(stack) if f[2] >= 0), -1)
                    span_index = len(self.spans)
                    self.spans.append([layer, 0.0, 0.0, parent, self.request])
                else:
                    self.dropped_spans += 1
            active[layer] += 1
            frame = [clock(), 0.0, span_index]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[0]
                calls[layer] += 1
                self_s[layer] += dur - frame[1]
                active[layer] -= 1
                if not active[layer]:
                    incl_s[layer] += dur
                if stack:
                    stack[-1][1] += dur
                if span_index >= 0:
                    self.spans[span_index][1] = frame[0]
                    self.spans[span_index][2] = end
                self.request = outer_request
            if sized:
                entries[layer] += len(result)
            return result

        return wrapper

    def install(self) -> None:
        """Patch every listed function in every topolab namespace.  Names
        the library no longer has are listed in ``missing``; their layers
        read 0."""
        from topolab import harness

        modules = [m for name, m in sys.modules.items() if name == "topolab" or name.startswith("topolab.")]
        replaced = {}
        for mod_name, attr, layer, span in TRACED:
            mod = sys.modules.get(f"topolab.{mod_name}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name, None)
                fn = getattr(cls, meth, None) if cls is not None else None
                if fn is None:
                    self.missing.append(f"{mod_name}.{attr}")
                    continue
                setattr(cls, meth, self.wrap(fn, layer, span))
                continue
            fn = getattr(mod, attr, None)
            if fn is None:
                self.missing.append(f"{mod_name}.{attr}")
                continue
            replaced[id(fn)] = (fn, self.wrap(fn, layer, span))
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                hit = replaced.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])

        ctx_cls = getattr(harness, "_SpaceContext", None)
        if ctx_cls is None:
            self.missing.append("harness._SpaceContext")
        else:
            ctx_cls.__init__ = self.wrap(
                ctx_cls.__init__, "harness.context", True, request_of=lambda args: args[1]
            )
        registry = getattr(harness, "_SUITES", None)
        if registry is None:
            self.missing.append("harness._SUITES")
        else:
            for name, fn in list(registry.items()):
                registry[name] = self.wrap(
                    fn, f"harness.suite.{name}", True, request_of=lambda args: args[0].label
                )

    @contextmanager
    def excluded(self):
        """Calls made inside leave no trace: every counter, time and span
        is put back as it was.  Only for top-level work (no wrapped call
        active), which no enclosing span can have counted."""
        assert not self._stack
        tallies = (self.calls, self.self_s, self.incl_s, self.entries)
        saved = [dict(t) for t in tallies]
        n_spans, dropped = len(self.spans), self.dropped_spans
        try:
            yield
        finally:
            for tally, old in zip(tallies, saved):
                tally.clear()
                tally.update(old)
            del self.spans[n_spans:]
            self.dropped_spans = dropped

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, request in self.spans:
                fh.write(json.dumps({
                    "name": name, "start": start, "end": end,
                    "parent": parent, "request": request,
                }) + "\n")

    def per_space(self) -> list[float]:
        """Per space label: its context span plus its suite spans."""
        out: dict = defaultdict(float)
        for name, start, end, parent, request in self.spans:
            if name == "harness.context" or name.startswith("harness.suite."):
                out[request] += end - start
        return list(out.values())
