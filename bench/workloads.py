"""The benchmark's four workloads: what each one runs and why it exists.

Every workload goes through the library's public entry points only
(``harness.sweep_spaces``, ``harness.run_suites``, ``cli.main``).  Inputs
are a pure function of the workload seed.  Each run is one process,
serial, with a single client.

exhaustive3
    ``SuiteConfig(n_exhaustive=3)``: all six suites and all 49 builtin
    pairs over the 34 spaces of at most three points.  Time here comes
    from the number of Python calls, not from table sizes: about 12k
    ``filter_compactness_flags`` calls and about 2M ``converges`` /
    ``accumulates`` calls over exhaustive quantifiers, spread over many
    similar small spaces.  Per-space overhead, parallelism over spaces and
    isomorph-free enumeration show here; space building and pair tables
    take almost no time.  Enumeration is complete, so the spaces do not
    depend on the seed; the seed only enters the config.

sampled6
    The acceptance-criterion-9 config (``n_exhaustive=2, n_sampled=6,
    samples=2, seed=31``), all suites.  Large kernels dominate:
    ``cover_kind_flags`` over 2^10-subfamily tables and the cubic
    ``is_regular_wrt`` reached from ``nbhd_filterbase``.  Two spaces carry
    almost all the time, so a parallel-over-spaces change meets its
    slowest space here.

wide11
    ``n_exhaustive=0, n_sampled=11, samples=2, seed=0``, suites
    ``operations, structure, families``; the spaces have 468 and 400
    opens.  Time grows with family size: the quadratic pairwise scans in
    ``classify_structure``, ``Topology`` validation (``family_violation``)
    and ``ops.at_point``.  This is the mechanism workload for a
    subset-lattice kernel, and the bypass workload for any ``compact`` or
    ``filters`` change, because neither runs here.

cli_queries
    A closed loop with one client calling ``topolab.cli.main(argv)``
    in-process with stdout captured.  Set-up writes twelve 3- to 8-point
    spaces to JSON.  One pass asks every space, with every builtin pair,
    ``families``, ``filter --report`` and ``compact`` twice, the second
    time with ``--oracle`` when the selector-open family has at most 14
    members: 2352 queries.  Each query re-parses and re-validates a space,
    builds the catalog and one pair's tables, builds a witness and may run
    the literal oracle, so it uses the same layers as a sweep without any
    cache between queries.  A change that speeds sweeps by precomputing
    per-pair work eagerly shows its cost here.  It is the only workload
    that measures ``cli`` and ``jsonio`` parsing.

Why the sampled spaces are relabelled instead of redrawn: the size of a
seeded random space swings widely with the seed (11-point draws range
from about 300 to 2048 opens, which moves a sweep from seconds to many
minutes).  So a sweep always generates the default config's spaces, as
``run_suites`` would, and a seed other than the default applies a seeded
permutation to the points of its sampled spaces; the spaces stay
isomorphic, the masks, orders and sampled quantifier draws change, and
the cost stays comparable across seeds.  At the default seed the
permutation is the identity, nothing is relabelled and the report equals
``run_suites(cfg)``.  ``exhaustive3`` has no sampled spaces, so only its
config's seed changes.  The CLI workload relabels a fixed set of base
spaces the same way.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from topolab import BUILTIN_NAMES, SuiteConfig, Topology, builtin, op_open_family, random_topology
from topolab.bits import derive_seed


@dataclass(frozen=True)
class Sweep:
    config: dict
    default_seed: int


@dataclass(frozen=True)
class Queries:
    default_seed: int


WORKLOADS = {
    "exhaustive3": Sweep({"n_exhaustive": 3}, default_seed=0),
    "sampled6": Sweep({"n_exhaustive": 2, "n_sampled": 6, "samples": 2}, default_seed=31),
    "wide11": Sweep(
        {
            "n_exhaustive": 0, "n_sampled": 11, "samples": 2,
            "suites": ("operations", "structure", "families"),
        },
        default_seed=0,
    ),
    "cli_queries": Queries(default_seed=0),
}

CLI_SIZES = range(3, 9)
CLI_SPACES_PER_SIZE = 2
#: the literal oracle is only asked when the selector-open family is this small
ORACLE_MAX_MEMBERS = 14


def _permutation(seed: int, default_seed: int, n: int) -> list[int]:
    perm = list(range(n))
    if seed != default_seed:
        random.Random(derive_seed("bench-relabel", seed, n)).shuffle(perm)
    return perm


def relabel(top: Topology, perm: list[int]) -> Topology:
    """The isomorphic space in which point i becomes point perm[i]."""
    opens = []
    for m in top.opens:
        out = 0
        for i, j in enumerate(perm):
            if m >> i & 1:
                out |= 1 << j
        opens.append(out)
    return Topology(top.ground, opens)


def sweep_config(spec: Sweep, seed: int) -> SuiteConfig:
    return SuiteConfig(**spec.config, seed=seed)


def relabel_sampled(spec: Sweep, seed: int, spaces: list[tuple[str, Topology]]) -> list[tuple[str, Topology]]:
    """``spaces`` (those of the default config) with the sampled ones
    relabelled by the seed's permutation; unchanged when it is the
    identity.  Each relabelled space is built, and so validated, anew:
    work the library does not do, which the sweep's timing leaves out."""
    n = sweep_config(spec, spec.default_seed).n_sampled
    perm = _permutation(seed, spec.default_seed, n)
    if perm == sorted(perm):
        return spaces
    return [(label, relabel(top, perm) if top.n == n else top) for label, top in spaces]


def cli_spaces(seed: int) -> list[Topology]:
    """Fixed base spaces of 3 to 8 points, relabelled by the seed."""
    out = []
    for n in CLI_SIZES:
        perm = _permutation(seed, -1, n)
        for k in range(CLI_SPACES_PER_SIZE):
            base = random_topology(n, derive_seed("bench-cli-space", n, k), n)
            out.append(relabel(base, perm))
    return out


def _labels_of(top: Topology, mask: int) -> str:
    return ",".join(top.ground.labels_of_mask(mask))


def cli_queries(seed: int, spaces: list[Topology], paths: list[str]) -> list[tuple[str, list[str]]]:
    """One pass of (command, argv) queries: every space with every builtin
    pair and every kind of query, with seeded point sets, in seeded order.

    Covering every pair keeps the share of expensive queries (large
    selector-open families on 8 points) the same at every seed, so the
    latency tail measures the code rather than the draw."""
    rng = random.Random(derive_seed("bench-cli-queries", seed))
    queries = []
    for top, path in zip(spaces, paths):
        for sel in BUILTIN_NAMES:
            small = len(op_open_family(builtin(top, sel))) <= ORACLE_MAX_MEMBERS
            for enl in BUILTIN_NAMES:
                args = ["--space", path, "--pair", f"{sel},{enl}"]
                queries.append(("families", ["families", *args]))
                core = _labels_of(top, rng.randrange(1, 1 << top.n))
                queries.append(("filter", ["filter", *args, "--core", core, "--report"]))
                for oracle in (False, small):
                    subset = _labels_of(top, rng.randrange(1 << top.n))
                    argv = ["compact", *args, "--set", subset]
                    queries.append(("compact", argv + ["--oracle"] if oracle else argv))
    rng.shuffle(queries)
    return queries
