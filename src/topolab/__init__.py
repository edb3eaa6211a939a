"""topolab: exact set-operator calculus on finite topological spaces.

The package tabulates expansion operations over bitmask subsets, derives
the interior/closure calculus of operation pairs, runs filter
convergence and cover compactness on top of it, and ships a harness that
sweeps every property over enumerated and sampled spaces.
"""

from .space import (
    GroundSet,
    Topology,
    build_topology,
    chain3,
    default_ground,
    discrete,
    enumerate_topologies,
    indiscrete,
    is_topology,
    random_topology,
    sierpinski,
)
from .ops import (
    BUILTIN_NAMES,
    Operation,
    builtin,
    catalog,
    dual,
    dual_table,
    is_monotone,
    is_operation,
    is_regular_wrt,
    leq,
    neighborhoods,
    op_closed_family,
    op_open_family,
    tabulate,
)
from .pairs import (
    NAMED_FAMILIES,
    BaseReport,
    OpPair,
    StructureReport,
    base_report,
    classify_structure,
    enlargement_base,
    named_family,
    pair_closed_family,
    pair_closure,
    pair_interior,
    pair_open_family,
)
from .filters import (
    Filter,
    accumulates,
    adherence_set,
    converges,
    convergence_closure,
    finer_convergent,
    generated_filter,
    is_filterbase,
    is_t2,
    limit_set,
    maximal_filters,
    member_table,
    nbhd_filterbase,
)
from .compact import (
    NAMED_CLASSES,
    ClosedSpacePredicates,
    CompactnessVerdict,
    CoverSystem,
    SpaceCompactnessFlags,
    additive_hypothesis,
    brute_force_compact,
    brute_force_compact_images,
    closed_space_predicates,
    compactness_kind,
    failing_plane,
    is_compact,
    is_cover,
    named_set_class,
    space_compactness_flags,
)

__version__ = "0.1.0"

from .jsonio import (  # noqa: E402  (jsonio pulls nothing back from here)
    SchemaError,
    dumps_space,
    loads_space,
    operation_from_dict,
    operation_to_dict,
    parse_operation,
    parse_space,
    space_from_dict,
    space_to_dict,
    write_space,
)
from .harness import (  # noqa: E402  (harness reads __version__ above)
    CATALOG_PAIRS,
    MINE_TARGETS,
    SUITE_NAMES,
    Report,
    SuiteConfig,
    emit_report,
    mine_counterexamples,
    run_suites,
    sweep_spaces,
)
