"""Precomputed spanning-tree plans for graphs with a few unstable edges.

Most edge weights never change; a handful ("unstable" edges) may take a new
value at any moment. For each unstable edge this package precomputes the two
spanning trees that can ever be optimal (the best tree avoiding the edge and
the best tree containing it) together with the weight threshold where the
answer flips. A weight change is then answered by one comparison instead of
a minimum-spanning-tree run.

Also included: edge-constrained MST algorithms (mandatory and forbidden edge
sets), an exhaustive oracle for small instances, text file formats, a random
instance generator, and a command-line front end (``mstplan``).
"""

from .constrained import (
    FORBIDDEN_DISCONNECTS,
    MANDATORY_CYCLE,
    Constraints,
    Infeasible,
    MstResult,
    SpanningTree,
    constrained_mst_kruskal,
    constrained_mst_prim,
    tree_total_weight,
)
from .errors import (
    DisconnectedGraphError,
    Error,
    EventSyntaxError,
    FingerprintMismatchError,
    FormatError,
    FrozenIncompleteError,
    GraphSyntaxError,
    InvalidConstraintsError,
    NonFiniteWeightError,
    NotUnstableError,
    PlanFormatError,
    SelfLoopError,
    StalePlanSetError,
    TooLargeError,
    UnknownEdgeError,
    VertexOutOfRangeError,
)
from .fileio import (
    Event,
    format_events,
    format_graph,
    format_value,
    generate_graph,
    graph_fingerprint,
    parse_events,
    parse_graph,
    plans_from_json,
    plans_to_json,
    read_graph,
    read_plans,
    write_graph,
    write_plans,
)
from .graph import (
    DisjointSetUnion,
    Edge,
    EdgeKind,
    WeaklyDynamicGraph,
    build_graph,
    is_connected,
    set_unstable_weight,
    unstable_values,
)
from .oracle import (
    MAX_ORACLE_EDGES,
    TreeCatalog,
    brute_constrained_min,
    brute_critical_value,
    catalog_total,
    count_spanning_trees,
    enumerate_spanning_trees,
    max_weight_on_tree_path,
)
from .plans import (
    EdgePlan,
    PlanSet,
    Selection,
    TreeKind,
    apply_change,
    precompute_all,
    precompute_plan,
    select_tree,
)

__version__ = "0.1.0"

__all__ = [
    "Constraints",
    "DisconnectedGraphError",
    "DisjointSetUnion",
    "Edge",
    "EdgeKind",
    "EdgePlan",
    "Error",
    "Event",
    "EventSyntaxError",
    "FORBIDDEN_DISCONNECTS",
    "FingerprintMismatchError",
    "FormatError",
    "FrozenIncompleteError",
    "GraphSyntaxError",
    "Infeasible",
    "InvalidConstraintsError",
    "MANDATORY_CYCLE",
    "MAX_ORACLE_EDGES",
    "MstResult",
    "NonFiniteWeightError",
    "NotUnstableError",
    "PlanFormatError",
    "PlanSet",
    "Selection",
    "SelfLoopError",
    "SpanningTree",
    "StalePlanSetError",
    "TooLargeError",
    "TreeCatalog",
    "TreeKind",
    "UnknownEdgeError",
    "VertexOutOfRangeError",
    "WeaklyDynamicGraph",
    "apply_change",
    "brute_constrained_min",
    "brute_critical_value",
    "build_graph",
    "catalog_total",
    "constrained_mst_kruskal",
    "constrained_mst_prim",
    "count_spanning_trees",
    "enumerate_spanning_trees",
    "format_events",
    "format_graph",
    "format_value",
    "generate_graph",
    "graph_fingerprint",
    "is_connected",
    "max_weight_on_tree_path",
    "parse_events",
    "parse_graph",
    "plans_from_json",
    "plans_to_json",
    "precompute_all",
    "precompute_plan",
    "read_graph",
    "read_plans",
    "select_tree",
    "set_unstable_weight",
    "tree_total_weight",
    "unstable_values",
    "write_graph",
    "write_plans",
]
