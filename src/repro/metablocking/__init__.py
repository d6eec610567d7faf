"""Meta-blocking substrate: Profile Index, Blocking Graph, edge weighting."""

from repro.metablocking.blocking_graph import (
    build_blocking_graph,
    edge_count,
    iter_edges,
)
from repro.metablocking.profile_index import ProfileIndex
from repro.metablocking.pruning import (
    available_pruning_algorithms,
    cardinality_edge_pruning,
    cardinality_node_pruning,
    prune,
    reciprocal_cardinality_node_pruning,
    reciprocal_weighted_node_pruning,
    weighted_edge_pruning,
    weighted_node_pruning,
)
from repro.metablocking.weights import (
    ARCS,
    CBS,
    ECBS,
    EJS,
    JS,
    WeightingScheme,
    available_schemes,
    make_scheme,
)

__all__ = [
    "build_blocking_graph",
    "edge_count",
    "iter_edges",
    "ProfileIndex",
    "available_pruning_algorithms",
    "cardinality_edge_pruning",
    "cardinality_node_pruning",
    "prune",
    "reciprocal_cardinality_node_pruning",
    "reciprocal_weighted_node_pruning",
    "weighted_edge_pruning",
    "weighted_node_pruning",
    "ARCS",
    "CBS",
    "ECBS",
    "EJS",
    "JS",
    "WeightingScheme",
    "available_schemes",
    "make_scheme",
]
