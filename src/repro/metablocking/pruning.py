"""Batch Meta-blocking pruning algorithms [12] (extension).

The paper builds its progressive methods *on top of* the Blocking Graph
machinery of batch Meta-blocking; the design-space literature
(Maciejewski & Papadakis et al.) shows that the pruning schemes of batch
Meta-blocking dominate the progressiveness frontier when combined with
ranked emission.  This module implements the four classic schemes plus
the two reciprocal node-pruning variants:

* **WEP** (Weighted Edge Pruning) - keep edges with weight >= the global
  mean edge weight;
* **CEP** (Cardinality Edge Pruning) - keep the K globally best edges,
  K = floor(sum of block sizes / 2);
* **WNP** (Weighted Node Pruning) - per node, keep edges >= the local mean
  of its neighborhood; an edge survives if either endpoint keeps it;
* **CNP** (Cardinality Node Pruning) - per node, keep the k best edges,
  k = ceil(sum of block sizes / |P|); an edge survives if either endpoint
  keeps it;
* **RWNP** / **RCNP** (Reciprocal WNP / CNP) - as WNP/CNP, but an edge
  survives only if *both* endpoints keep it (higher precision, lower
  recall - the other end of the design space).

All six return the retained comparisons (deduplicated, weighted, ranked
by ``(-weight, i, j)``), i.e. the restructured block collection B' seen
as one comparison per block.

Accumulation orders are part of the contract: the global WEP mean sums
edge weights in ascending canonical ``(i, j)`` order, and a node's WNP
threshold sums its incident edge weights in ascending neighbor order -
both sequentially, left to right.  The vectorized kernels
(:mod:`repro.engine.pruning`) reproduce exactly these sums - over the
whole graph or sharded per owner range (``np.cumsum``/``np.bincount``
accumulate sequentially) - which is what makes the three backends
*bit-identical*, not approximately equal.

:func:`prune` is the backend-dispatching entry point the pipeline's
``.meta(pruning=...)`` stage consumes; the per-algorithm functions
remain the reference implementations.
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING, Callable

from repro.blocking.base import BlockCollection
from repro.blocking.scheduling import block_scheduling
from repro.core.comparisons import Comparison
from repro.metablocking.blocking_graph import iter_edges
from repro.metablocking.profile_index import ProfileIndex
from repro.metablocking.weights import make_scheme
from repro.registry import pruning_algorithms

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine import Backend

#: The system-wide emission total order every retained stream is ranked by.
_EMISSION_KEY = lambda c: (-c.weight, c.i, c.j)  # noqa: E731


def _weighted_edges(
    blocks: BlockCollection, scheme_name: str
) -> tuple[list[Comparison], ProfileIndex]:
    """All distinct weighted edges, ascending canonical ``(i, j)``.

    The ascending-pair order is the canonical *accumulation* order of the
    global aggregates (WEP's mean); it matches the row-major order of
    :meth:`repro.engine.weights.ArrayBlockingGraph.edges`.
    """
    scheduled = block_scheduling(blocks)
    index = ProfileIndex(scheduled)
    scheme = make_scheme(scheme_name, index)
    edges = sorted(iter_edges(index, scheme), key=lambda c: c.pair)
    return edges, index


def default_cep_k(blocks: BlockCollection) -> int:
    """The literature's CEP budget: half the profile-block assignments."""
    assignments = sum(block.size for block in blocks.blocks)
    return max(1, assignments // 2)


def default_cnp_k(blocks: BlockCollection) -> int:
    """The literature's CNP budget: average blocks per profile (ceiling)."""
    assignments = sum(block.size for block in blocks.blocks)
    population = max(1, len(blocks.store))
    return max(1, -(-assignments // population))  # ceiling division


def weighted_edge_pruning(
    blocks: BlockCollection, scheme_name: str = "ARCS"
) -> list[Comparison]:
    """WEP: retain edges with weight >= the global mean weight."""
    edges, _ = _weighted_edges(blocks, scheme_name)
    if not edges:
        return []
    total = 0.0
    for edge in edges:  # sequential, ascending (i, j) - the contract order
        total += edge.weight
    mean_weight = total / len(edges)
    kept = [edge for edge in edges if edge.weight >= mean_weight]
    kept.sort(key=_EMISSION_KEY)
    return kept


def cardinality_edge_pruning(
    blocks: BlockCollection,
    scheme_name: str = "ARCS",
    k: int | None = None,
) -> list[Comparison]:
    """CEP: retain the K globally best edges.

    ``k`` defaults to the literature's budget: half the total number of
    profile-block assignments (sum of block sizes / 2).
    """
    edges, _ = _weighted_edges(blocks, scheme_name)
    if k is None:
        k = default_cep_k(blocks)
    best = heapq.nlargest(k, edges, key=lambda c: (c.weight, -c.i, -c.j))
    best.sort(key=_EMISSION_KEY)
    return best


def _neighborhoods(
    edges: list[Comparison],
) -> dict[int, list[Comparison]]:
    """Node -> incident edges, each list in ascending-neighbor order.

    Edges arrive ascending ``(i, j)``, so appending gives every ``i``
    endpoint its list sorted by the other endpoint already; the ``j``
    endpoints need one sort.  Ascending-neighbor order is the canonical
    accumulation order of the WNP thresholds.
    """
    by_node: dict[int, list[Comparison]] = {}
    for edge in edges:
        by_node.setdefault(edge.i, []).append(edge)
        by_node.setdefault(edge.j, []).append(edge)
    for node, incident in by_node.items():
        incident.sort(key=lambda c, node=node: c.j if c.i == node else c.i)
    return by_node


def _node_thresholds(by_node: dict[int, list[Comparison]]) -> dict[int, float]:
    """Per-node local mean, accumulated in ascending-neighbor order."""
    thresholds: dict[int, float] = {}
    for node, incident in by_node.items():
        total = 0.0
        for edge in incident:  # sequential - matches the bincount kernels
            total += edge.weight
        thresholds[node] = total / len(incident)
    return thresholds


def weighted_node_pruning(
    blocks: BlockCollection, scheme_name: str = "ARCS"
) -> list[Comparison]:
    """WNP: an edge survives if it clears either endpoint's local mean."""
    edges, _ = _weighted_edges(blocks, scheme_name)
    thresholds = _node_thresholds(_neighborhoods(edges))
    kept = [
        edge
        for edge in edges
        if edge.weight >= thresholds[edge.i] or edge.weight >= thresholds[edge.j]
    ]
    kept.sort(key=_EMISSION_KEY)
    return kept


def reciprocal_weighted_node_pruning(
    blocks: BlockCollection, scheme_name: str = "ARCS"
) -> list[Comparison]:
    """Reciprocal WNP: an edge survives only if it clears *both*
    endpoints' local means (the design-space literature's
    precision-oriented variant)."""
    edges, _ = _weighted_edges(blocks, scheme_name)
    thresholds = _node_thresholds(_neighborhoods(edges))
    kept = [
        edge
        for edge in edges
        if edge.weight >= thresholds[edge.i] and edge.weight >= thresholds[edge.j]
    ]
    kept.sort(key=_EMISSION_KEY)
    return kept


def _node_topk_survivors(
    by_node: dict[int, list[Comparison]], k: int
) -> dict[tuple[int, int], int]:
    """Pair -> number of endpoints whose local top-k retains it (1 or 2)."""
    votes: dict[tuple[int, int], int] = {}
    for incident in by_node.values():
        top = heapq.nlargest(k, incident, key=lambda c: (c.weight, -c.i, -c.j))
        for edge in top:
            votes[edge.pair] = votes.get(edge.pair, 0) + 1
    return votes


def cardinality_node_pruning(
    blocks: BlockCollection,
    scheme_name: str = "ARCS",
    k: int | None = None,
) -> list[Comparison]:
    """CNP: an edge survives if it is a top-k edge of either endpoint.

    ``k`` defaults to ceil(sum of block sizes / |P|), the average number of
    blocks per profile.
    """
    edges, _ = _weighted_edges(blocks, scheme_name)
    if k is None:
        k = default_cnp_k(blocks)
    votes = _node_topk_survivors(_neighborhoods(edges), k)
    kept = [edge for edge in edges if votes.get(edge.pair, 0) >= 1]
    kept.sort(key=_EMISSION_KEY)
    return kept


def reciprocal_cardinality_node_pruning(
    blocks: BlockCollection,
    scheme_name: str = "ARCS",
    k: int | None = None,
) -> list[Comparison]:
    """Reciprocal CNP: an edge survives only if it is a top-k edge of
    *both* endpoints.  ``k`` defaults as in CNP."""
    edges, _ = _weighted_edges(blocks, scheme_name)
    if k is None:
        k = default_cnp_k(blocks)
    votes = _node_topk_survivors(_neighborhoods(edges), k)
    kept = [edge for edge in edges if votes.get(edge.pair, 0) == 2]
    kept.sort(key=_EMISSION_KEY)
    return kept


# -- registry ----------------------------------------------------------------
#
# Canonical acronyms follow the Meta-blocking literature; `takes_k` marks
# the cardinality-based algorithms (the others reject an explicit k).

_REFERENCE_IMPLEMENTATIONS: tuple[tuple[str, tuple[str, ...], bool, Callable], ...] = (
    ("WEP", ("weighted-edge-pruning",), False, weighted_edge_pruning),
    ("CEP", ("cardinality-edge-pruning",), True, cardinality_edge_pruning),
    ("WNP", ("weighted-node-pruning",), False, weighted_node_pruning),
    ("CNP", ("cardinality-node-pruning",), True, cardinality_node_pruning),
    (
        "RWNP",
        ("reciprocal-wnp", "reciprocal-weighted-node-pruning"),
        False,
        reciprocal_weighted_node_pruning,
    ),
    (
        "RCNP",
        ("reciprocal-cnp", "reciprocal-cardinality-node-pruning"),
        True,
        reciprocal_cardinality_node_pruning,
    ),
)

for _name, _aliases, _takes_k, _fn in _REFERENCE_IMPLEMENTATIONS:
    pruning_algorithms.register(_name, _fn, aliases=_aliases, takes_k=_takes_k)
del _name, _aliases, _takes_k, _fn


#: The six algorithms with vectorized kernels.
_STOCK_ALGORITHMS = frozenset(
    name for name, _aliases, _takes_k, _fn in _REFERENCE_IMPLEMENTATIONS
)


def available_pruning_algorithms() -> list[str]:
    """Canonical names of all registered pruning algorithms."""
    return pruning_algorithms.names()


def prune(
    blocks: BlockCollection,
    algorithm: str = "WEP",
    scheme_name: str = "ARCS",
    k: int | None = None,
    backend: "str | Backend" = "python",
) -> list[Comparison]:
    """Prune the Blocking Graph of ``blocks``; the backend-seam entry point.

    Dispatches ``algorithm`` (any spelling; see
    :data:`repro.registry.pruning_algorithms`) to the configured
    execution backend: ``"python"`` runs the reference implementation in
    this module, ``"numpy"`` the CSR kernels of
    :mod:`repro.engine.pruning`, ``"numpy-parallel"`` the same kernels
    sharded over its worker pool.  All three emit the
    *bit-identical* retained stream, ranked by ``(-weight, i, j)``.

    ``k`` overrides the cardinality budget of CEP/CNP/RCNP (the
    weight-based algorithms reject it).
    """
    from repro.engine import get_backend

    entry = pruning_algorithms.entry(algorithm)
    if k is not None and not entry.metadata.get("takes_k", False):
        raise ValueError(
            f"pruning algorithm {entry.name!r} takes no cardinality budget; "
            "k applies to CEP, CNP and RCNP only"
        )
    resolved = get_backend(backend).require()
    if not resolved.vectorized:
        if entry.metadata.get("takes_k", False):
            return entry.factory(blocks, scheme_name, k=k)
        return entry.factory(blocks, scheme_name)

    if entry.name not in _STOCK_ALGORITHMS:
        raise NotImplementedError(
            f"pruning algorithm {entry.name!r} has no numpy kernel; "
            "use backend='python' for custom algorithms "
            f"(vectorized: {sorted(_STOCK_ALGORITHMS)})"
        )

    from repro.engine.topk import iter_comparisons

    scheduled = block_scheduling(blocks)
    index = resolved.profile_index(scheduled)
    graph = resolved.blocking_graph(index, scheme_name)
    if k is None and entry.metadata.get("takes_k", False):
        k = (
            default_cep_k(blocks)
            if entry.name == "CEP"
            else default_cnp_k(blocks)
        )
    return list(iter_comparisons(*resolved.pruned_edges(graph, entry.name, k)))
