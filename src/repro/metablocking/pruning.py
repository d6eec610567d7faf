"""Batch Meta-blocking node pruning [12] (extension).

The paper builds its progressive methods *on top of* the Blocking Graph
machinery of batch Meta-blocking.  This module implements the two
node-centric pruning schemes of batch Meta-blocking plus their
reciprocal variants:

* **WNP** (Weighted Node Pruning) - per node, keep edges >= the local mean
  of its neighborhood; an edge survives if either endpoint keeps it;
* **CNP** (Cardinality Node Pruning) - per node, keep the k best edges,
  k = ceil(sum of block sizes / |P|); an edge survives if either endpoint
  keeps it;
* **RWNP** / **RCNP** (Reciprocal WNP / CNP) - as WNP/CNP, but an edge
  survives only if *both* endpoints keep it (higher precision, lower
  recall - the other end of the design space).

What each one does to PPS and PBS is stated by the ``pruning-*`` rows of
``tests/test_paper_claims.py``: all four lift early AUC* (cora, census)
at a cost in recall (cora), and the cardinality pair lifts PBS on
freebase.

All four return the retained comparisons (deduplicated, weighted, ranked
by ``(-weight, i, j)``), i.e. the restructured block collection B' seen
as one comparison per block.

Accumulation orders are part of the contract: a node's WNP threshold
sums its incident edge weights in ascending neighbor order,
sequentially, left to right.  The vectorized kernels
(:mod:`repro.engine.pruning`) reproduce exactly these sums - over the
whole graph or sharded per owner range (``np.bincount`` accumulates
sequentially) - which is what makes the three backends *bit-identical*,
not approximately equal.

:func:`prune` is the backend-dispatching entry point the pipeline's
``.meta(pruning=...)`` stage consumes; the per-algorithm functions
remain the reference implementations.
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING, Callable

from repro.blocking.base import BlockCollection
from repro.blocking.scheduling import block_scheduling
from repro.core.comparisons import Comparison, to_comparisons
from repro.metablocking.blocking_graph import iter_edges
from repro.metablocking.profile_index import ProfileIndex
from repro.metablocking.weights import make_scheme
from repro.registry import pruning_algorithms

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine import Backend

#: The system-wide emission total order every retained stream is ranked by.
_EMISSION_KEY = lambda c: (-c.weight, c.i, c.j)  # noqa: E731


def _weighted_edges(blocks: BlockCollection, scheme_name: str) -> list[Comparison]:
    """All distinct weighted edges, ascending canonical ``(i, j)``: the
    row-major order of :meth:`repro.engine.weights.ArrayBlockingGraph.edges`.
    """
    scheduled = block_scheduling(blocks)
    index = ProfileIndex(scheduled)
    scheme = make_scheme(scheme_name, index)
    return sorted(iter_edges(index, scheme), key=lambda c: c.pair)


def default_cnp_k(blocks: BlockCollection) -> int:
    """The literature's CNP budget: average blocks per profile (ceiling)."""
    assignments = sum(block.size for block in blocks.blocks)
    population = max(1, len(blocks.store))
    return max(1, -(-assignments // population))  # ceiling division


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
    edges = _weighted_edges(blocks, scheme_name)
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
    edges = _weighted_edges(blocks, scheme_name)
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
    edges = _weighted_edges(blocks, scheme_name)
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
    edges = _weighted_edges(blocks, scheme_name)
    if k is None:
        k = default_cnp_k(blocks)
    votes = _node_topk_survivors(_neighborhoods(edges), k)
    kept = [edge for edge in edges if votes.get(edge.pair, 0) == 2]
    kept.sort(key=_EMISSION_KEY)
    return kept


# -- registry ----------------------------------------------------------------
#
# Canonical acronyms follow the Meta-blocking literature.

_REFERENCE_IMPLEMENTATIONS: tuple[tuple[str, tuple[str, ...], Callable], ...] = (
    ("WNP", ("weighted-node-pruning",), weighted_node_pruning),
    ("CNP", ("cardinality-node-pruning",), cardinality_node_pruning),
    (
        "RWNP",
        ("reciprocal-wnp", "reciprocal-weighted-node-pruning"),
        reciprocal_weighted_node_pruning,
    ),
    (
        "RCNP",
        ("reciprocal-cnp", "reciprocal-cardinality-node-pruning"),
        reciprocal_cardinality_node_pruning,
    ),
)

for _name, _aliases, _fn in _REFERENCE_IMPLEMENTATIONS:
    pruning_algorithms.register(_name, _fn, aliases=_aliases)
del _name, _aliases, _fn


#: The four algorithms with vectorized kernels.
_STOCK_ALGORITHMS = frozenset(
    name for name, _aliases, _fn in _REFERENCE_IMPLEMENTATIONS
)


def prune(
    blocks: BlockCollection,
    algorithm: str,
    scheme_name: str = "ARCS",
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
    CNP and RCNP keep the literature budget :func:`default_cnp_k`.
    """
    from repro.engine import get_backend

    entry = pruning_algorithms.entry(algorithm)
    resolved = get_backend(backend).require()
    if not resolved.vectorized:
        return entry.factory(blocks, scheme_name)

    if entry.name not in _STOCK_ALGORITHMS:
        raise NotImplementedError(
            f"pruning algorithm {entry.name!r} has no numpy kernel; "
            "use backend='python' for custom algorithms "
            f"(vectorized: {sorted(_STOCK_ALGORITHMS)})"
        )

    scheduled = block_scheduling(blocks)
    index = resolved.profile_index(scheduled)
    graph = resolved.blocking_graph(index, scheme_name)
    return to_comparisons(
        *resolved.pruned_edges(graph, entry.name, default_cnp_k(blocks)), index.ids
    )
