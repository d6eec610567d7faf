"""Vectorized Meta-blocking pruning over an :class:`ArrayBlockingGraph`.

Array kernels for the four node-pruning algorithms of
:mod:`repro.metablocking.pruning` (WNP/CNP + their reciprocal
variants).  Each kernel reduces to

* a boolean *retention mask* over the graph's canonical edge extraction,
  and
* one ranking pass of the survivors under the system-wide emission order
  ``(-weight, i, j)`` (both in :func:`prune_array_graph`).

Bit-exactness with the reference implementation is engineered, not
hoped for:

* edge weights come from :meth:`ArrayBlockingGraph.edges`, already
  parity-proven against the reference ``scheme.weight(i, j)``;
* WNP node thresholds accumulate each node's *canonical* edge weights in
  ascending-neighbor order through one ``np.bincount`` over
  ``(owner, neighbor)``-sorted directed entries - the same sequential
  order the reference uses.  Canonical weights matter: a graph row
  stores ``finalize(owner, neighbor)``, whose multiplication order can
  differ in the last ulp from ``finalize(i, j)`` for the
  logarithm-discounted schemes (ECBS/EJS), so the kernels scatter the
  upper-triangle weights to both endpoints instead of reading rows;
* CNP tie-breaks follow the exact ``(-weight, i, j)`` total order
  (``np.lexsort``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.engine import require_numpy
from repro.engine.fanout import INLINE, Fanout
from repro.engine.segments import first_k_per_run
from repro.engine.storage import RAM
from repro.engine.topk import rank_pairs

require_numpy("repro.engine.pruning")

import numpy as np  # noqa: E402  (guarded optional dependency)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.weights import ArrayBlockingGraph

#: One pruning result / input: parallel ``(i, j, weight)`` arrays.
EdgeArrays = tuple[np.ndarray, np.ndarray, np.ndarray]


def directed_payload(
    i: np.ndarray, j: np.ndarray, weights: np.ndarray, n: int
) -> dict[str, Any]:
    """Both directions of every edge, sorted by ``(owner, other)``.

    What the node kernels read: ``owners`` with their canonical
    ``doubled_weights``, ``edge_ids`` indexing back into the input
    arrays, and the ``owner_indptr`` delimiting each owner's entries.
    Each owner's entries are contiguous with others ascending - the
    canonical accumulation order of the node kernels, and the axis
    their ranges cut.
    """
    edge_ids = np.arange(i.size, dtype=np.int64)
    owners = np.concatenate([i, j])
    order = np.argsort(owners * n + np.concatenate([j, i]))  # keys are unique
    owners = owners[order]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(owners, minlength=n), out=indptr[1:])
    return {
        "owners": owners,
        "doubled_weights": np.concatenate([weights, weights])[order],
        "edge_ids": np.concatenate([edge_ids, edge_ids])[order],
        "owner_indptr": indptr,
    }


def node_weight_sums(payload: dict[str, Any], shard: tuple[int, int]) -> np.ndarray:
    """Range kernel: summed edge weight of each owner node in ``[lo, hi)``.

    Every owner's entries are contiguous and ``(owner, other)``-sorted,
    so ``np.bincount`` accumulates each node's weights sequentially in
    ascending-neighbor order, bit-identical to the reference loop.
    """
    lo, hi = shard
    indptr = payload["owner_indptr"]
    start, stop = int(indptr[lo]), int(indptr[hi])
    return np.bincount(
        np.asarray(payload["owners"][start:stop]),
        weights=np.asarray(payload["doubled_weights"][start:stop]),
        minlength=hi,
    )[lo:]


def node_topk(payload: dict[str, Any], shard: tuple[int, int]) -> np.ndarray:
    """Range kernel: the edges (ids) in the local top-k of each owner
    node in ``[lo, hi)``.

    ``tie_i``/``tie_j`` are the canonical pair coordinates of each
    directed entry, so ties at equal weight break by ascending
    ``(i, j)`` - the exact order of the reference's
    ``heapq.nlargest(k, ..., key=(weight, -i, -j))``.  The sort by
    ``(owner, -weight, i, j)`` and the truncation of each owner's run at
    ``k`` only ever compare entries of one owner, and an owner lives in
    exactly one range.
    """
    lo, hi = shard
    indptr = payload["owner_indptr"]
    start, stop = int(indptr[lo]), int(indptr[hi])
    owners = np.asarray(payload["owners"][start:stop])
    order = np.lexsort(
        (
            np.asarray(payload["tie_j"][start:stop]),
            np.asarray(payload["tie_i"][start:stop]),
            -np.asarray(payload["doubled_weights"][start:stop]),
            owners,
        )
    )
    selected = order[first_k_per_run(owners[order], payload["k"])]
    return np.asarray(payload["edge_ids"][start:stop])[selected]


def prune_array_graph(
    graph: "ArrayBlockingGraph",
    algorithm: str,
    k: int,
    fanout: Fanout = INLINE,
) -> EdgeArrays:
    """Retained edges of ``graph`` under ``algorithm``, ranked.

    ``algorithm`` must be a canonical name (``WNP``/``CNP``/``RWNP``/
    ``RCNP`` - resolve spellings through
    :data:`repro.registry.pruning_algorithms` first); ``k`` is the
    per-node budget of CNP/RCNP.  Node statistics run per owner range of
    ``fanout``.  The output triple is ordered by ``(-weight, i, j)`` -
    the same stream the reference implementation returns as a
    ``Comparison`` list, bit for bit.
    """
    if algorithm not in ("WNP", "RWNP", "CNP", "RCNP"):
        raise ValueError(
            f"no array kernel for pruning algorithm {algorithm!r}; "
            "expected one of WNP, CNP, RWNP, RCNP"
        )
    i, j, weights = graph.edges()
    if i.size == 0:
        return i, j, weights
    n = graph.index.n_profiles
    payload = directed_payload(i, j, weights, n)
    counts = np.diff(payload["owner_indptr"])
    ranges = fanout.ranges(n, counts)
    if algorithm in ("WNP", "RWNP"):
        sums = RAM.writer(np.float64)
        for part in fanout.run(node_weight_sums, payload, ranges):
            sums.append(part)
        thresholds = np.zeros(n, dtype=np.float64)
        np.divide(sums.finish(), counts, out=thresholds, where=counts > 0)
        clears_i = weights >= thresholds[i]
        clears_j = weights >= thresholds[j]
        mask = clears_i | clears_j if algorithm == "WNP" else clears_i & clears_j
    else:
        payload.update(
            tie_i=i[payload["edge_ids"]], tie_j=j[payload["edge_ids"]], k=k
        )
        selected = RAM.writer(np.int64)
        for part in fanout.run(node_topk, payload, ranges):
            selected.append(part)
        votes = np.zeros(i.size, dtype=np.int64)
        # integer votes: any scatter order gives the same sums
        np.add.at(votes, selected.finish(), 1)
        mask = votes >= 1 if algorithm == "CNP" else votes == 2
    return rank_pairs(i[mask], j[mask], weights[mask])
