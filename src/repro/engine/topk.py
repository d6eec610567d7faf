"""Pair ranking and exact top-k comparison selection via ``argpartition``.

The reference cardinality pruning keeps the k best pairs with
``heapq.nlargest``; the array kernels replace the per-pair heap traffic
with one ``np.partition`` threshold plus a sort of just the survivors.

The selection is *exact* under the emission total order
``(-weight, i, j)``: strictly-above-threshold pairs are all kept, and
boundary ties are resolved by ascending ``(i, j)`` - precisely the set
``nlargest`` keeps, in the order it returns it.
"""

from __future__ import annotations

from repro.engine import require_numpy

require_numpy("repro.engine.topk")

import numpy as np  # noqa: E402  (guarded optional dependency)


def sort_pairs_descending(
    i: np.ndarray, j: np.ndarray, weights: np.ndarray
) -> np.ndarray:
    """Indices ordering pairs by ``(-weight, i, j)`` - the emission order
    every Comparison List in the system uses."""
    return np.lexsort((j, i, -weights))


def rank_slice(
    _payload: None, shard: tuple[np.ndarray, np.ndarray, np.ndarray]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Key-sorted pairs ranked, in range-kernel form (the body of
    :func:`rank_pairs`; also the payload-free kernel the pool's
    transport tests borrow).

    The shard carries its own ``(i, j, weight)`` arrays.  They ascend by
    canonical pair, so one stable sort on descending weight leaves
    weight ties in ascending ``(i, j)`` order - the full
    ``(-weight, i, j)`` emission order at a third of the lexsort passes.
    """
    i, j, weights = shard
    order = np.argsort(-weights, kind="stable")
    return i[order], j[order], weights[order]


def rank_pairs(
    i: np.ndarray, j: np.ndarray, weights: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Key-sorted scored pairs in emission order ``(-weight, i, j)``.

    Always the whole axis, in the caller: ranking is one stable sort,
    and cutting it into shards only to merge the rankings back costs
    several times the sort itself (docs/parallel.md) - so it is not a
    fan-out pass.
    """
    return rank_slice(None, (i, j, weights))


def top_k_pairs(
    i: np.ndarray, j: np.ndarray, weights: np.ndarray, k: int
) -> np.ndarray:
    """Indices of the k best pairs under ``(-weight, i, j)``, sorted.

    ``np.partition`` finds the k-th largest weight in O(m); everything
    strictly above it is in by definition, and ties *at* the threshold
    are admitted in ascending ``(i, j)`` order until k is reached.
    """
    m = weights.size
    if k <= 0:
        return np.empty(0, dtype=np.int64)
    if k >= m:
        return sort_pairs_descending(i, j, weights)

    threshold = np.partition(weights, m - k)[m - k]  # k-th largest weight
    above = weights > threshold
    kept = int(above.sum())
    selected = np.nonzero(above)[0]
    need = k - kept
    if need > 0:
        boundary = np.nonzero(weights == threshold)[0]
        boundary = boundary[np.lexsort((j[boundary], i[boundary]))[:need]]
        selected = np.concatenate([selected, boundary])
    return selected[sort_pairs_descending(i[selected], j[selected], weights[selected])]
