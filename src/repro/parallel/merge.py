"""Exact re-merging of per-shard outputs.

Two merge shapes cover every sharded kernel:

* :class:`ShardMerger` - k-way merge of per-shard *ranked* comparison
  arrays under the system-wide total order ``(-weight, i, j)``.  The
  merge is comparison-based (no arithmetic on the weights), so the
  merged stream is exactly the sequence a global sort would produce -
  parity with the sequential backends is provable, not approximate.
* :func:`merge_grouped_counts` - sum-merge of per-shard grouped
  ``(key, count)`` arrays, equal to grouping the concatenated raw events
  in one pass (integer counts commute).

Both also handle the degenerate plans the :class:`~repro.parallel.plan.
ShardPlan` constructors can produce: empty shards contribute nothing.
"""

from __future__ import annotations

import heapq
from typing import Iterable, Iterator, Sequence

from repro.engine import require_numpy

require_numpy("repro.parallel.merge")

import numpy as np  # noqa: E402  (guarded optional dependency)

from repro.engine.segments import run_heads  # noqa: E402

#: One shard's ranked output: parallel (i, j, weight) arrays, already
#: ordered by ``(-weight, i, j)``.
RankedArrays = tuple[np.ndarray, np.ndarray, np.ndarray]


class ShardMerger:
    """K-way merge of ranked ``(i, j, weight)`` shard outputs.

    Each input must already be sorted by ``(-weight, i, j)``; the merged
    output is the unique interleaving sorted by the same key.  Weights
    are compared, never recomputed, so merging preserves every bit of
    the shard kernels' floating-point results.  (``-0.0`` and ``0.0``
    compare equal, exactly as in ``np.lexsort`` - ties fall through to
    the ``(i, j)`` key either way.)

    Examples
    --------
    >>> import numpy as np
    >>> a = (np.array([0]), np.array([1]), np.array([2.0]))
    >>> b = (np.array([0, 1]), np.array([2, 2]), np.array([3.0, 1.0]))
    >>> i, j, w = ShardMerger.merge([a, b])
    >>> list(zip(i.tolist(), j.tolist(), w.tolist()))
    [(0, 2, 3.0), (0, 1, 2.0), (1, 2, 1.0)]
    """

    @staticmethod
    def merge_iter(
        shards: Sequence[RankedArrays],
    ) -> Iterator[tuple[int, int, float]]:
        """Lazily yield merged ``(i, j, weight)`` tuples best-first.

        ``heapq.merge`` pays one Python-level comparison per element -
        the same order of per-element cost as materializing the
        ``Comparison`` objects every consumer builds next, so the merge
        never dominates emission.
        """
        streams = []
        for i, j, weights in shards:
            if i.size == 0:
                continue
            streams.append(zip(i.tolist(), j.tolist(), weights.tolist(), strict=True))
        return heapq.merge(
            *streams, key=lambda item: (-item[2], item[0], item[1])
        )

    @staticmethod
    def merge(shards: Sequence[RankedArrays]) -> RankedArrays:
        """Materialize the k-way merge as three parallel arrays."""
        live = [shard for shard in shards if shard[0].size]
        if not live:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty, np.empty(0, dtype=np.float64)
        if len(live) == 1:
            i, j, weights = live[0]
            return (
                np.asarray(i, dtype=np.int64),
                np.asarray(j, dtype=np.int64),
                np.asarray(weights, dtype=np.float64),
            )
        merged = list(ShardMerger.merge_iter(live))
        i = np.fromiter((item[0] for item in merged), np.int64, len(merged))
        j = np.fromiter((item[1] for item in merged), np.int64, len(merged))
        weights = np.fromiter(
            (item[2] for item in merged), np.float64, len(merged)
        )
        return i, j, weights


def merge_grouped_counts(
    grouped: Iterable[tuple[np.ndarray, np.ndarray]],
) -> tuple[np.ndarray, np.ndarray]:
    """Sum-merge per-shard ``(sorted unique keys, counts)`` pairs.

    Exactly equivalent to ``np.unique(concatenated_raw_events,
    return_counts=True)``: keys are merged sorted-unique, counts add.
    Used by the sharded window kernels, where each shard counts the
    co-occurrence events of a contiguous slice of the Neighbor List.
    """
    live = [(keys, counts) for keys, counts in grouped if keys.size]
    if not live:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    if len(live) == 1:
        keys, counts = live[0]
        return keys.astype(np.int64, copy=False), counts.astype(np.int64, copy=False)
    keys = np.concatenate([item[0] for item in live])
    counts = np.concatenate([item[1] for item in live]).astype(np.int64)
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    sorted_counts = counts[order]
    heads = run_heads(sorted_keys)
    group_ids = np.cumsum(heads) - 1
    totals = np.bincount(group_ids, weights=sorted_counts).astype(np.int64)
    return sorted_keys[heads], totals
