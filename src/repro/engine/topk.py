"""Pair ranking under the system-wide emission order ``(-weight, i, j)``."""

from __future__ import annotations

from repro.engine import require_numpy

require_numpy("repro.engine.topk")

import numpy as np  # noqa: E402  (guarded optional dependency)


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
