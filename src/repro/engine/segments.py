"""Sorted-run idioms the range kernels share.

Every grouping in the engine is "sort, then look at where adjacent keys
change": graph rows group co-occurrence events by edge key, PBS finds
each pair's first (least common) block, PPS and CNP keep the first ``k``
entries of each owner's run.  The three building blocks live here once.
"""

from __future__ import annotations

from repro.engine import require_numpy

require_numpy("repro.engine.segments")

import numpy as np  # noqa: E402  (guarded optional dependency)


def run_heads(sorted_keys: np.ndarray) -> np.ndarray:
    """Boolean mask: True where a run of equal adjacent keys begins."""
    heads = np.empty(sorted_keys.size, dtype=bool)
    if heads.size:
        heads[0] = True
        np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=heads[1:])
    return heads


def stable_groups(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(order, sorted_keys, heads)`` of a stable grouping by key.

    The stable argsort keeps each group's events in stream order, so
    ``order[heads]`` is every group's *first* occurrence and
    ``sorted_keys[heads]`` the distinct keys ascending.
    """
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    return order, sorted_keys, run_heads(sorted_keys)


def first_k_per_run(sorted_keys: np.ndarray, k: int) -> np.ndarray:
    """Boolean mask keeping the first ``k`` entries of every key run.

    The segment-rank truncation: an entry's rank inside its run is its
    position minus the position of the run's head.
    """
    heads = run_heads(sorted_keys)
    positions = np.arange(sorted_keys.size, dtype=np.int64)
    segment_starts = np.maximum.accumulate(np.where(heads, positions, 0))
    return positions - segment_starts < k
