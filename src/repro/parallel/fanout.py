"""The pooled fan-out: mass-balanced ranges over a worker pool.

The engine's passes are range kernels handed a
:class:`~repro.engine.fanout.Fanout` (see that module for why contiguous
ranges reproduce the whole-axis arrays bit for bit).  This is the
``numpy-parallel`` one: :func:`balanced_ranges` cuts the row axis, a
:class:`~repro.parallel.pool.WorkerPool` runs the ranges, and the one
pass whose outputs do not simply concatenate - the window kernel's
grouped counts - is summed back in :meth:`PoolFanout.merge_counts`.
Ranking is not a fan-out pass (:func:`repro.engine.topk.rank_pairs`).
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.engine import require_numpy

require_numpy("repro.parallel.fanout")

import numpy as np  # noqa: E402  (guarded optional dependency)

from repro.engine.fanout import Fanout, Kernel  # noqa: E402
from repro.parallel.pool import WorkerPool  # noqa: E402


def balanced_ranges(
    masses: "np.ndarray | int", shards: int
) -> list[tuple[int, int]]:
    """``shards`` contiguous ``(lo, hi)`` ranges of near-equal mass.

    ``masses`` is each row's cost - ``diff(indptr)`` of a CSR axis is
    its postings mass, a faithful proxy for scoring cost - or an int
    ``n`` for ``n`` rows of equal cost.  The ranges are disjoint, cover
    the axis exactly and ascend; degenerate inputs (an empty axis, more
    shards than rows, one row heavier than a whole share) yield empty
    ranges, which every kernel treats as a no-op.

    >>> balanced_ranges(10, 3)
    [(0, 3), (3, 7), (7, 10)]
    >>> balanced_ranges(np.array([1, 1, 1, 9]), 2)
    [(0, 4), (4, 4)]
    """
    if shards < 1:
        raise ValueError(f"shard count must be >= 1, got {shards}")
    if isinstance(masses, int):
        bounds = [round(k * masses / shards) for k in range(shards + 1)]
        return list(zip(bounds[:-1], bounds[1:]))
    cumulative = np.cumsum(np.asarray(masses, dtype=np.int64))
    n = int(cumulative.size)
    total = int(cumulative[-1]) if n else 0
    # Ideal cut points at k/shards of the total mass; searchsorted finds
    # the first row pushing the running mass past each cut.
    targets = (np.arange(1, shards, dtype=np.float64) * total) / shards
    cuts = np.searchsorted(cumulative, targets, side="left") + 1
    # Monotone clip: a huge row can swallow several cut points, which
    # would make boundaries regress; later ranges then come up empty.
    bounds = np.maximum.accumulate(np.minimum(np.concatenate(([0], cuts, [n])), n))
    return list(zip(bounds[:-1].tolist(), bounds[1:].tolist()))


class PoolFanout(Fanout):
    """``shards`` mass-balanced ranges per pass, run by ``pool``."""

    def __init__(self, shards: int, pool: WorkerPool) -> None:
        self.shards = shards
        self.pool = pool

    def ranges(
        self,
        n: int,
        masses: np.ndarray | None = None,
        budget: int | None = None,
    ) -> list[tuple[int, int]]:
        """:func:`balanced_ranges` of the axis: the shard count decides,
        ``budget`` (the inline fan-out's bound on a range) does not apply."""
        return balanced_ranges(int(n) if masses is None else masses, self.shards)

    def run(self, kernel: Kernel, payload: Any, shards: Sequence[Any]) -> list[Any]:
        return self.pool.run(kernel, payload, shards)  # repro-analyze: ignore[fork-safety] kernel checked at the caller's fanout.run site

    def merge_counts(
        self, parts: Sequence[tuple[np.ndarray, np.ndarray]]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Sum-merge per-range ``(sorted unique keys, counts)`` pairs.

        Exactly ``np.unique(concatenated_raw_events,
        return_counts=True)``: keys merge sorted-unique and integer
        counts add, whatever the cut - each range counted the
        co-occurrence events of a contiguous slice of the Neighbor List.
        """
        if not parts:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        keys, group = np.unique(
            np.concatenate([keys for keys, _ in parts]), return_inverse=True
        )
        counts = np.concatenate([counts for _, counts in parts])
        totals = np.bincount(group, weights=counts, minlength=keys.size)
        return keys.astype(np.int64, copy=False), totals.astype(np.int64)
