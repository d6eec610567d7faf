"""The pooled fan-out: a shard plan's ranges over a worker pool.

The engine's passes are range kernels handed a
:class:`~repro.engine.fanout.Fanout` (see that module for why contiguous
ranges reproduce the whole-axis arrays bit for bit).  This is the
``numpy-parallel`` one: ranges come from a
:class:`~repro.parallel.plan.ShardPlan`, a
:class:`~repro.parallel.pool.WorkerPool` runs them, and ranked or
grouped outputs re-merge exactly through :mod:`repro.parallel.merge`.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.engine import require_numpy

require_numpy("repro.parallel.fanout")

import numpy as np  # noqa: E402  (guarded optional dependency)

from repro.engine.fanout import Fanout, Kernel  # noqa: E402
from repro.parallel.merge import (  # noqa: E402
    RankedArrays,
    ShardMerger,
    merge_grouped_counts,
)
from repro.parallel.plan import ShardPlan  # noqa: E402
from repro.parallel.pool import WorkerPool  # noqa: E402


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
        """The shard plan's ranges; ``budget`` (the inline fan-out's
        bound on one range) does not apply - the shard count decides."""
        if masses is None:
            return ShardPlan.uniform(n, self.shards).ranges()
        return ShardPlan.from_masses(masses, self.shards).ranges()

    def run(self, kernel: Kernel, payload: Any, shards: Sequence[Any]) -> list[Any]:
        return self.pool.run(kernel, payload, shards)  # repro-analyze: ignore[fork-safety] kernel checked at the caller's fanout.run site

    def merge_ranked(self, parts: Sequence[RankedArrays]) -> RankedArrays:
        return ShardMerger.merge(parts)

    def merge_counts(
        self, parts: Sequence[tuple[np.ndarray, np.ndarray]]
    ) -> tuple[np.ndarray, np.ndarray]:
        return merge_grouped_counts(parts)
