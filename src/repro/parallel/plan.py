"""Shard planning: contiguous, mass-balanced partitions of a CSR axis.

A :class:`ShardPlan` splits the rows of a CSR structure - profiles of a
Blocking Graph, blocks of a collection, positions of a Neighbor List -
into *contiguous* index ranges.  Contiguity is what makes the sharded
kernels provably exact: every sequential engine pass walks its event
stream row-major, so a contiguous row range owns a contiguous slice of
that event stream, and concatenating per-shard outputs in plan order
reproduces the whole-axis arrays bit for bit (see
:mod:`repro.engine.fanout`).

Balance comes from the ``indptr`` array itself: ``diff(indptr)`` is each
row's postings mass - a faithful proxy for its scoring cost - and the
plan cuts the cumulative mass into near-equal parts.  Degenerate inputs
(empty rows, single profile, more shards than rows) yield empty trailing
shards, which every consumer treats as a no-op.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from repro.engine import require_numpy

require_numpy("repro.parallel.plan")

import numpy as np  # noqa: E402  (guarded optional dependency)


@dataclass(frozen=True)
class Shard:
    """One contiguous row range ``[lo, hi)`` of the sharded axis."""

    lo: int
    hi: int

    def __len__(self) -> int:
        return max(0, self.hi - self.lo)

    @property
    def empty(self) -> bool:
        return self.hi <= self.lo


class ShardPlan:
    """An ordered partition of ``[0, n)`` into contiguous shards.

    Build with :meth:`balanced` (mass from a CSR ``indptr``),
    :meth:`from_masses` (explicit per-row costs) or :meth:`uniform`
    (equal row counts).  Shards are disjoint, cover ``[0, n)`` exactly,
    and come back in ascending order - the invariant the mergers rely
    on.

    Examples
    --------
    >>> plan = ShardPlan.uniform(10, 3)
    >>> [(shard.lo, shard.hi) for shard in plan]
    [(0, 3), (3, 7), (7, 10)]
    >>> ShardPlan.uniform(2, 4).shard_count  # more shards than rows
    4
    """

    def __init__(self, shards: Sequence[Shard], n: int) -> None:
        previous = 0
        for shard in shards:
            if shard.lo != previous or shard.hi < shard.lo:
                raise ValueError(
                    f"shards must form a contiguous partition of [0, {n}); "
                    f"got {[(s.lo, s.hi) for s in shards]}"
                )
            previous = shard.hi
        if previous != n:
            raise ValueError(
                f"shards cover [0, {previous}) but the axis has {n} rows"
            )
        self.shards = tuple(shards)
        self.n = n

    # -- constructors --------------------------------------------------------

    @classmethod
    def balanced(cls, indptr: np.ndarray, shards: int) -> "ShardPlan":
        """Cut CSR rows into ``shards`` ranges of near-equal postings mass.

        ``indptr`` is any CSR row-pointer array (length ``n + 1``); the
        mass of row ``r`` is ``indptr[r + 1] - indptr[r]``.  Rows with
        zero mass add nothing, so they attach to whichever shard the cut
        lands them in.
        """
        indptr = np.asarray(indptr, dtype=np.int64)
        return cls.from_masses(np.diff(indptr), shards)

    @classmethod
    def from_masses(cls, masses: np.ndarray, shards: int) -> "ShardPlan":
        """Balanced contiguous partition for explicit per-row masses."""
        if shards < 1:
            raise ValueError(f"shard count must be >= 1, got {shards}")
        masses = np.asarray(masses, dtype=np.int64)
        n = int(masses.size)
        cumulative = np.cumsum(masses)
        total = int(cumulative[-1]) if n else 0
        # Ideal cut points at k/shards of the total mass; searchsorted
        # finds the first row pushing the running mass past each cut.
        targets = (np.arange(1, shards, dtype=np.float64) * total) / shards
        cuts = np.searchsorted(cumulative, targets, side="left") + 1
        bounds = np.concatenate(([0], cuts, [n]))
        # Monotone clip: a huge row can swallow several cut points, which
        # would make boundaries regress; later shards then come up empty.
        bounds = np.maximum.accumulate(np.minimum(bounds, n))
        return cls(
            [Shard(int(lo), int(hi)) for lo, hi in zip(bounds[:-1], bounds[1:], strict=True)],
            n,
        )

    @classmethod
    def uniform(cls, n: int, shards: int) -> "ShardPlan":
        """Equal row-count partition (mass-agnostic fallback)."""
        if shards < 1:
            raise ValueError(f"shard count must be >= 1, got {shards}")
        if n < 0:
            raise ValueError(f"axis size must be >= 0, got {n}")
        bounds = [round(k * n / shards) for k in range(shards + 1)]
        return cls(
            [Shard(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:], strict=True)], n
        )

    # -- views ---------------------------------------------------------------

    @property
    def shard_count(self) -> int:
        return len(self.shards)

    def ranges(self) -> list[tuple[int, int]]:
        """The plan as plain ``(lo, hi)`` tuples (worker task arguments)."""
        return [(shard.lo, shard.hi) for shard in self.shards]

    def nonempty(self) -> list[Shard]:
        """Shards that actually own rows."""
        return [shard for shard in self.shards if not shard.empty]

    def masses(self, indptr: np.ndarray) -> list[int]:
        """Postings mass owned by each shard under ``indptr``."""
        indptr = np.asarray(indptr, dtype=np.int64)
        return [
            int(indptr[shard.hi] - indptr[shard.lo]) for shard in self.shards
        ]

    def __iter__(self) -> Iterator[Shard]:
        return iter(self.shards)

    def __len__(self) -> int:
        return len(self.shards)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ShardPlan({self.ranges()!r}, n={self.n})"
