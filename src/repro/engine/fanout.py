"""Which ranges an engine pass is cut into, and who runs them.

Every vectorized pass of the engine is one *range kernel*: a
module-level ``kernel(payload, shard)`` whose ``shard`` names a
contiguous slice ``[lo, hi)`` of the pass's row axis (profiles, blocks,
Neighbor-List positions, pairs to decide).  The sequential engine walks
each event stream row-major, so a contiguous row range owns a contiguous
slice of that stream: per-key accumulation order is preserved inside a
range, and putting the per-range outputs back together in range order
reproduces the whole-axis arrays bit for bit.  The whole axis is simply
the one-range case.

A :class:`Fanout` decides the rest - *which* ranges and *who* runs
them.  This one is the engine's own: one inline range, or - when the
caller names a ``budget`` because its outputs spill to disk, or because
the ranges are PBS's progressive schedule - inline mass cuts of about
that size, consumed one at a time so resident memory stays bounded and
no range is computed before it is asked for.  :mod:`repro.parallel`
supplies the other: mass-balanced ranges over a worker pool.

Ranking scored pairs is deliberately *not* a pass here
(:func:`repro.engine.topk.rank_pairs` is one stable sort in the caller):
a sharded ranking needs a merge that costs more than the sort.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Sequence

from repro.engine import require_numpy

require_numpy("repro.engine.fanout")

import numpy as np  # noqa: E402  (guarded optional dependency)

from repro.engine.csr import _mass_cuts  # noqa: E402

#: A range kernel: ``kernel(payload, shard)``, module-level so that it
#: pickles by path into worker processes.
Kernel = Callable[[Any, Any], Any]


class Fanout:
    """The inline fan-out: one range, run in the calling process."""

    def ranges(
        self,
        n: int,
        masses: np.ndarray | None = None,
        budget: int | None = None,
    ) -> list[tuple[int, int]]:
        """Contiguous ``(lo, hi)`` ranges covering ``[0, n)`` in order.

        ``masses`` is the per-row cost (uniform when ``None``).  Without
        a ``budget`` that is the whole axis; with one, rows are cut into
        runs of about ``budget`` total mass (a row is never split).
        """
        if budget is None:
            return [(0, n)]
        if masses is None:
            return [(lo, min(lo + budget, n)) for lo in range(0, n, budget)]
        cuts = _mass_cuts(masses, budget)
        return list(zip(cuts[:-1], cuts[1:]))

    def run(
        self, kernel: Kernel, payload: Any, shards: Sequence[Any]
    ) -> Iterable[Any]:
        """``kernel(payload, shard)`` per shard, in shard order.

        Lazy: a consumer that spills each result before asking for the
        next holds one range's output at a time.
        """
        return (kernel(payload, shard) for shard in shards)

    def merge_counts(
        self, parts: Sequence[tuple[np.ndarray, np.ndarray]]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-range grouped ``(keys, counts)`` as one grouping."""
        (whole,) = parts
        return whole


#: The shared inline fan-out (stateless).
INLINE = Fanout()
