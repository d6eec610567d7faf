"""Array emission cores for the equality-based methods (PPS and PBS).

Both cores consume the same two structures - an
:class:`~repro.engine.csr.ArrayProfileIndex` and an
:class:`~repro.engine.weights.ArrayBlockingGraph` - and reproduce the
reference emission streams bit for bit (see the module docstring of
:mod:`repro.engine.weights` for how exactness is engineered).

* :class:`ArrayPPSCore` - Algorithms 5-6 (Section 5.2.2): duplication
  likelihoods and per-profile best comparisons fall out of per-row array
  reductions over the graph's rows; the emission phase replaces the
  SortedStack with :func:`repro.engine.topk.top_k_pairs`.
* :class:`ArrayPBSCore` - Algorithms 3-4 (Section 5.2.1): a block's
  comparisons are weighted when the block is scheduled.  The block axis
  is walked in ranges of about ``RANGE_BUDGET`` comparisons;
  :func:`new_block_pairs` enumerates one range, finds every pair's
  common blocks by probing the Profile Index (the first *is* the least
  common block of the LeCoBI test, their contributions sum to the raw
  weight) and keeps the new pairs.  No graph row is built and nothing
  the core holds grows with |E|.
"""

from __future__ import annotations

import itertools
from typing import Any, Iterable, Iterator, Sequence

from repro.core.comparisons import Comparison, ComparisonList
from repro.engine import require_numpy
from repro.engine.csr import ArrayProfileIndex, multi_arange
from repro.engine.fanout import INLINE, Fanout
from repro.engine.segments import first_k_per_run, run_heads
from repro.engine.topk import iter_comparisons, top_k_pairs
from repro.engine.weights import ArrayBlockingGraph, common_block_weights

require_numpy("repro.engine.equality")

import numpy as np  # noqa: E402  (guarded optional dependency)


def pps_schedule(
    payload: dict[str, Any], shard: tuple[int, int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Range kernel: the Algorithm 6 emissions owned by profiles ``[lo, hi)``.

    Processing the Sorted Profile List in order with a persistent
    ``checkedEntities`` set means edge (i, j) is considered exactly
    once, from whichever endpoint is scheduled *earlier* - i.e. keep
    the edge iff ``rank[neighbor] > rank[owner]``.  Sorting the kept
    edges by ``(rank[owner], -weight, neighbor)`` and truncating each
    owner segment at K_max reproduces the per-profile SortedStack
    drains end to end, without any per-profile Python work.

    Returns ``(i, j, weight, owner rank)`` in that order.  An owner
    lives in exactly one range, so over the whole axis this *is* the
    emission, and over several ranges one stable sort of the outputs by
    owner rank interleaves them into it.
    """
    lo, hi = shard
    indptr = payload["indptr"]
    rank = payload["rank"]
    start, stop = int(indptr[lo]), int(indptr[hi])
    neighbors = np.asarray(payload["neighbors"][start:stop])
    weights = np.asarray(payload["weights"][start:stop])
    owners = np.repeat(
        np.arange(lo, hi, dtype=np.int64), np.diff(indptr[lo : hi + 1])
    )
    keep = rank[neighbors] > rank[owners]
    owner = owners[keep]
    neighbor = neighbors[keep]
    weight = weights[keep]

    owner_rank = rank[owner]
    # For a fixed owner, ordering by bare neighbor id equals ordering
    # by the canonical (i, j) pair, so three sort keys suffice.
    emission_order = np.lexsort((neighbor, -weight, owner_rank))
    segment_rank = owner_rank[emission_order]
    kept = first_k_per_run(segment_rank, payload["k"])
    selected = emission_order[kept]
    return (
        np.minimum(owner[selected], neighbor[selected]),
        np.maximum(owner[selected], neighbor[selected]),
        weight[selected],
        segment_rank[kept],
    )


def block_pairs(
    payload: dict[str, Any], shard: tuple[int, int]
) -> tuple[np.ndarray, np.ndarray]:
    """Range kernel: canonical comparison pairs of blocks ``[blo, bhi)``.

    Blocks are batched by shape (size for Dirty ER, left x right split
    for Clean-clean) so pair generation is a handful of 2-D array
    operations per *distinct* shape instead of one call per block; each
    batch scatters into its blocks' slots of the block-major event
    arrays.  Pair order inside a block depends on that block alone, so
    a block range's output is the contiguous slice of the whole-axis
    event arrays its blocks own.
    """
    blo, bhi = shard
    bp_indptr = payload["bp_indptr"]
    bp_indices = payload["bp_indices"]
    cardinalities = np.asarray(payload["cardinalities"][blo:bhi])
    sources = payload["sources"]
    clean_clean = payload["clean_clean"]

    sizes = np.diff(bp_indptr[blo : bhi + 1])
    indptr = np.zeros(bhi - blo + 1, dtype=np.int64)
    np.cumsum(cardinalities, out=indptr[1:])
    total = int(indptr[-1])
    pair_i = np.empty(total, dtype=np.int64)
    pair_j = np.empty(total, dtype=np.int64)
    if total == 0:
        return pair_i, pair_j

    if clean_clean:
        left_sizes = np.zeros(bhi - blo, dtype=np.int64)
        entry_owners = np.repeat(np.arange(bhi - blo, dtype=np.int64), sizes)
        members_all = np.asarray(bp_indices[bp_indptr[blo] : bp_indptr[bhi]])
        np.add.at(left_sizes, entry_owners, sources[members_all] == 0)  # repro-analyze: ignore[determinism] integer count scatter, order-independent
        shapes = left_sizes * (int(sizes.max()) + 1) + sizes
    else:
        shapes = sizes

    for shape in np.unique(shapes):
        batch = np.nonzero((shapes == shape) & (cardinalities > 0))[0]
        if batch.size == 0:
            continue
        size = int(sizes[batch[0]])
        members = bp_indices[
            multi_arange(bp_indptr[blo + batch], np.full(batch.size, size))
        ].reshape(batch.size, size)
        if clean_clean:
            # Stable sort by source keeps each side's in-block order,
            # then every row is [left..., right...].
            split = int(left_sizes[batch[0]])
            order = np.argsort(sources[members], axis=1, kind="stable")
            members = np.take_along_axis(members, order, axis=1)
            left, right = members[:, :split], members[:, split:]
            raw_i = np.repeat(left, size - split, axis=1).ravel()
            raw_j = np.tile(right, (1, split)).ravel()
        else:
            a, b = np.triu_indices(size, 1)
            raw_i = members[:, a].ravel()
            raw_j = members[:, b].ravel()
        slots = multi_arange(
            indptr[batch], np.full(batch.size, int(cardinalities[batch[0]]))
        )
        pair_i[slots] = np.minimum(raw_i, raw_j)
        pair_j[slots] = np.maximum(raw_i, raw_j)
    return pair_i, pair_j


def new_block_pairs(
    payload: dict[str, Any], shard: tuple[int, int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Range kernel: the new comparisons of blocks ``[blo, bhi)``.

    Algorithm 3 lines 4-12 for a run of scheduled blocks: enumerate
    their pairs (:func:`block_pairs`), keep a pair in the block that is
    its least common one (the LeCoBI condition - every other occurrence
    is a repeat) and return ``(block, i, j, raw weight)`` block-major.
    Both the test and the weight read the Profile Index alone, so a
    range depends on nothing outside itself and any cut of the block
    axis concatenates to the whole-axis output.
    """
    blo, bhi = shard
    pair_i, pair_j = block_pairs(payload, shard)
    block = np.repeat(
        np.arange(blo, bhi, dtype=np.int64),
        np.asarray(payload["cardinalities"][blo:bhi]),
    )
    least, raw = common_block_weights(payload, pair_i, pair_j)
    new = least == block
    return block[new], pair_i[new], pair_j[new], raw[new]


class ArrayPPSCore:
    """Vectorized initialization + emission state for PPS.

    Parameters
    ----------
    index:
        The CSR profile index over the scheduled block collection.
    graph:
        The materialized, weighted Blocking Graph over ``index``.
    k_max:
        Emission batch bound per scheduled profile; ``None`` applies the
        same adaptive rule as the reference implementation.
    fanout:
        The ranges :func:`pps_schedule` runs over, and who runs them.
    """

    __slots__ = ("index", "graph", "k_max", "fanout", "_checked")

    def __init__(
        self,
        index: ArrayProfileIndex,
        graph: ArrayBlockingGraph,
        k_max: int | None,
        fanout: Fanout = INLINE,
    ) -> None:
        self.index = index
        self.graph = graph
        self.fanout = fanout
        if k_max is None:
            # Same adaptive rule (and Python arithmetic) as the reference:
            # average block comparisons per profile, clamped to [10, 50].
            population = max(1, len(self.index.indexed_profiles()))
            aggregate = int(self.index.block_cardinalities.sum())
            k_max = max(10, min(50, round(2 * aggregate / population)))
        self.k_max = k_max
        self._checked = np.zeros(self.index.n_profiles, dtype=bool)

    # -- initialization phase (Algorithm 5) ----------------------------------

    def init_lists(self) -> tuple[list[tuple[int, float]], ComparisonList]:
        """(Sorted Profile List, initial Comparison List).

        Per profile: duplication likelihood = mean finalized edge weight
        (summed in first-encounter order, matching the reference dict
        iteration) and the single best comparison (max weight, ties to
        the first-encountered neighbor).  Both fall out of two global
        array passes over the graph rows - no per-profile loop.
        """
        graph = self.graph
        n = self.index.n_profiles
        row_lengths = np.diff(graph.indptr)
        present = np.nonzero(row_lengths)[0]
        if present.size == 0:
            return [], ComparisonList()
        owners = np.repeat(np.arange(n, dtype=np.int64), row_lengths)

        # Likelihoods: reorder each row into encounter order (one int
        # argsort - the global first-event index is owner-major already),
        # then one bincount accumulates every row left-to-right
        # (bit-identical to the reference's dict-iteration sum).
        encounter = np.argsort(graph.first_event_index)
        sums = np.bincount(
            owners[encounter], weights=graph.weights[encounter], minlength=n
        )
        likelihoods = sums[present] / row_lengths[present]

        # Best comparison per profile: row maxima via one reduceat, then
        # the earliest-encountered entry among the per-row ties - the
        # reference's running-max with strict improvement keeps exactly
        # that neighbor.
        row_max = np.maximum.reduceat(graph.weights, graph.indptr[present])
        dense_max = np.empty(n, dtype=np.float64)
        dense_max[present] = row_max
        ties = np.nonzero(graph.weights == dense_max[owners])[0]
        ties = ties[np.argsort(graph.first_event_index[ties])]
        best = ties[run_heads(owners[ties])]  # one entry per present profile, ascending
        best_neighbors = graph.neighbors[best]
        best_weights = graph.weights[best]
        pair_i = np.minimum(present, best_neighbors)
        pair_j = np.maximum(present, best_neighbors)

        profile_list = list(zip(present.tolist(), likelihoods.tolist(), strict=True))
        profile_list.sort(key=lambda item: (-item[1], item[0]))

        top_comparisons: dict[tuple[int, int], float] = {}
        for i, j, weight in zip(
            pair_i.tolist(), pair_j.tolist(), best_weights.tolist(), strict=True
        ):
            existing = top_comparisons.get((i, j))
            if existing is None or weight > existing:
                top_comparisons[(i, j)] = weight
        initial = ComparisonList()
        initial.extend(
            Comparison(i, j, weight) for (i, j), weight in top_comparisons.items()
        )
        return profile_list, initial

    # -- emission phase (Algorithm 6) ----------------------------------------

    def sync_checked(self, checked: Iterable[int]) -> None:
        """Mirror a ``checkedEntities`` set into the boolean mask.

        Always rebuilt from scratch: the hot emission path precomputes
        the whole schedule in :meth:`emit_schedule` and never passes
        through here, so per-call O(|checked|) is only paid by direct
        :meth:`PPS.profile_comparisons` API use - and rebuilding keeps
        arbitrary in-place set mutations (add/discard between calls)
        correct.
        """
        self._checked[:] = False
        checked = list(checked)
        if checked:
            self._checked[np.asarray(checked, dtype=np.int64)] = True

    def profile_topk(self, profile_id: int, k: int) -> list[Comparison]:
        """The k best unchecked comparisons of one scheduled profile,
        in emission order (replaces the SortedStack drain)."""
        neighbors, weights = self.graph.row(profile_id)
        keep = ~self._checked[neighbors]
        neighbors, weights = neighbors[keep], weights[keep]
        if neighbors.size == 0:
            return []
        i = np.minimum(profile_id, neighbors)
        j = np.maximum(profile_id, neighbors)
        order = top_k_pairs(i, j, weights, k)
        return list(iter_comparisons(i[order], j[order], weights[order]))

    def emit_schedule(
        self, schedule: Sequence[int], k: int
    ) -> Iterator[Comparison]:
        """The entire Algorithm 6 emission, precomputed by
        :func:`pps_schedule` over the fan-out's owner ranges."""
        graph = self.graph
        n = self.index.n_profiles
        order_pids = np.asarray(schedule, dtype=np.int64)
        rank = np.full(n, n, dtype=np.int64)
        rank[order_pids] = np.arange(order_pids.size, dtype=np.int64)
        payload = {
            "indptr": graph.indptr,
            "neighbors": graph.neighbors,
            "weights": graph.weights,
            "rank": rank,
            "k": k,
        }
        ranges = self.fanout.ranges(n, np.diff(graph.indptr))
        parts = list(self.fanout.run(pps_schedule, payload, ranges))
        if len(parts) == 1:
            i, j, weight, _ = parts[0]
        else:
            i, j, weight, owner_rank = (
                np.concatenate(column) for column in zip(*parts)
            )
            by_rank = np.argsort(owner_rank, kind="stable")
            i, j, weight = i[by_rank], j[by_rank], weight[by_rank]
        return iter_comparisons(i, j, weight)

    def exhaustive_tail(
        self, emitted: set[tuple[int, int]]
    ) -> Iterator[Comparison]:
        """Every comparison of the blocks that is not in ``emitted``.

        The optional tail of :class:`~repro.progressive.pps.PPS`: blocks
        in processing order, a pair in the block where it is first
        encountered, in the block's own pair order - what
        :func:`new_block_pairs` returns - weighted a range of blocks at
        a time (its raw weights are the very sums the scalar
        ``graph.weight`` makes pair by pair).
        """
        index = self.index
        n = index.n_profiles
        # Ascending keys plus a sentinel, so membership is one in-bounds
        # searchsorted per range.
        keys = (i * n + j for i, j in emitted)  # repro-analyze: ignore[determinism] sorted on the next line
        seen = np.sort(np.fromiter(keys, np.int64, len(emitted)))
        seen = np.append(seen, np.iinfo(np.int64).max)
        ranges = self.fanout.ranges(
            index.block_count(),
            index.block_cardinalities,
            ArrayPBSCore.RANGE_BUDGET,
        )
        for _block, i, j, raw in self.fanout.run(
            new_block_pairs, self.graph.payload, ranges
        ):
            pairs = i * n + j
            fresh = seen[np.searchsorted(seen, pairs)] != pairs
            i, j, raw = i[fresh], j[fresh], raw[fresh]
            yield from iter_comparisons(i, j, self.graph.finalize(i, j, raw))


class ArrayPBSCore:
    """Block-range enumeration + emission for PBS, one range at a time.

    Parameters
    ----------
    index:
        The CSR profile index over the scheduled block collection.
    graph:
        The Blocking Graph over ``index``: the weight authority (its
        ``payload`` feeds the kernel, its scheme finalizes the raw
        weights); its rows are never read.
    fanout:
        The ranges :func:`new_block_pairs` runs over, and who runs them.
    """

    __slots__ = ("index", "graph", "fanout")

    #: Block comparisons enumerated per range.  The ranges *are* the
    #: progressive schedule: the pull that crosses into a new range pays
    #: for weighting it, and nothing beyond it exists yet.  A few pulls'
    #: worth keeps that pull short and the range's arrays in cache: on
    #: ``hetero-movies`` the p99 of a 1,000-comparison pull is 4 ms here
    #: and 36 ms at 65,536, at slightly better throughput.  A block
    #: larger than the budget is a range of its own (rows never split).
    RANGE_BUDGET = 1 << 12

    def __init__(
        self,
        index: ArrayProfileIndex,
        graph: ArrayBlockingGraph,
        fanout: Fanout = INLINE,
    ) -> None:
        self.index = index
        self.graph = graph
        self.fanout = fanout

    def _stream(self, ranges: Sequence[tuple[int, int]]) -> Iterator[Comparison]:
        """The new comparisons of ``ranges``: blocks in scheduling
        order, best-first inside each.  A range is weighted by the pull
        that reaches it (``chain`` asks for the next one only then)."""
        parts = self.fanout.run(new_block_pairs, self.graph.payload, ranges)
        return itertools.chain.from_iterable(map(self._ranked, parts))

    def _ranked(
        self, part: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
    ) -> Iterator[Comparison]:
        """One range's kernel output, finalized and ordered once by
        ``(block, -weight, i, j)``."""
        block, i, j, raw = part
        weights = self.graph.finalize(i, j, raw)
        order = np.lexsort((j, i, -weights, block))
        return iter_comparisons(i[order], j[order], weights[order])

    def block_comparisons(self, block_id: int) -> list[Comparison]:
        """New (non-repeated) weighted comparisons of one block, in
        emission order: the one-block range of the same kernel."""
        return list(self._stream([(block_id, block_id + 1)]))

    def emit(self) -> Iterator[Comparison]:
        """All blocks in scheduling order, best-first inside each."""
        index = self.index
        return self._stream(
            self.fanout.ranges(
                index.block_count(), index.block_cardinalities, self.RANGE_BUDGET
            )
        )
