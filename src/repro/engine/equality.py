"""Array emission cores for the equality-based methods (PPS and PBS).

Both cores consume the same two structures - an
:class:`~repro.engine.csr.ArrayProfileIndex` and an
:class:`~repro.engine.weights.ArrayBlockingGraph` - and reproduce the
reference emission streams bit for bit (see the module docstring of
:mod:`repro.engine.weights` for how exactness is engineered).

* :class:`ArrayPPSCore` - Algorithms 5-6 (Section 5.2.2): duplication
  likelihoods and per-profile best comparisons fall out of per-row array
  reductions over the graph's rows; the emission phase ranks a range of
  the Sorted Profile List at a time in place of the per-profile
  SortedStack (:func:`pps_schedule`).
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
from typing import Any, Iterable, Iterator

from repro.core import comparisons
from repro.core.comparisons import Comparison, comparison_chunks
from repro.engine import require_numpy
from repro.engine.csr import ArrayProfileIndex, multi_arange
from repro.engine.fanout import INLINE, Fanout
from repro.engine.segments import first_k_per_run, run_heads
from repro.engine.topk import rank_pairs
from repro.engine.weights import ArrayBlockingGraph, common_block_weights

require_numpy("repro.engine.equality")

import numpy as np  # noqa: E402  (guarded optional dependency)


def pps_schedule(
    payload: dict[str, Any], shard: tuple[int, int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Range kernel: the Algorithm 6 emissions of Sorted Profile List
    positions ``[lo, hi)``.

    Processing the Sorted Profile List in order with a persistent
    ``checkedEntities`` set means edge (i, j) is considered exactly
    once, from whichever endpoint is scheduled *earlier* - i.e. keep
    the edge iff ``rank[neighbor] > rank[owner]``.  Sorting the kept
    edges by ``(rank[owner], -weight, neighbor)`` and truncating each
    owner segment at K_max reproduces the per-profile SortedStack
    drains end to end, without any per-profile Python work.

    Returns ``(i, j, weight)``, the pairs ``int64`` (each pairs an
    ``int64`` schedule id with a 32-bit row neighbor).  Ranges are
    consecutive in rank, so their outputs concatenated in range order
    *are* the emission.
    """
    lo, hi = shard
    indptr = payload["indptr"]
    owners = payload["schedule"][lo:hi]
    lengths = indptr[owners + 1] - indptr[owners]
    entries = multi_arange(indptr[owners], lengths)
    neighbors = np.asarray(payload["neighbors"][entries])
    weights = np.asarray(payload["weights"][entries])
    owner_rank = np.repeat(np.arange(lo, hi, dtype=np.int64), lengths)
    keep = payload["rank"][neighbors] > owner_rank
    owner_rank = owner_rank[keep]
    neighbor = neighbors[keep]
    weight = weights[keep]

    # The kept edges are rank-major with each row's neighbors ascending
    # (for a fixed owner that is the canonical (i, j) order), so two
    # stable passes - by -weight, then by owner rank - give the
    # (owner rank, -weight, neighbor) order.
    by_weight = np.argsort(-weight, kind="stable")
    emission_order = by_weight[np.argsort(owner_rank[by_weight], kind="stable")]
    selected = emission_order[
        first_k_per_run(owner_rank[emission_order], payload["k"])
    ]
    owner = payload["schedule"][owner_rank[selected]]
    return (
        np.minimum(owner, neighbor[selected]),
        np.maximum(owner, neighbor[selected]),
        weight[selected],
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
        np.add.at(left_sizes, entry_owners, sources[members_all] == 0)  # integer counts: any scatter order gives the same sums
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

    __slots__ = (
        "index", "graph", "k_max", "fanout", "_schedule", "_likelihoods", "_top"
    )

    #: Graph-row entries per range of the Sorted Profile List, ranked
    #: when a pull reaches it: a budget that ends early never ranks the
    #: rest (on ``decide-cddb`` the first range is 454 of 4,882 profiles).
    RANGE_BUDGET = 1 << 16

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
        #: The Sorted Profile List's ids and likelihoods; the initial
        #: Comparison List (top comparisons) as ranked ``(i, j, weight)``,
        #: ``None`` once emitted.
        self._schedule = np.empty(0, dtype=np.int64)
        self._likelihoods = np.empty(0, dtype=np.float64)
        self._top: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    # -- initialization phase (Algorithm 5) ----------------------------------

    def init_lists(self) -> None:
        """Build both initial lists, the Sorted Profile List as arrays.

        Per profile: duplication likelihood = mean finalized edge weight
        (summed in first-encounter order, matching the reference dict
        iteration) and the single best comparison (max weight, ties to
        the first-encountered neighbor).  Both fall out of array passes
        over owner ranges of at most ``EVENT_BUDGET`` row entries, and
        both lists are ranked in arrays - no per-profile loop.  The
        encounter order permutes entries inside their own rows only, so
        a range reads its own slice of the rows and nothing E-sized is
        allocated.
        """
        graph = self.graph
        n = self.index.n_profiles
        indptr = graph.indptr
        row_lengths = np.diff(indptr)
        present = np.nonzero(row_lengths)[0]
        if present.size == 0:
            return
        sums = np.zeros(n, dtype=np.float64)
        best = np.zeros(n, dtype=np.int64)  # row entry of each best comparison
        for lo, hi in INLINE.ranges(n, row_lengths, graph.EVENT_BUDGET):
            start, stop = int(indptr[lo]), int(indptr[hi])
            lengths = row_lengths[lo:hi]
            owners = np.repeat(np.arange(hi - lo), lengths)
            encounter = np.asarray(graph.encounter[start:stop]) - start
            weights = np.asarray(graph.weights[start:stop])

            # Likelihoods: read each row in encounter order; one bincount
            # accumulates every row left to right (bit-identical to the
            # reference's dict-iteration sum).
            sums[lo:hi] = np.bincount(
                owners, weights=weights[encounter], minlength=hi - lo
            )

            # Best comparison: row maxima via one reduceat, then the
            # earliest-encountered entry among the row's ties - the
            # reference's running max with strict improvement keeps
            # exactly that neighbor.
            rows = np.nonzero(lengths)[0]
            row_max = np.zeros(hi - lo, dtype=np.float64)
            row_max[rows] = np.maximum.reduceat(weights, indptr[lo + rows] - start)
            ties = encounter[(weights == row_max[owners])[encounter]]
            heads = ties[run_heads(owners[ties])]
            best[lo + owners[heads]] = heads + start
        likelihoods = sums[present] / row_lengths[present]
        best_neighbors = graph.neighbors[best[present]]
        best_weights = graph.weights[best[present]]
        # Pairs leave the graph as int64 (``present`` is), so the keys
        # below never wrap.
        pair_i = np.minimum(present, best_neighbors)
        pair_j = np.maximum(present, best_neighbors)

        by_likelihood = np.lexsort((present, -likelihoods))
        self._schedule = present[by_likelihood]
        self._likelihoods = likelihoods[by_likelihood]

        # Two profiles can name the same best pair (with last-ulp
        # different weights under ECBS/EJS): keep its highest weight.
        keys = pair_i * n + pair_j
        by_pair = np.lexsort((-best_weights, keys))
        kept = by_pair[run_heads(keys[by_pair])]
        self._top = rank_pairs(pair_i[kept], pair_j[kept], best_weights[kept])

    def sorted_profile_list(self) -> list[tuple[int, float]]:
        """``(profile id, duplication likelihood)`` in schedule order,
        built from the two arrays :meth:`init_lists` keeps."""
        return list(zip(self._schedule.tolist(), self._likelihoods.tolist()))

    # -- emission phase (Algorithm 6) ----------------------------------------

    def chunks(self, k: int, exhaustive: bool) -> Iterator[list[Comparison]]:
        """Algorithm 6 as ranked chunks: the initial Comparison List
        (consumed, like the reference's drain), then the schedule, a
        range of the Sorted Profile List ranked when a pull reaches it,
        then with ``exhaustive`` the tail.

        A range's short last chunk is topped up from the next range, so
        every schedule chunk but the last holds ``CHUNK_SIZE``."""
        initial, self._top = self._top, None
        n, ids = self.index.n_profiles, self.index.ids
        emitted = [np.empty(0, dtype=np.int64)]
        if initial is not None:
            yield from comparison_chunks(*initial, ids)
            if exhaustive:
                emitted.append(initial[0] * n + initial[1])
        del initial  # nothing of it is resident while the schedule runs
        none = np.empty(0, dtype=np.int64)
        short = (none, none, np.empty(0))  # (i, j, weight) not yet handed over
        for part in self._schedule_ranges(k):
            if exhaustive:
                emitted.append(part[0] * n + part[1])
            i, j, weight = (np.concatenate(pair) for pair in zip(short, part))
            whole = weight.size - weight.size % comparisons.CHUNK_SIZE
            yield from comparison_chunks(i[:whole], j[:whole], weight[:whole], ids)
            short = (i[whole:], j[whole:], weight[whole:])
        yield from comparison_chunks(*short, ids)
        if exhaustive:
            yield from self.exhaustive_tail(np.concatenate(emitted))

    def _schedule_ranges(
        self, k: int
    ) -> Iterable[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """:func:`pps_schedule` over ranges of ~``RANGE_BUDGET`` entries."""
        graph, schedule, n = self.graph, self._schedule, self.index.n_profiles
        rank = np.full(n, n, dtype=np.int64)
        rank[schedule] = np.arange(schedule.size, dtype=np.int64)
        payload = {
            "indptr": graph.indptr,
            "neighbors": graph.neighbors,
            "weights": graph.weights,
            "rank": rank,
            "schedule": schedule,
            "k": k,
        }
        row_lengths = np.diff(graph.indptr)[schedule]
        ranges = self.fanout.ranges(schedule.size, row_lengths, self.RANGE_BUDGET)
        return self.fanout.run(pps_schedule, payload, ranges)

    def exhaustive_tail(self, emitted: np.ndarray) -> Iterator[list[Comparison]]:
        """Every comparison of the blocks whose key ``i * n + j`` is not
        in ``emitted``, as chunks.

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
        seen = np.append(np.unique(emitted), np.iinfo(np.int64).max)
        ranges = self.fanout.ranges(
            index.block_count(),
            index.block_cardinalities,
            ArrayPBSCore.RANGE_BUDGET,
        )
        for _block, i, j, raw in self.fanout.run(
            new_block_pairs, self.graph.probing_payload(), ranges
        ):
            pairs = i * n + j
            fresh = seen[np.searchsorted(seen, pairs)] != pairs
            i, j, raw = i[fresh], j[fresh], raw[fresh]
            yield from comparison_chunks(
                i, j, self.graph.finalize(i, j, raw), index.ids
            )


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
        # Every range probes: complete the payload before a fan-out ships it.
        graph.probing_payload()

    def _ranked(
        self, part: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
    ) -> Iterator[list[Comparison]]:
        """One range's kernel output, finalized and ordered once by
        ``(block, -weight, i, j)``."""
        block, i, j, raw = part
        weights = self.graph.finalize(i, j, raw)
        order = np.lexsort((j, i, -weights, block))
        return comparison_chunks(i[order], j[order], weights[order], self.index.ids)

    def chunks(self) -> Iterator[list[Comparison]]:
        """All blocks in scheduling order, best-first inside each.  A
        range is weighted by the pull that reaches it (``chain`` asks
        for the next one only then)."""
        index = self.index
        ranges = self.fanout.ranges(
            index.block_count(), index.block_cardinalities, self.RANGE_BUDGET
        )
        parts = self.fanout.run(new_block_pairs, self.graph.payload, ranges)
        return itertools.chain.from_iterable(map(self._ranked, parts))
