"""Array-native blocking substrate: the CSR fast path of the front end.

The reference front end (:mod:`repro.blocking.substrate`) tokenizes the
store once but still materializes ``Block`` objects and runs Purging /
Filtering as Python loops over them.  This module takes a
``ProfileStore`` straight to :class:`~repro.engine.csr.ArrayProfileIndex`
with no ``Block``-object intermediate:

1. **Token-id interning** - a single tokenization sweep emits parallel
   ``(token_id, profile_id)`` arrays (ids interned in first-appearance
   order), grouped into CSR postings by one stable sort over the
   alphabetical token ranks - never a dict-of-lists.
2. **Vectorized Block Purging / Block Filtering** - the paper's two
   pruning steps (drop blocks with more than ``purge_ratio`` of the
   profiles; keep each profile in ``ceil(filter_ratio * |B_i|)`` of its
   smallest blocks, ties by key, one-sided Clean-clean blocks dropped)
   as array masks over the postings, reproducing
   :mod:`repro.blocking.purging` / :mod:`repro.blocking.filtering`
   bit-for-bit - including the ``(cardinality, key)`` processing order
   the downstream indexes depend on.
3. **Lazy views** - the profile index in schedule or alphabetical
   order, the final blocks as reference objects (only when a consumer
   insists), and the schema-agnostic Neighbor List - all served from
   the one cached sweep.

The float comparisons match the reference exactly: the purge limit is
the same Python float product compared against exactly-representable
int64 sizes, and the filter quota uses ``np.ceil`` on the same float64
products ``math.ceil`` sees.

The sweep itself is the range kernel :func:`tokenize_range`; the
owning backend's fan-out decides whether it runs once over the whole
store, in bounded inline ranges (storage) or sharded over a worker pool.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Any

from repro.blocking.substrate import SubstrateSpec, check_order
from repro.core.profiles import ERType, ProfileStore
from repro.engine import require_numpy

require_numpy("repro.engine.substrate")

import numpy as np  # noqa: E402  (guarded optional dependency)

from repro.engine.csr import ArrayProfileIndex, gather_rows  # noqa: E402
from repro.engine.fanout import INLINE, Fanout  # noqa: E402
from repro.engine.storage import (  # noqa: E402
    ArrayStore,
    collector,
    stable_group_scatter,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.blocking.base import BlockCollection
    from repro.neighborlist.neighbor_list import NeighborList


def tokenize_range(
    payload: dict[str, Any], shard: tuple[int, int]
) -> tuple[list[str], np.ndarray, np.ndarray]:
    """Range kernel: tokenize profiles ``[lo, hi)``.

    Returns the range's token names in first-appearance order, the
    local token id of every ``(profile, token)`` pair (profile-major,
    each profile's distinct tokens in first-appearance order - the exact
    order of :func:`repro.core.tokenization.token_stream`) and the
    per-profile token counts.
    """
    lo, hi = shard
    store = payload["store"]
    tokenizer = payload["tokenizer"]
    intern: dict[str, int] = {}
    setdefault = intern.setdefault
    token_ids: list[int] = []
    append = token_ids.append
    counts: list[int] = []
    for profile_id in range(lo, hi):
        tokens = tokenizer.distinct_profile_tokens(store[profile_id])
        counts.append(len(tokens))
        for token in tokens:
            append(setdefault(token, len(intern)))
    return (
        list(intern),
        np.asarray(token_ids, dtype=np.int64),
        np.asarray(counts, dtype=np.int64),
    )


class ArraySubstrate:
    """CSR blocking substrate of the array backends.

    Satisfies :class:`repro.contracts.BlockingSubstrate`.  All derived
    structures are cached; ``sweeps`` counts actual tokenization sweeps
    (the single-build regression test asserts it stays at 1).
    """

    #: CSR structures: vectorized consumers build array indexes
    #: directly from the postings.
    vectorized = True

    #: Profiles tokenized per inline range when storage is active - large
    #: enough to amortize array conversion, small enough that the
    #: resident token-id buffers stay in the tens of megabytes.
    TOKENIZE_FLUSH_PROFILES = 65536

    def __init__(
        self,
        store: ProfileStore,
        spec: SubstrateSpec,
        storage: ArrayStore | None = None,
        fanout: Fanout = INLINE,
    ) -> None:
        self.store = store
        self.spec = spec
        self.fanout = fanout
        #: Scratch ArrayStore of the owning backend instance; ``None``
        #: keeps the original all-RAM behavior byte for byte.  With a
        #: store, the sweep's pair arrays, the postings and the final
        #: blocks are built into (and served from) memmap scratch, and
        #: the grouping sorts run out-of-core.
        self.storage = storage
        self.sweeps = 0
        # (token_id, profile_id) pair arrays of the single sweep.
        self._token_names: list[str] | None = None
        self._pair_tokens: np.ndarray | None = None
        self._pair_profiles: np.ndarray | None = None
        # Alphabetical CSR postings over ALL tokens (Neighbor List view).
        self._postings: tuple[np.ndarray, np.ndarray, list[str]] | None = None
        # Final blocks after purge/filter, workflow (alphabetical) order:
        # (indptr, profile ids, keys, cardinalities).
        self._final: (
            tuple[np.ndarray, np.ndarray, list[str], np.ndarray] | None
        ) = None
        self._sources_arr: np.ndarray | None = None
        self._token_rows: tuple[np.ndarray, np.ndarray] | None = None
        self._indexes: dict[str, ArrayProfileIndex] = {}
        self._neighbor_lists: dict[tuple[str, int | None], "NeighborList"] = {}
        self._blocks: "BlockCollection | None" = None

    # -- the single sweep --------------------------------------------------

    def _tokenize(self) -> tuple[list[str], np.ndarray, np.ndarray]:
        """The sweep: interned names + (token, profile) pair arrays.

        :func:`tokenize_range` interns each range locally; folding the
        range vocabularies into the global intern map in range order
        reproduces first-appearance intern order over the whole store
        (a token's first appearance lives in the earliest range that
        contains it), and ranges are contiguous and ascending, so the
        collected pair arrays are profile-major.  The first range's
        local ids already are the global ones, so a one-range sweep
        never builds the map at all.
        """
        ranges = self.fanout.ranges(
            len(self.store),
            budget=None if self.storage is None else self.TOKENIZE_FLUSH_PROFILES,
        )
        payload = {"store": self.store, "tokenizer": self.spec.tokenizer}
        first: list[str] | None = None
        intern: dict[str, int] = {}
        pair_tokens = collector(self.storage, np.int64)
        pair_profiles = collector(self.storage, np.int64)
        swept = self.fanout.run(tokenize_range, payload, ranges)
        for (lo, hi), (names, tokens, counts) in zip(ranges, swept):
            if first is None:
                first = names
            else:
                if not intern:
                    intern = dict(zip(first, range(len(first))))
                mapping = np.fromiter(
                    (intern.setdefault(name, len(intern)) for name in names),
                    dtype=np.int64,
                    count=len(names),
                )
                tokens = mapping[tokens]
            pair_tokens.append(tokens)
            pair_profiles.append(
                np.repeat(np.arange(lo, hi, dtype=np.int64), counts)
            )
        vocabulary = list(intern) if intern else first or []
        return vocabulary, pair_tokens.finish(), pair_profiles.finish()

    def _sweep(self) -> None:
        if self._pair_tokens is not None:
            return
        self.sweeps += 1
        names, pair_tokens, pair_profiles = self._tokenize()
        self._token_names = names
        self._pair_tokens = pair_tokens
        self._pair_profiles = pair_profiles

    def _sources(self) -> np.ndarray:
        if self._sources_arr is None:
            self._sources_arr = np.fromiter(
                (profile.source for profile in self.store),
                dtype=np.int64,
                count=len(self.store),
            )
        return self._sources_arr

    def token_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-profile distinct token ids as a CSR, rows id-sorted.

        Served from the cached sweep - no re-tokenization: row ``p``
        holds profile ``p``'s distinct interned token ids in ascending
        id order.  Same string set <=> same id set, so this is exactly
        the set view the batched cascade tiers (normalized equality,
        Jaccard) compare.
        """
        if self._token_rows is None:
            self._sweep()
            assert (
                self._pair_tokens is not None
                and self._pair_profiles is not None
            )
            n = len(self.store)
            counts = np.bincount(
                np.asarray(self._pair_profiles), minlength=n
            )
            indptr = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(counts, out=indptr[1:])
            order = np.lexsort(
                (np.asarray(self._pair_tokens), np.asarray(self._pair_profiles))
            )
            self._token_rows = (indptr, np.asarray(self._pair_tokens)[order])
        return self._token_rows

    # -- CSR postings over all tokens --------------------------------------

    def _all_postings(self) -> tuple[np.ndarray, np.ndarray, list[str]]:
        """Alphabetical CSR postings over every interned token.

        One stable sort of the pair arrays by alphabetical token rank:
        tokens come out in sorted-key order (the reference's
        ``sorted(buckets)``), profiles within a token in pair order
        (the reference's bucket append order).
        """
        if self._postings is None:
            self._sweep()
            assert (
                self._token_names is not None
                and self._pair_tokens is not None
                and self._pair_profiles is not None
            )
            names = self._token_names
            token_count = len(names)
            alpha_order = sorted(range(token_count), key=names.__getitem__)
            keys = [names[i] for i in alpha_order]
            rank = np.empty(token_count, dtype=np.int64)
            rank[np.asarray(alpha_order, dtype=np.int64)] = np.arange(
                token_count, dtype=np.int64
            )
            if self.storage is not None:
                # Spill-to-disk postings argsort: the stable grouping
                # runs as an out-of-core counting sort over chunk-wise
                # derived ranks - bit-identical to the argsort below.
                pair_tokens = self._pair_tokens

                def rank_chunk(lo: int, hi: int) -> np.ndarray:
                    return rank[np.asarray(pair_tokens[lo:hi])]

                indptr, (profiles,) = stable_group_scatter(
                    rank_chunk,
                    [self._pair_profiles],
                    token_count,
                    int(self._pair_tokens.size),
                    store=self.storage,
                )
                self._postings = (indptr, profiles, keys)
                return self._postings
            pair_rank = rank[self._pair_tokens]
            order = np.argsort(pair_rank, kind="stable")
            profiles = self._pair_profiles[order]
            sizes = np.bincount(pair_rank, minlength=token_count)
            indptr = np.zeros(token_count + 1, dtype=np.int64)
            np.cumsum(sizes, out=indptr[1:])
            self._postings = (indptr, profiles, keys)
        return self._postings

    # -- vectorized purge / filter ------------------------------------------

    def _final_blocks(
        self,
    ) -> tuple[np.ndarray, np.ndarray, list[str], np.ndarray]:
        """The final blocked CSR in workflow (alphabetical) order.

        Applies, as array masks over the postings: the builder's
        validity rule (>= 2 profiles, both sources for Clean-clean),
        Block Purging, Block Filtering.  The trailing singleton drop of
        the reference workflow is subsumed - every mask already
        guarantees positive cardinality.
        """
        if self._final is None:
            indptr, profiles, keys = self._all_postings()
            n = len(self.store)
            sizes = np.diff(indptr)
            cross_source = self.store.er_type is ERType.CLEAN_CLEAN
            left = None
            if cross_source:
                token_of = np.repeat(
                    np.arange(len(sizes), dtype=np.int64), sizes
                )
                left = np.bincount(
                    token_of[self._sources()[profiles] == 0],
                    minlength=len(sizes),
                )
                valid = (sizes >= 2) & (left > 0) & (sizes - left > 0)
            else:
                valid = sizes >= 2
            if self.spec.purge_ratio is not None:
                # Same float product and comparison as BlockPurging:
                # int64 sizes are exactly representable in float64.
                valid &= sizes <= self.spec.purge_ratio * n

            keep_idx = np.nonzero(valid)[0]
            b_sizes = sizes[keep_idx]
            b_profiles = gather_rows(
                profiles, indptr[keep_idx], b_sizes, self.storage
            )
            b_keys = [keys[i] for i in keep_idx.tolist()]
            b_left = left[keep_idx] if left is not None else None

            if self.spec.filter_ratio is not None:
                b_profiles, b_keys, b_sizes, b_left = self._filter(
                    b_profiles, b_keys, b_sizes, b_left
                )
                if self.storage is not None:
                    # The filter's masked rebuild produced a RAM array;
                    # the final blocks are session-lived, so park them
                    # back on disk.
                    b_profiles = self.storage.materialize(b_profiles)

            if b_left is not None:
                cardinalities = b_left * (b_sizes - b_left)
            else:
                cardinalities = b_sizes * (b_sizes - 1) // 2
            final_indptr = np.zeros(len(b_sizes) + 1, dtype=np.int64)
            np.cumsum(b_sizes, out=final_indptr[1:])
            self._final = (final_indptr, b_profiles, b_keys, cardinalities)
        return self._final

    def _filter(
        self,
        b_profiles: np.ndarray,
        b_keys: list[str],
        b_sizes: np.ndarray,
        b_left: np.ndarray | None,
    ) -> tuple[np.ndarray, list[str], np.ndarray, np.ndarray | None]:
        """Vectorized Block Filtering over post-purge blocks.

        Mirrors :class:`repro.blocking.filtering.BlockFiltering`: blocks
        ranked by ``(cardinality, key)`` (the stable argsort over the
        alphabetical layout makes key the tie-break for free), each
        profile keeps its ``ceil(ratio * |B_i|)`` best-ranked
        assignments, blocks are rebuilt in place with survivors only.
        """
        ratio = self.spec.filter_ratio
        assert ratio is not None
        block_count = len(b_sizes)
        if b_left is not None:
            cardinalities = b_left * (b_sizes - b_left)
        else:
            cardinalities = b_sizes * (b_sizes - 1) // 2
        rank_order = np.argsort(cardinalities, kind="stable")
        rank = np.empty(block_count, dtype=np.int64)
        rank[rank_order] = np.arange(block_count, dtype=np.int64)

        owner = np.repeat(np.arange(block_count, dtype=np.int64), b_sizes)
        # Per-profile assignment lists sorted by block rank - the
        # reference's ``block_indexes.sort(key=rank_of_block.__getitem__)``.
        by_profile = np.lexsort((rank[owner], b_profiles))
        sorted_profiles = b_profiles[by_profile]
        n = len(self.store)
        profile_counts = np.bincount(b_profiles, minlength=n)
        profile_starts = np.zeros(n, dtype=np.int64)
        np.cumsum(profile_counts[:-1], out=profile_starts[1:])
        # Same float64 product math.ceil sees in the reference.
        quota = np.ceil(ratio * profile_counts)
        position = (
            np.arange(len(sorted_profiles), dtype=np.int64)
            - profile_starts[sorted_profiles]
        )
        kept_by_profile = position < quota[sorted_profiles]
        kept = np.empty(len(b_profiles), dtype=bool)
        kept[by_profile] = kept_by_profile

        # Rebuild in block order; the mask preserves each block's
        # internal id order, like the reference's rebuild loop.
        new_sizes = np.bincount(owner[kept], minlength=block_count)
        if b_left is not None:
            new_left = np.bincount(
                owner[kept & (self._sources()[b_profiles] == 0)],
                minlength=block_count,
            )
            keep_block = (
                (new_sizes >= 2) & (new_left > 0) & (new_sizes - new_left > 0)
            )
        else:
            new_left = None
            keep_block = new_sizes >= 2

        survivor_mask = kept & keep_block[owner]
        f_profiles = b_profiles[survivor_mask]
        block_idx = np.nonzero(keep_block)[0]
        f_sizes = new_sizes[block_idx]
        f_keys = [b_keys[i] for i in block_idx.tolist()]
        f_left = new_left[block_idx] if new_left is not None else None
        return f_profiles, f_keys, f_sizes, f_left

    # -- substrate API ------------------------------------------------------

    def profile_index(self, order: str = "schedule") -> ArrayProfileIndex:
        """The CSR profile index over the final blocks in ``order``.

        ``"schedule"`` reorders the alphabetical layout by a stable
        argsort of the cardinalities - exactly Block Scheduling's
        ``(cardinality, key)`` order; ``"alpha"`` is the workflow
        (ONLINE) order as-is.
        """
        check_order(order)
        index = self._indexes.get(order)
        if index is None:
            indptr, profiles, _keys, cardinalities = self._final_blocks()
            if order == "schedule":
                perm = np.argsort(cardinalities, kind="stable")
            else:
                perm = np.arange(len(cardinalities), dtype=np.int64)
            sizes = np.diff(indptr)[perm]
            ordered_indptr = np.zeros(len(perm) + 1, dtype=np.int64)
            np.cumsum(sizes, out=ordered_indptr[1:])
            ordered_profiles = gather_rows(
                profiles, indptr[:-1][perm], sizes, self.storage
            )
            index = ArrayProfileIndex.from_csr(
                self.store,
                ordered_indptr,
                ordered_profiles,
                cardinalities[perm],
                self._sources(),
                storage=self.storage,
            )
            self._indexes[order] = index
        return index

    def blocks(self) -> "BlockCollection":
        """The final blocks as reference ``Block`` objects (workflow order).

        Materialized lazily for consumers that introspect blocks
        (``Resolver.blocks``, Meta-blocking pruning); the progressive
        methods never call this.
        """
        if self._blocks is None:
            from repro.blocking.base import Block, BlockCollection

            indptr, profiles, keys, _cardinalities = self._final_blocks()
            blocks = [
                Block(key, profiles[start:end].tolist(), self.store)
                for key, start, end in zip(
                    keys, indptr[:-1].tolist(), indptr[1:].tolist()
                )
            ]
            self._blocks = BlockCollection(blocks, self.store)
        return self._blocks

    def neighbor_list(
        self, tie_order: str = "insertion", seed: int | None = 0
    ) -> "NeighborList":
        """The schema-agnostic Neighbor List from the cached sweep.

        Uses the *unfiltered* postings (every distinct profile token,
        including count-1 and one-sided tokens), replaying the
        reference's per-run seeded shuffles in sorted-key order - the
        entries match ``NeighborList.schema_agnostic`` element for
        element for both tie orders.
        """
        from repro.neighborlist.neighbor_list import NeighborList

        if tie_order not in ("insertion", "random"):
            raise ValueError(
                "tie_order must be one of ('insertion', 'random')"
                f", got {tie_order!r}"
            )
        cache_key = (tie_order, seed)
        cached = self._neighbor_lists.get(cache_key)
        if cached is None:
            indptr, profiles, keys = self._all_postings()
            run_sizes = np.diff(indptr).tolist()
            key_column: list[str] = []
            if tie_order == "insertion":
                entries = profiles.tolist()
                for key, size in zip(keys, run_sizes):
                    key_column.extend([key] * size)
            else:
                rng = random.Random(seed)
                entries = []
                starts = indptr[:-1].tolist()
                for token_index, key in enumerate(keys):
                    start = starts[token_index]
                    run = profiles[start : start + run_sizes[token_index]].tolist()
                    if len(run) > 1:
                        rng.shuffle(run)
                    entries.extend(run)
                    key_column.extend([key] * len(run))
            cached = NeighborList(entries, key_column)
            self._neighbor_lists[cache_key] = cached
        return cached
