"""Array-native blocking substrate: the CSR fast path of the front end.

The reference front end (:mod:`repro.blocking.substrate`) tokenizes the
store once but still materializes ``Block`` objects and runs Purging /
Filtering as Python loops over them.  This module takes a
``ProfileStore`` straight to :class:`~repro.engine.csr.ArrayProfileIndex`
with no ``Block``-object intermediate:

1. **Token ids are alphabetical ranks** - a single tokenization sweep
   emits parallel ``(token_id, profile_id)`` arrays in which a token's
   id is its rank in the sorted vocabulary, so the CSR postings are one
   sort of packed ``(token id, profile)`` keys - never a dict-of-lists,
   never a sort of names.  The sweep works on the UTF-8 bytes of a
   range's values joined by spaces: uint8 arithmetic lowercases the
   bytes, the ``[A-Za-z0-9]`` byte class marks the token runs, and
   tokens packed into zero-padded 64-bit words are interned by sorting
   the words read big-endian, with no Python object per token.  This is
   exactly :func:`repro.core.tokenization.tokens` for every ``str``:
   the pattern's class is ASCII and every byte of a non-ASCII character
   is >= 0x80, so the byte runs are the pattern's matches, and on
   ``[a-z0-9]+`` tokens byte order is ``str`` order.
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
   the one cached sweep.  Purge and filter carry token ids; the
   vocabulary stays a byte buffer, and names are decoded, once, only
   for the two views that show block keys.

The float comparisons match the reference exactly: the purge limit is
the same Python float product compared against exactly-representable
int64 sizes, and the filter quota uses ``np.ceil`` on the same float64
products ``math.ceil`` sees.

The sweep itself is the range kernel :func:`tokenize_range`; the
owning backend's fan-out decides whether it runs in bounded inline
ranges or sharded over a worker pool, and the store (RAM or memmap)
where its outputs and the grouped CSRs live.
"""

from __future__ import annotations

import random
from itertools import chain
from operator import attrgetter, itemgetter
from typing import TYPE_CHECKING, Any

from repro.blocking.substrate import SubstrateSpec, check_order
from repro.core.profiles import ERType, ProfileStore
from repro.engine import require_numpy

require_numpy("repro.engine.substrate")

import numpy as np  # noqa: E402  (guarded optional dependency)

from repro.engine.csr import ArrayProfileIndex, gather_rows  # noqa: E402
from repro.engine.fanout import INLINE, Fanout  # noqa: E402
from repro.engine.segments import run_heads  # noqa: E402
from repro.engine.storage import RAM, Store  # noqa: E402

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.blocking.base import BlockCollection
    from repro.neighborlist.neighbor_list import NeighborList


#: Little-endian masks of a word's first 0..8 bytes.
_PREFIX = np.array([(1 << 8 * size) - 1 for size in range(9)], dtype=np.uint64)


def _token_word(
    words: np.ndarray,
    starts: np.ndarray,
    lengths: np.ndarray,
    members: np.ndarray,
    k: int,
) -> np.ndarray:
    """Bytes ``8k .. 8k + 7`` of the member tokens as zero-padded words:
    two aligned little-endian words of the text shifted together."""
    at = starts[members]
    at += 8 * k
    shift = at.astype(np.uint8) & 7
    shift <<= 3
    at >>= 3
    word = words[at]
    word >>= shift
    at += 1
    high = words[at]
    del at
    # ``(x << 1) << (63 - s)`` is ``x << (64 - s)``, and 0 for s == 0.
    high <<= 1
    np.subtract(63, shift, out=shift)
    high <<= shift
    word |= high
    del high
    word &= _PREFIX[np.minimum(lengths[members] - 8 * k, 8)]
    return word


def _alnum(text: np.ndarray) -> np.ndarray:
    """Which bytes are ``[A-Za-z0-9]``, the token pattern's class (item 1
    above says why its byte runs are the pattern's matches).  In uint8
    arithmetic ``b - lo`` wraps below ``lo``, so ``b - lo < size`` is
    ``lo <= b < lo + size``."""
    alpha = (text | np.uint8(0x20)) - np.uint8(ord("a")) < 26
    return alpha | (text - np.uint8(ord("0")) < 10)


def _lower(text: np.ndarray) -> np.ndarray:
    """ASCII ``str.lower`` of each byte: A-Z -> a-z, every other as is."""
    upper = text - np.uint8(ord("A")) < 26
    return text | (upper.view(np.uint8) << 5)


def _byte_order(
    words: np.ndarray, starts: np.ndarray, lengths: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``(order, heads)``: the tokens at ``starts`` in byte order, and
    where a new distinct token begins in it.

    Zero-padded words read big-endian compare as their bytes do, and
    with no NUL in a token a shorter prefix sorts first, as in ``str``
    order.  Word ``k > 0`` is read only for tokens still tied on words
    ``0 .. k - 1``, so memory stays O(token bytes).
    """
    everyone = np.arange(len(starts), dtype=np.int64)
    key = _token_word(words, starts, lengths, everyone, 0).byteswap()
    order = np.argsort(key)
    heads = run_heads(key[order])
    tied = everyone
    k = 1
    while tied.size:
        # Keep the runs of two or more tokens, one longer than 8k bytes,
        # and sort each by word k.
        group = np.cumsum(heads[tied]) - 1
        longer = lengths[order[tied]] > 8 * k
        group_count = int(group[-1]) + 1
        open_runs = (np.bincount(group, minlength=group_count) > 1) & (
            np.bincount(group[longer], minlength=group_count) > 0
        )
        keep = open_runs[group]
        tied, group, longer = tied[keep], group[keep], longer[keep]
        members = order[tied]
        key = np.zeros(len(members), dtype=np.uint64)
        key[longer] = _token_word(words, starts, lengths, members[longer], k).byteswap()
        by_word = np.lexsort((key, group))
        order[tied] = members[by_word]
        key = key[by_word]
        heads[tied[1:]] |= key[1:] != key[:-1]
        k += 1
    return order, heads


def _pack(words: np.ndarray, starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """A vocabulary buffer of the tokens at byte offsets ``starts``: each
    token's zero-padded words and at least one NUL, ``lengths // 8 + 1``
    words, so its bytes are the tokens in order, NUL-separated."""
    widths = lengths // 8 + 1
    at = np.cumsum(widths) - widths
    packed = np.zeros(int(widths.sum()), dtype="<u8")
    members = np.arange(len(starts), dtype=np.int64)
    k = 0
    while members.size:
        packed[at[members] + k] = _token_word(words, starts, lengths, members, k)
        k += 1
        members = members[lengths[members] > 8 * k]
    return packed


def _intern(
    words: np.ndarray, starts: np.ndarray, lengths: np.ndarray
) -> tuple[tuple[np.ndarray, np.ndarray], np.ndarray]:
    """Intern the tokens at byte offsets ``starts`` in byte order: the
    vocabulary ``(packed, lengths)`` of the distinct tokens ascending,
    and every token's id, its rank in that vocabulary."""
    order, heads = _byte_order(words, starts, lengths)
    ids = np.empty(len(order), dtype=np.int64)
    ids[order] = np.cumsum(heads) - 1
    first = order[heads]
    return (_pack(words, starts[first], lengths[first]), lengths[first]), ids


def decode_names(packed: np.ndarray) -> list[str]:
    """The token names of a vocabulary buffer, in id order."""
    return list(filter(None, packed.tobytes().decode("ascii").split("\0")))


def tokenize_range(
    payload: dict[str, Any], shard: tuple[int, int]
) -> tuple[tuple[np.ndarray, np.ndarray], np.ndarray, np.ndarray, np.ndarray]:
    """Range kernel: tokenize profiles ``[lo, hi)``.

    Returns the range's vocabulary (see :func:`_intern`: its distinct
    tokens in alphabetical order), the id - the vocabulary rank - of
    every ``(profile, token)`` pair (profile-major, each profile's
    distinct tokens ascending), the per-profile token counts and the
    profiles' sources.  Array passes over the UTF-8 bytes of the range's
    values joined by spaces (see the module docstring); no token becomes
    a ``str``.
    """
    lo, hi = shard
    store = payload["store"]
    profiles = list(map(store.__getitem__, range(lo, hi)))
    sources = np.fromiter(map(attrgetter("source"), profiles), np.int64, hi - lo)
    pairs = list(map(attrgetter("pairs"), profiles))
    values = list(map(itemgetter(1), chain.from_iterable(pairs)))
    # Character offset of each profile's end: a space follows each value.
    value_ends = np.zeros(len(values) + 1, dtype=np.int64)
    sizes = np.fromiter(map(len, values), dtype=np.int64, count=len(values))
    np.cumsum(sizes + 1, out=value_ends[1:])
    counts = np.fromiter(map(len, pairs), dtype=np.int64, count=hi - lo)
    profile_ends = value_ends[np.cumsum(counts)]
    encoded = " ".join(values).encode("utf-8", "surrogatepass")
    del pairs, values, value_ends, sizes, counts
    # The bytes after one guard byte, zero-padded to whole little-endian
    # words and one spare: a zero is no token byte.
    text = np.zeros(8 * (len(encoded) // 8 + 2), dtype=np.uint8)
    text[1 : len(encoded) + 1] = np.frombuffer(encoded, dtype=np.uint8)
    del encoded
    text = _lower(text)
    alnum = _alnum(text)
    edges = np.flatnonzero(alnum[1:] != alnum[:-1])
    del alnum
    starts = edges[0::2] + 1
    lengths = edges[1::2] - edges[0::2]
    del edges
    # Owners: the tokens' character offsets (a UTF-8 continuation byte
    # starts no character) against the profile ends.
    continuation = np.flatnonzero((text & 0xC0) == 0x80)
    offsets = starts - 1 - np.searchsorted(continuation, starts)
    per_profile = np.diff(np.searchsorted(offsets, profile_ends), prepend=0)
    owners = np.repeat(np.arange(hi - lo, dtype=np.int64), per_profile)
    del continuation, offsets, per_profile

    vocabulary, ids = _intern(text.view("<u8"), starts, lengths)
    del text, starts, lengths
    # One sort of packed (owner, id) keys drops each profile's repeats
    # and leaves the pairs profile-major with ids ascending.
    distinct = max(len(vocabulary[1]), 1)
    keys = owners * distinct
    keys += ids
    del owners, ids
    keys.sort()
    keys = keys[run_heads(keys)]
    counts = np.bincount(keys // distinct, minlength=hi - lo)
    return vocabulary, keys % distinct, counts, sources


class ArraySubstrate:
    """CSR blocking substrate of the array backends.

    Satisfies :class:`repro.contracts.BlockingSubstrate`.  All derived
    structures are cached; ``sweeps`` counts actual tokenization sweeps
    (the single-build regression test asserts it stays at 1).
    """

    #: CSR structures: vectorized consumers build array indexes
    #: directly from the postings.
    vectorized = True

    #: Profiles tokenized per inline range - large enough to amortize
    #: array conversion, small enough that a range's transients and the
    #: resident token-id buffers stay in the tens of megabytes.
    TOKENIZE_FLUSH_PROFILES = 65536

    def __init__(
        self,
        store: ProfileStore,
        spec: SubstrateSpec,
        storage: Store = RAM,
        fanout: Fanout = INLINE,
    ) -> None:
        self.store = store
        self.spec = spec
        self.fanout = fanout
        #: Where the sweep's pair slots, the postings and the final
        #: blocks are built (and served from): :data:`RAM`, or the
        #: owning backend's memmap scratch, whose grouping passes run
        #: out-of-core.
        self.storage = storage
        self.sweeps = 0
        # The single sweep: the vocabulary (packed, lengths), each pair
        # slot's alphabetical id, every pair's slot as a profile-major
        # CSR and every profile's source.
        self._vocabulary: tuple[np.ndarray, np.ndarray] | None = None
        self._rank: np.ndarray | None = None
        self._pair_tokens: np.ndarray | None = None
        self._pair_indptr: np.ndarray | None = None
        self._sources: np.ndarray | None = None
        self._names: list[str] | None = None
        # Alphabetical CSR postings over ALL tokens (Neighbor List view).
        self._postings: tuple[np.ndarray, np.ndarray] | None = None
        # Final blocks after purge/filter, workflow (alphabetical) order:
        # (indptr, profile ids, token ids, cardinalities).
        self._final: (
            tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None
        ) = None
        self._token_rows: tuple[np.ndarray, np.ndarray] | None = None
        self._indexes: dict[str, ArrayProfileIndex] = {}
        self._neighbor_lists: dict[tuple[str, int | None], "NeighborList"] = {}
        self._blocks: "BlockCollection | None" = None

    # -- the single sweep --------------------------------------------------

    def _sweep(self) -> None:
        """The sweep: vocabulary, ``rank``, the pair slots with their
        per-profile ``_pair_indptr``, and sources, once.

        :func:`tokenize_range` interns each range alphabetically; a
        pair's slot is its range-local id offset by the earlier ranges'
        vocabulary sizes.  Sorting the concatenated range vocabularies
        gives the store's vocabulary and ``rank``, slot -> global id.
        ``rank`` keeps each range's order, so ``rank[pair slots]`` still
        ascends within every profile, and ranges are contiguous and
        ascending, so the collected pair slots are profile-major.
        """
        if self._pair_tokens is not None:
            return
        self.sweeps += 1
        n = len(self.store)
        ranges = self.fanout.ranges(n, budget=self.TOKENIZE_FLUSH_PROFILES)
        payload = {"store": self.store}
        pair_tokens = self.storage.writer(np.int64)
        pair_indptr = np.zeros(n + 1, dtype=np.int64)
        packed = [np.empty(0, dtype="<u8")]
        lengths = [np.empty(0, dtype=np.int64)]
        sources = [np.empty(0, dtype=np.int64)]
        slots = 0
        swept = self.fanout.run(tokenize_range, payload, ranges)
        for (lo, hi), ((words, sizes), tokens, counts, range_sources) in zip(
            ranges, swept
        ):
            tokens += slots
            pair_tokens.append(tokens)
            pair_indptr[lo + 1 : hi + 1] = counts
            packed.append(words)
            lengths.append(sizes)
            sources.append(range_sources)
            slots += len(sizes)
        # One spare zero word: _token_word reads the word after a token.
        packed.append(np.zeros(1, dtype="<u8"))
        words = np.concatenate(packed)
        del packed
        sizes = np.concatenate(lengths)
        widths = sizes // 8 + 1
        self._vocabulary, self._rank = _intern(
            words, 8 * (np.cumsum(widths) - widths), sizes
        )
        self._pair_tokens = pair_tokens.finish()
        self._pair_indptr = np.cumsum(pair_indptr, out=pair_indptr)
        self._sources = np.concatenate(sources)

    def sources(self) -> np.ndarray:
        """Every profile's source, read by the sweep."""
        self._sweep()
        assert self._sources is not None
        return self._sources

    def _token_names(self) -> list[str]:
        """Every token's name, by id: decoded on the first request."""
        if self._names is None:
            self._sweep()
            assert self._vocabulary is not None
            self._names = decode_names(self._vocabulary[0])
        return self._names

    def token_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-profile distinct token ids as a CSR, rows id-sorted.

        Served from the cached sweep - no re-tokenization: row ``p``
        holds profile ``p``'s distinct token ids (alphabetical ranks) in
        ascending order, which is the order the sweep left them in.
        Same string set <=> same id set, so this is exactly the set view
        the batched cascade tiers (normalized equality, Jaccard) compare.
        """
        if self._token_rows is None:
            self._sweep()
            assert self._rank is not None and self._pair_indptr is not None
            self._token_rows = (
                self._pair_indptr,
                self._rank[np.asarray(self._pair_tokens)],
            )
        return self._token_rows

    # -- CSR postings over all tokens --------------------------------------

    def _all_postings(self) -> tuple[np.ndarray, np.ndarray]:
        """Alphabetical CSR postings over every token, row ``t`` for id ``t``.

        The transpose of the profile -> token ids CSR: tokens come out
        in sorted-key order (the reference's ``sorted(buckets)``),
        profiles within a token ascending - the pair order, which is the
        reference's bucket append order.  Ids are ranked chunk by chunk,
        so a memmap store never holds every pair's id at once.
        """
        if self._postings is None:
            self._sweep()
            assert (
                self._vocabulary is not None
                and self._rank is not None
                and self._pair_tokens is not None
                and self._pair_indptr is not None
            )
            rank, pair_tokens = self._rank, self._pair_tokens

            def token_ids(lo: int, hi: int) -> np.ndarray:
                return rank[np.asarray(pair_tokens[lo:hi])]

            self._postings = self.storage.transpose(
                self._pair_indptr, token_ids, len(self._vocabulary[1])
            )
        return self._postings

    # -- vectorized purge / filter ------------------------------------------

    def _final_blocks(
        self,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The final blocked CSR in workflow (alphabetical) order, with
        each block's token id.

        Applies, as array masks over the postings: the builder's
        validity rule (>= 2 profiles, both sources for Clean-clean),
        Block Purging, Block Filtering.  The trailing singleton drop of
        the reference workflow is subsumed - every mask already
        guarantees positive cardinality.
        """
        if self._final is None:
            indptr, profiles = self._all_postings()
            n = len(self.store)
            sizes = np.diff(indptr)
            cross_source = self.store.er_type is ERType.CLEAN_CLEAN
            left = None
            if cross_source:
                token_of = np.repeat(
                    np.arange(len(sizes), dtype=np.int64), sizes
                )
                left = np.bincount(
                    token_of[self.sources()[profiles] == 0],
                    minlength=len(sizes),
                )
                valid = (sizes >= 2) & (left > 0) & (sizes - left > 0)
            else:
                valid = sizes >= 2
            if self.spec.purge_ratio is not None:
                # Same float product and comparison as BlockPurging:
                # int64 sizes are exactly representable in float64.
                valid &= sizes <= self.spec.purge_ratio * n

            b_tokens = np.nonzero(valid)[0]
            b_sizes = sizes[b_tokens]
            b_profiles = gather_rows(
                profiles, indptr[b_tokens], b_sizes, self.storage
            )
            b_left = left[b_tokens] if left is not None else None

            if self.spec.filter_ratio is not None:
                b_profiles, b_tokens, b_sizes, b_left = self._filter(
                    b_profiles, b_tokens, b_sizes, b_left
                )
                # The filter's masked rebuild is a RAM array; the final
                # blocks are session-lived, so they go to the store.
                b_profiles = self.storage.materialize(b_profiles)

            if b_left is not None:
                cardinalities = b_left * (b_sizes - b_left)
            else:
                cardinalities = b_sizes * (b_sizes - 1) // 2
            final_indptr = np.zeros(len(b_sizes) + 1, dtype=np.int64)
            np.cumsum(b_sizes, out=final_indptr[1:])
            self._final = (final_indptr, b_profiles, b_tokens, cardinalities)
        return self._final

    def _filter(
        self,
        b_profiles: np.ndarray,
        b_tokens: np.ndarray,
        b_sizes: np.ndarray,
        b_left: np.ndarray | None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray | None]:
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
        # A profile is in a block once, so the packed keys are unique.
        by_profile = np.argsort(b_profiles * block_count + rank[owner])
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
                owner[kept & (self.sources()[b_profiles] == 0)],
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
        f_left = new_left[block_idx] if new_left is not None else None
        return f_profiles, b_tokens[block_idx], f_sizes, f_left

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
            indptr, profiles, _tokens, cardinalities = self._final_blocks()
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
                self.sources(),
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

            indptr, profiles, tokens, _cardinalities = self._final_blocks()
            names = self._token_names()
            blocks = [
                Block(names[token], profiles[start:end].tolist(), self.store)
                for token, start, end in zip(
                    tokens.tolist(), indptr[:-1].tolist(), indptr[1:].tolist()
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
            indptr, profiles = self._all_postings()
            keys = self._token_names()
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
