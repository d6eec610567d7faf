"""Delta-maintained Token Blocking index for online resolution.

Batch Token Blocking (Section 7's workflow) rebuilds every block from
scratch; an online resolver cannot afford that per arrival.
:class:`IncrementalTokenIndex` maintains the same schema-agnostic
substrate - token postings, block qualification, per-profile block
counts - with O(tokens-of-profile) work per ingested profile, and is the
live :class:`~repro.metablocking.weights.BlockStatistics` provider the
session's weighting scheme reads:

* a token *qualifies* as a block exactly when batch Token Blocking would
  emit it: at least two profiles (Dirty ER) or at least one profile per
  source (Clean-clean ER).  Qualification is monotone under ingestion
  (profiles are never removed), so transitions are detected in O(1) per
  token and per-profile block counts |B_i| are maintained by pure deltas;
* :meth:`candidate_pairs` enumerates, for a freshly ingested batch, every
  comparison that involves a new profile, together with the shared
  qualifying tokens in deterministic (alphabetical) order - the exact
  accumulation order the batch Blocking Graph uses - and :meth:`score`
  weighs them with the registered scheme, so incremental weights are
  bit-identical to batch weights;
* :meth:`holding` indexes a read-only probe for the length of a ``with``
  block and rolls the index back exactly afterwards;
* :meth:`snapshot_blocks` materializes the current state as a regular
  :class:`~repro.blocking.base.BlockCollection`, byte-identical to what
  ``token_blocking_workflow(store, purge_ratio=None, filter_ratio=None)``
  would build over the same profiles when purging is off - the bridge
  back to every batch component (full re-ranking, evaluation, the CSR
  engine).

Block Purging is a *query-time* bound, ``purge_ratio * |P|`` against the
current corpus size (:meth:`purge_limit`): over-populated stop-word
tokens contribute no candidates, blocks or counts.  Block Filtering is a
batch-global re-ranking of each profile's blocks and intentionally has
no incremental counterpart (see docs/incremental.md).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterable, Iterator, Sequence

from repro.blocking.base import Block, BlockCollection
from repro.core.comparisons import Comparison
from repro.core.profiles import EntityProfile, ERType
from repro.core.tokenization import distinct_profile_tokens
from repro.incremental.store import MutableProfileStore
from repro.metablocking.weights import WeightingScheme
from repro.registry import weighting_schemes


class IncrementalTokenIndex:
    """Token postings plus blocking statistics under profile ingestion.

    Parameters
    ----------
    store:
        The profile store; profiles already present are indexed
        immediately.
    weighting:
        Registered weighting scheme name, any spelling; built over this
        index as :attr:`scheme`.
    purge_ratio:
        Optional query-time Block Purging bound: tokens whose posting
        exceeds ``ratio * |P|`` (evaluated against the *current* corpus
        size) count for nothing, mirroring batch
        :class:`~repro.blocking.purging.BlockPurging`.
    """

    __slots__ = (
        "store",
        "postings",
        "generation",
        "purge_ratio",
        "scheme",
        "_source_counts",
        "_profile_tokens",
        "_block_counts",
        "_blocks",
        "_block_count",
        "_degrees",
    )

    def __init__(
        self,
        store: MutableProfileStore,
        weighting: str = "ARCS",
        purge_ratio: float | None = None,
    ) -> None:
        self.store = store
        #: token -> profile ids, in ingestion (= ascending id) order.
        self.postings: dict[str, list[int]] = {}
        #: Bumped once per mutation batch; consumers cache against it.
        self.generation = 0
        self.purge_ratio = purge_ratio
        self._source_counts: dict[str, list[int]] = {}
        self._profile_tokens: dict[int, tuple[str, ...]] = {}
        self._block_counts: dict[int, int] = {}
        self._blocks: set[str] = set()
        # |B| and the degrees, computed by the first formula that reads
        # them and dropped on every mutation - most schemes read neither,
        # and must not pay an O(|B|) scan per ingest or probe.
        self._block_count: int | None = None
        self._degrees: tuple[dict[int, int], int] | None = None
        for profile in store:
            self._index_profile(profile)
        #: The shared formula, reading its statistics through this index.
        self.scheme: WeightingScheme = weighting_schemes.build(weighting, self)

    # -- maintenance ----------------------------------------------------------

    def _qualifies(self, token: str) -> bool:
        if self.store.er_type is ERType.CLEAN_CLEAN:
            counts = self._source_counts[token]
            return counts[0] >= 1 and counts[1] >= 1
        return len(self.postings[token]) >= 2

    def _index_profile(self, profile: EntityProfile) -> list[str]:
        """Index one profile; returns the tokens that became blocks."""
        profile_id = profile.profile_id
        tokens = tuple(sorted(distinct_profile_tokens(profile)))
        self._profile_tokens[profile_id] = tokens
        source = profile.source
        transitioned: list[str] = []
        for token in tokens:
            posting = self.postings.setdefault(token, [])
            posting.append(profile_id)
            counts = self._source_counts.setdefault(token, [0, 0])
            if source < 2:
                counts[source] += 1
            if token in self._blocks:
                # Already a block: only the newcomer gains a block.
                self._block_counts[profile_id] = (
                    self._block_counts.get(profile_id, 0) + 1
                )
            elif self._qualifies(token):
                # Qualification transition: every member gains a block.
                self._blocks.add(token)
                transitioned.append(token)
                for member in posting:
                    self._block_counts[member] = (
                        self._block_counts.get(member, 0) + 1
                    )
        return transitioned

    def add_profiles(self, profiles: Iterable[EntityProfile]) -> None:
        """Index a batch of freshly ingested profiles (one generation bump)."""
        count = 0
        for profile in profiles:
            self._index_profile(profile)
            count += 1
        if count:
            self.generation += 1
            self._block_count = self._degrees = None

    @contextmanager
    def holding(self, profile: EntityProfile) -> Iterator[None]:
        """Store and index a read-only probe for a ``with`` block.

        Inside the block the probe is a stored, indexed profile like any
        other (exact as-if-ingested statistics); on exit, on an
        exception too, the store and the index are rolled back exactly
        and the statistics cache is dropped.  The probe needs the
        store's next id (:meth:`MutableProfileStore.holding
        <repro.incremental.store.MutableProfileStore.holding>`), so its
        posting entries land at the end of every touched list.

        ``generation`` is deliberately *not* bumped: a probe leaves the
        net state untouched, and bumping would make generation-keyed
        consumers (the streaming emitter) treat unchanged state as
        stale.
        """
        with self.store.holding(profile):
            journal = self._index_profile(profile)
            self._block_count = self._degrees = None
            try:
                yield
            finally:
                profile_id, source = profile.profile_id, profile.source
                self._block_counts.pop(profile_id, None)
                for token in self._profile_tokens.pop(profile_id):
                    posting = self.postings[token]
                    posting.pop()
                    if source < 2:
                        self._source_counts[token][source] -= 1
                    if not posting:
                        del self.postings[token]
                        del self._source_counts[token]
                for token in journal:
                    self._blocks.discard(token)
                    for member in self.postings.get(token, ()):
                        remaining = self._block_counts[member] - 1
                        if remaining:
                            self._block_counts[member] = remaining
                        else:
                            del self._block_counts[member]
                self._block_count = self._degrees = None

    # -- BlockStatistics under the purge bound ---------------------------------

    def purge_limit(self) -> float | None:
        """The current Block Purging size bound (None when disabled)."""
        if self.purge_ratio is None:
            return None
        return self.purge_ratio * len(self.store)

    def is_block(self, token: str) -> bool:
        """Whether ``token`` currently qualifies as a block (purging aside)."""
        return token in self._blocks

    def cardinality(self, token: str) -> int:
        """||b|| - comparisons entailed by the token's current block."""
        if self.store.er_type is ERType.CLEAN_CLEAN:
            counts = self._source_counts[token]
            return counts[0] * counts[1]
        n = len(self.postings[token])
        return n * (n - 1) // 2

    def blocks_of_count(self, profile_id: int) -> int:
        """|B_i| - number of unpurged blocks containing the profile."""
        limit = self.purge_limit()
        if limit is None:
            return self._block_counts.get(profile_id, 0)
        return sum(
            1
            for token in self._profile_tokens.get(profile_id, ())
            if token in self._blocks and len(self.postings[token]) <= limit
        )

    def block_count(self) -> int:
        """|B| - number of unpurged blocks (cached until the next mutation)."""
        if self._block_count is None:
            limit = self.purge_limit()
            if limit is None:
                self._block_count = len(self._blocks)
            else:
                self._block_count = sum(
                    1 for token in self._blocks if len(self.postings[token]) <= limit
                )
        return self._block_count

    def degrees(self) -> tuple[dict[int, int], int]:
        """Blocking Graph node degrees and |E| of the *current* state.

        Same quantities the batch pre-pass computes (distinct valid
        co-occurring profiles per node); O(graph), cached until the next
        mutation - the documented cost of degree-based schemes under
        ingestion.
        """
        if self._degrees is not None:
            return self._degrees
        valid = self.store.valid_comparison
        limit = self.purge_limit()
        degrees: dict[int, int] = {}
        total = 0
        for profile_id, tokens in self._profile_tokens.items():
            neighbors: set[int] = set()
            for token in tokens:
                posting = self.postings[token]
                if token in self._blocks and (limit is None or len(posting) <= limit):
                    neighbors.update(posting)
            count = sum(1 for neighbor in neighbors if valid(profile_id, neighbor))
            if count:
                degrees[profile_id] = count
                total += count
        self._degrees = (degrees, total // 2)
        return self._degrees

    def common_blocks(self, i: int, j: int) -> list[str]:
        """Unpurged blocks two indexed profiles share, alphabetically."""
        a = self._profile_tokens.get(i, ())
        b = set(self._profile_tokens.get(j, ()))
        limit = self.purge_limit()
        return [
            token
            for token in a
            if token in b
            and token in self._blocks
            and (limit is None or len(self.postings[token]) <= limit)
        ]

    # -- candidate generation and scoring -------------------------------------

    def candidate_pairs(
        self, new_ids: Sequence[int]
    ) -> Iterator[tuple[int, int, list[str]]]:
        """Comparisons introduced by freshly indexed profiles.

        Yields ``(i, j, shared_tokens)`` with ``i < j`` for every valid
        comparison that involves at least one profile of ``new_ids``,
        exactly once, with the shared unpurged blocks in alphabetical
        order.  Pairs whose profiles were both present before the batch
        are *not* yielded - their comparison was emitted when the later
        of the two arrived.  A read-only probe is a one-profile batch of
        the profile :meth:`holding` holds.
        """
        new_set = set(new_ids)
        profiles = self.store.profiles
        clean_clean = self.store.er_type is ERType.CLEAN_CLEAN
        limit = self.purge_limit()
        for profile_id in sorted(new_set):
            source = profiles[profile_id].source
            shared: dict[int, list[str]] = {}
            for token in self._profile_tokens.get(profile_id, ()):
                if token not in self._blocks:
                    continue
                posting = self.postings[token]
                if limit is not None and len(posting) > limit:
                    continue
                for neighbor in posting:
                    # A pair of two new profiles is owned by the larger
                    # id, so it is yielded once; Clean-clean pairs cross
                    # sources.
                    if (
                        neighbor == profile_id
                        or (neighbor > profile_id and neighbor in new_set)
                        or (clean_clean and profiles[neighbor].source == source)
                    ):
                        continue
                    tokens = shared.get(neighbor)
                    if tokens is None:
                        shared[neighbor] = [token]
                    else:
                        tokens.append(token)
            for neighbor, tokens in shared.items():
                if neighbor < profile_id:
                    yield neighbor, profile_id, tokens
                else:
                    yield profile_id, neighbor, tokens

    def score(
        self, items: Iterable[tuple[int, int, Sequence[str]]]
    ) -> list[Comparison]:
        """Weigh candidate pairs with :attr:`scheme`, best first.

        ``items`` are :meth:`candidate_pairs` triples; the result is
        sorted by the system-wide emission order ``(-weight, i, j)``.
        """
        contribution = self.scheme.contribution
        finalize = self.scheme.finalize
        out = []
        for i, j, tokens in items:
            raw = 0.0
            for token in tokens:
                raw += contribution(token)
            out.append(Comparison(i, j, finalize(i, j, raw)))
        out.sort(key=lambda c: (-c.weight, c.i, c.j))
        return out

    # -- bridge back to the batch substrate -----------------------------------

    def snapshot_blocks(self) -> BlockCollection:
        """The current unpurged blocks as a batch :class:`BlockCollection`.

        Blocks are the qualifying tokens in alphabetical order with
        store-ascending member ids - byte-identical to
        ``token_blocking_workflow(store, purge_ratio=None,
        filter_ratio=None)`` over the same profiles when purging is off,
        which is what the incremental/batch parity property rests on.
        """
        limit = self.purge_limit()
        blocks = []
        for token in sorted(self._blocks):
            ids = self.postings[token]
            if limit is None or len(ids) <= limit:
                blocks.append(Block(token, ids, self.store))
        collection = BlockCollection(blocks, self.store)
        collection.assign_block_ids()
        return collection

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"IncrementalTokenIndex({len(self.postings)} tokens, "
            f"{len(self._blocks)} blocks, generation={self.generation})"
        )
