"""Delta-maintained Token Blocking index for online resolution.

Batch Token Blocking (Section 7's workflow) rebuilds every block from
scratch; an online resolver cannot afford that per arrival.
:class:`IncrementalTokenIndex` maintains the same schema-agnostic
substrate - token postings, block qualification, per-profile block
counts - with O(tokens-of-profile) work per ingested profile:

* a token *qualifies* as a block exactly when batch Token Blocking would
  emit it: at least two profiles (Dirty ER) or at least one profile per
  source (Clean-clean ER).  Qualification is monotone under ingestion
  (profiles are never removed), so transitions are detected in O(1) per
  token and per-profile block counts |B_i| are maintained by pure deltas;
* :meth:`candidate_pairs` enumerates, for a freshly ingested batch, every
  comparison that involves a new profile, together with the shared
  qualifying tokens in deterministic (alphabetical) order - the exact
  accumulation order the batch Blocking Graph uses, which is what makes
  incremental weights bit-identical to batch weights;
* :meth:`snapshot_blocks` materializes the current state as a regular
  :class:`~repro.blocking.base.BlockCollection`, byte-identical to what
  ``token_blocking_workflow(store, purge_ratio=None, filter_ratio=None)``
  would build over the same profiles - the bridge back to every batch
  component (full re-ranking, evaluation, the CSR engine).

Block Purging is supported as a *query-time* bound (``purge_limit``):
over-populated stop-word tokens contribute no candidates, evaluated
against the current corpus size.  Block Filtering is a batch-global
re-ranking of each profile's blocks and intentionally has no incremental
counterpart (see docs/incremental.md).
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from repro.blocking.base import Block, BlockCollection
from repro.core.profiles import EntityProfile, ERType, ProfileStore
from repro.core.tokenization import distinct_profile_tokens


class IncrementalTokenIndex:
    """Token postings plus blocking statistics under profile ingestion.

    Parameters
    ----------
    store:
        The (usually mutable) profile store; profiles already present are
        indexed immediately.
    """

    __slots__ = (
        "store",
        "postings",
        "generation",
        "_source_counts",
        "_profile_tokens",
        "_block_counts",
        "_blocks",
    )

    def __init__(self, store: ProfileStore) -> None:
        self.store = store
        #: token -> profile ids, in ingestion (= ascending id) order.
        self.postings: dict[str, list[int]] = {}
        #: Bumped once per mutation batch; consumers cache against it.
        self.generation = 0
        self._source_counts: dict[str, list[int]] = {}
        self._profile_tokens: dict[int, tuple[str, ...]] = {}
        self._block_counts: dict[int, int] = {}
        self._blocks: set[str] = set()
        for profile in store:
            self._index_profile(profile)

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

    def add_profile(self, profile: EntityProfile) -> None:
        """Index one freshly ingested profile (one generation bump)."""
        self.add_profiles([profile])

    def add_profiles(self, profiles: Iterable[EntityProfile]) -> None:
        """Index a batch of freshly ingested profiles (one generation bump)."""
        count = 0
        for profile in profiles:
            self._index_profile(profile)
            count += 1
        if count:
            self.generation += 1

    # -- statistics -----------------------------------------------------------

    def is_block(self, token: str) -> bool:
        """Whether ``token`` currently qualifies as a block."""
        return token in self._blocks

    def block_count(self, purge_limit: float | None = None) -> int:
        """|B| - number of qualifying blocks (optionally under purging)."""
        if purge_limit is None:
            return len(self._blocks)
        return sum(
            1 for token in self._blocks if len(self.postings[token]) <= purge_limit
        )

    def blocks_of_count(
        self, profile_id: int, purge_limit: float | None = None
    ) -> int:
        """|B_i| - number of qualifying blocks containing the profile."""
        if purge_limit is None:
            return self._block_counts.get(profile_id, 0)
        return sum(
            1
            for token in self._profile_tokens.get(profile_id, ())
            if token in self._blocks and len(self.postings[token]) <= purge_limit
        )

    def cardinality(self, token: str) -> int:
        """||b|| - comparisons entailed by the token's current block."""
        if self.store.er_type is ERType.CLEAN_CLEAN:
            counts = self._source_counts[token]
            return counts[0] * counts[1]
        n = len(self.postings[token])
        return n * (n - 1) // 2

    def tokens_of(self, profile_id: int) -> tuple[str, ...]:
        """The profile's distinct blocking keys, alphabetically."""
        return self._profile_tokens.get(profile_id, ())

    def indexed_profiles(self) -> list[int]:
        """Ids of all indexed profiles, in ingestion order."""
        return list(self._profile_tokens)

    def pair_tokens(
        self, i: int, j: int, purge_limit: float | None = None
    ) -> list[str]:
        """Qualifying tokens shared by two indexed profiles, alphabetically."""
        a, b = self.tokens_of(i), self.tokens_of(j)
        if len(b) < len(a):
            a, b = b, a
        b_set = set(b)
        return [
            token
            for token in a
            if token in b_set
            and token in self._blocks
            and (purge_limit is None or len(self.postings[token]) <= purge_limit)
        ]

    # -- candidate generation -------------------------------------------------

    def candidate_pairs(
        self,
        new_ids: Sequence[int],
        purge_limit: float | None = None,
    ) -> Iterator[tuple[int, int, list[str]]]:
        """Comparisons introduced by freshly indexed profiles.

        Yields ``(i, j, shared_tokens)`` with ``i < j`` for every valid
        comparison that involves at least one profile of ``new_ids``,
        exactly once, with the shared qualifying tokens in alphabetical
        order.  Pairs whose profiles were both present before the batch
        are *not* yielded - their comparison was emitted when the later
        of the two arrived.  A read-only probe is a one-profile batch of
        the profile its store holds for the call.
        """
        new_set = set(new_ids)
        profiles = self.store.profiles
        clean_clean = self.store.er_type is ERType.CLEAN_CLEAN
        for profile_id in sorted(new_set):
            source = profiles[profile_id].source
            shared: dict[int, list[str]] = {}
            for token in self._profile_tokens.get(profile_id, ()):
                if token not in self._blocks:
                    continue
                posting = self.postings[token]
                if purge_limit is not None and len(posting) > purge_limit:
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

    # -- read-only probes -----------------------------------------------------

    def probe_enter(self, profile: EntityProfile) -> list[str]:
        """Temporarily index a probe profile (exact as-if-ingested stats).

        The probe must be the store's last profile (held there by
        :meth:`~repro.incremental.store.MutableProfileStore.holding`),
        so its posting entries land at the end of every touched list,
        which is what makes :meth:`probe_exit` an exact rollback.
        Returns the journal (tokens that became blocks) to hand back to
        :meth:`probe_exit`.

        ``generation`` is deliberately *not* bumped: a probe leaves the
        net state untouched, and bumping would make generation-keyed
        consumers (the streaming emitter) treat unchanged state as
        stale.  Statistics caches that may be read
        *during* the probe must be invalidated explicitly (the resolver
        handles its weighter).
        """
        if profile.profile_id in self._profile_tokens:
            raise ValueError(
                f"probe id {profile.profile_id} is already indexed"
            )
        return self._index_profile(profile)

    def probe_exit(self, profile: EntityProfile, journal: list[str]) -> None:
        """Roll back :meth:`probe_enter` exactly (postings, counts, blocks)."""
        profile_id = profile.profile_id
        tokens = self._profile_tokens.pop(profile_id)
        self._block_counts.pop(profile_id, None)
        for token in tokens:
            posting = self.postings[token]
            if posting[-1] != profile_id:  # pragma: no cover - misuse guard
                raise RuntimeError("probe_exit out of order")
            posting.pop()
            counts = self._source_counts[token]
            if profile.source < 2:
                counts[profile.source] -= 1
            if not posting:
                del self.postings[token]
                del self._source_counts[token]
        for token in journal:
            self._blocks.discard(token)
            for member in self.postings.get(token, ()):
                remaining = self._block_counts.get(member, 0) - 1
                if remaining <= 0:
                    self._block_counts.pop(member, None)
                else:
                    self._block_counts[member] = remaining

    # -- bridge back to the batch substrate -----------------------------------

    def snapshot_blocks(
        self, purge_limit: float | None = None
    ) -> BlockCollection:
        """The current state as a batch :class:`BlockCollection`.

        Blocks are the qualifying tokens in alphabetical order with
        store-ascending member ids - byte-identical to
        ``token_blocking_workflow(store, purge_ratio=None,
        filter_ratio=None)`` over the same profiles, which is what the
        incremental/batch parity property rests on.
        """
        blocks = []
        for token in sorted(self._blocks):
            ids = self.postings[token]
            if purge_limit is not None and len(ids) > purge_limit:
                continue
            blocks.append(Block(token, ids, self.store))
        collection = BlockCollection(blocks, self.store)
        collection.assign_block_ids()
        return collection

    def __len__(self) -> int:
        """Number of distinct tokens seen (qualifying or not)."""
        return len(self.postings)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"IncrementalTokenIndex({len(self.postings)} tokens, "
            f"{len(self._blocks)} blocks, generation={self.generation})"
        )
