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
from repro.core.tokenization import DEFAULT_TOKENIZER, Tokenizer


class IncrementalTokenIndex:
    """Token postings plus blocking statistics under profile ingestion.

    Parameters
    ----------
    store:
        The (usually mutable) profile store; profiles already present are
        indexed immediately.
    tokenizer:
        The schema-agnostic blocking-key tokenizer (shared default).
    """

    __slots__ = (
        "store",
        "tokenizer",
        "postings",
        "generation",
        "_source_counts",
        "_profile_tokens",
        "_block_counts",
        "_blocks",
        "_probe",
    )

    def __init__(
        self, store: ProfileStore, tokenizer: Tokenizer = DEFAULT_TOKENIZER
    ) -> None:
        self.store = store
        self.tokenizer = tokenizer
        #: token -> profile ids, in ingestion (= ascending id) order.
        self.postings: dict[str, list[int]] = {}
        #: Bumped once per mutation batch; consumers cache against it.
        self.generation = 0
        self._source_counts: dict[str, list[int]] = {}
        self._profile_tokens: dict[int, tuple[str, ...]] = {}
        self._block_counts: dict[int, int] = {}
        self._blocks: set[str] = set()
        #: The active probe as (profile_id, source), if any.
        self._probe: tuple[int, int] | None = None
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
        tokens = tuple(sorted(self.tokenizer.distinct_profile_tokens(profile)))
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
            1 for token in self._blocks if len(self.postings[token]) <= purge_limit  # repro-analyze: ignore[determinism] pure count, order-independent
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

    def source_of(self, profile_id: int) -> int:
        """Source id of a profile - stored or the active probe."""
        if self._probe is not None and profile_id == self._probe[0]:
            return self._probe[1]
        return self.store.source_of(profile_id)

    def valid_pair(self, i: int, j: int) -> bool:
        """Task validity of a pair of *indexed* profiles.

        Unlike ``store.valid_comparison`` this also covers an active
        probe profile, which is indexed but not stored.
        """
        if i == j:
            return False
        if self.store.er_type is not ERType.CLEAN_CLEAN:
            return True
        return self.source_of(i) != self.source_of(j)

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

    def _pairs_for(
        self,
        profile_id: int,
        include,
        purge_limit: float | None,
    ) -> Iterator[tuple[int, int, list[str]]]:
        """One profile's candidate comparisons, shared tokens alphabetical.

        The single accumulation loop behind :meth:`candidate_pairs` and
        :meth:`probe_pairs` - the two must stay bit-identical for the
        ingest/probe parity contract, so only the neighbor predicate
        (``include``) differs.  Pairs are yielded in first-encounter
        order, each owned by its smaller id.
        """
        shared: dict[int, list[str]] = {}
        order: list[int] = []
        for token in self._profile_tokens.get(profile_id, ()):
            if token not in self._blocks:
                continue
            posting = self.postings[token]
            if purge_limit is not None and len(posting) > purge_limit:
                continue
            for neighbor in posting:
                if neighbor == profile_id or not include(neighbor):
                    continue
                tokens = shared.get(neighbor)
                if tokens is None:
                    shared[neighbor] = [token]
                    order.append(neighbor)
                else:
                    tokens.append(token)
        for neighbor in order:
            i, j = (
                (neighbor, profile_id)
                if neighbor < profile_id
                else (profile_id, neighbor)
            )
            yield i, j, shared[neighbor]

    def candidate_pairs(
        self,
        new_ids: Sequence[int],
        purge_limit: float | None = None,
    ) -> Iterator[tuple[int, int, list[str]]]:
        """Comparisons introduced by a freshly ingested batch.

        Yields ``(i, j, shared_tokens)`` for every valid comparison that
        involves at least one profile of ``new_ids``, exactly once, with
        the shared qualifying tokens in alphabetical order.  Pairs whose
        profiles were both present before the batch are *not* yielded -
        their comparison was emitted when the later of the two arrived.
        """
        new_set = set(new_ids)
        store = self.store
        for profile_id in sorted(new_set):

            def include(neighbor: int, profile_id: int = profile_id) -> bool:
                # A pair of two new profiles is owned by the larger id,
                # so it is yielded exactly once.
                if neighbor in new_set and neighbor > profile_id:
                    return False
                return store.valid_comparison(profile_id, neighbor)

            yield from self._pairs_for(profile_id, include, purge_limit)

    # -- read-only probes -----------------------------------------------------

    def probe_enter(self, profile: EntityProfile) -> list[str]:
        """Temporarily index a probe profile (exact as-if-ingested stats).

        The probe must carry the next dense id (``len(store)``) so its
        posting entries land at the end of every touched list, which is
        what makes :meth:`probe_exit` an exact rollback.  Returns the
        journal (tokens that became blocks) to hand back to
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
        if self._probe is not None:  # pragma: no cover - misuse guard
            raise RuntimeError("a probe is already active")
        transitioned = self._index_profile(profile)
        self._probe = (profile.profile_id, profile.source)
        return transitioned

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
        self._probe = None

    def probe_pairs(
        self,
        profile_id: int,
        source: int,
        purge_limit: float | None = None,
    ) -> Iterator[tuple[int, int, list[str]]]:
        """Candidate comparisons of one (possibly probe) profile.

        Like :meth:`candidate_pairs` for a single id, but comparison
        validity is checked against the given ``source`` instead of the
        store (the probe may not be stored).
        """
        clean_clean = self.store.er_type is ERType.CLEAN_CLEAN

        def include(neighbor: int) -> bool:
            return not (
                clean_clean and self.store.source_of(neighbor) == source
            )

        yield from self._pairs_for(profile_id, include, purge_limit)

    # -- snapshot / restore ---------------------------------------------------

    def postings_csr(self) -> tuple[list[str], list[int], list[int]]:
        """The postings as CSR: sorted tokens, offsets, flat profile ids.

        The snapshot export (see :mod:`repro.service.snapshot`): tokens
        alphabetically, each token's posting ids in ingestion order -
        ``flat[indptr[t]:indptr[t + 1]]`` is token ``t``'s posting.
        Everything else the index maintains (qualification, block
        counts, source counts) is derivable from this plus the store,
        which is what :meth:`restore` does.
        """
        tokens = sorted(self.postings)
        indptr = [0]
        flat: list[int] = []
        for token in tokens:
            flat.extend(self.postings[token])
            indptr.append(len(flat))
        return tokens, indptr, flat

    @classmethod
    def restore(
        cls,
        store: ProfileStore,
        tokens: Sequence[str],
        indptr: Sequence[int],
        flat_ids: Sequence[int],
        tokenizer: Tokenizer = DEFAULT_TOKENIZER,
        generation: int = 0,
    ) -> "IncrementalTokenIndex":
        """Rebuild an index from its CSR snapshot without re-tokenizing.

        The inverse of :meth:`postings_csr` over the same ``store``:
        postings come straight from the arrays, and the derived state -
        per-profile token tuples, source counts, qualification, block
        counts - is recomputed in one pass.  ``tokens`` must be sorted
        (the export order), which makes each profile's accumulated token
        list alphabetical, exactly as :meth:`_index_profile` builds it;
        profile ids inside each posting keep their saved ingestion
        order.  The result is state-identical to the index the snapshot
        was taken from, so a restored session streams bit-identically.
        """
        if len(indptr) != len(tokens) + 1 or (
            len(indptr) > 0 and indptr[-1] != len(flat_ids)
        ):
            raise ValueError(
                f"inconsistent postings CSR: {len(tokens)} tokens, "
                f"{len(indptr)} offsets, {len(flat_ids)} posting entries"
            )
        index = cls.__new__(cls)
        index.store = store
        index.tokenizer = tokenizer
        index.postings = {}
        index.generation = generation
        index._source_counts = {}
        index._profile_tokens = {}
        index._block_counts = {}
        index._blocks = set()
        index._probe = None
        # Every stored profile gets an entry (zero-token ones included),
        # keyed in ingestion order - the invariant _index_profile keeps.
        profile_tokens: dict[int, list[str]] = {
            profile.profile_id: [] for profile in store
        }
        previous = None
        for position, token in enumerate(tokens):
            if previous is not None and not token > previous:
                raise ValueError(
                    f"snapshot tokens must be strictly sorted; "
                    f"{token!r} follows {previous!r}"
                )
            previous = token
            ids = [int(i) for i in flat_ids[indptr[position] : indptr[position + 1]]]
            index.postings[token] = ids
            counts = [0, 0]
            for profile_id in ids:
                try:
                    profile_tokens[profile_id].append(token)
                except KeyError:
                    raise ValueError(
                        f"posting of {token!r} references profile "
                        f"{profile_id}, which the store does not hold"
                    ) from None
                source = store.source_of(profile_id)
                if source < 2:
                    counts[source] += 1
            index._source_counts[token] = counts
            if index._qualifies(token):
                index._blocks.add(token)
                for profile_id in ids:
                    index._block_counts[profile_id] = (
                        index._block_counts.get(profile_id, 0) + 1
                    )
        index._profile_tokens = {
            profile_id: tuple(accumulated)
            for profile_id, accumulated in profile_tokens.items()
        }
        return index

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
