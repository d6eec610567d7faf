"""Blocking Graph weighting over live token statistics.

The Meta-blocking weighting schemes are defined purely by block
statistics - cardinalities, per-profile block counts, |B|, node degrees
- all of which the :class:`IncrementalTokenIndex` maintains (or can
derive) under ingestion.  :class:`IncrementalWeighter` is the live
:class:`~repro.metablocking.weights.BlockStatistics` provider: blocks
are keyed by token, every count honors the query-time purge bound, and
the two whole-corpus statistics are cached per index generation.  The
formulas themselves are the registered scheme classes of
:mod:`repro.metablocking.weights`, built over this view - there is no
second statement of them here.

Bit-exactness with the batch path is a design constraint: per-pair
contributions are accumulated in alphabetical token order - the
ascending-block-id order of the alphabetically ordered collection the
ONLINE batch method indexes - and finalized by the very same code.  The
incremental parity suite asserts equality comparison for comparison.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.core.comparisons import Comparison
from repro.incremental.index import IncrementalTokenIndex
from repro.metablocking.weights import WeightingScheme
from repro.registry import weighting_schemes


class IncrementalWeighter:
    """A weighting scheme evaluated against a live incremental index.

    Parameters
    ----------
    index:
        The delta-maintained token index (the statistics source).
    weighting:
        Registered scheme name, any spelling.
    purge_ratio:
        Optional query-time Block Purging bound: tokens whose posting
        exceeds ``ratio * |P|`` (evaluated against the *current* corpus
        size) contribute nothing, mirroring batch
        :class:`~repro.blocking.purging.BlockPurging`.
    """

    __slots__ = (
        "index",
        "scheme",
        "purge_ratio",
        "size_offset",
        "_cached_generation",
        "_block_count",
        "_degrees",
    )

    def __init__(
        self,
        index: IncrementalTokenIndex,
        weighting: str,
        purge_ratio: float | None = None,
    ) -> None:
        self.index = index
        self.purge_ratio = purge_ratio
        #: Added to the corpus size when evaluating the purge bound -
        #: lets a read-only probe use exact as-if-ingested statistics.
        self.size_offset = 0
        self._cached_generation = -1
        self._block_count: int | None = None
        self._degrees: tuple[dict[int, int], int] | None = None
        #: The shared formula, reading its statistics through this view.
        self.scheme: WeightingScheme = weighting_schemes.build(weighting, self)

    def purge_limit(self) -> float | None:
        """The current Block Purging size bound (None when disabled)."""
        if self.purge_ratio is None:
            return None
        return self.purge_ratio * (len(self.index.store) + self.size_offset)

    def invalidate(self) -> None:
        """Drop all cached statistics (needed around index probes, which
        mutate and restore state without a generation bump)."""
        self._cached_generation = -1

    def _refresh_cache(self) -> None:
        """Forget the whole-corpus statistics of a past generation.

        Both are recomputed lazily, by the first formula that reads them
        - most schemes read neither, and must not pay an O(|B|) scan per
        ingest or probe.
        """
        if self._cached_generation != self.index.generation:
            self._cached_generation = self.index.generation
            self._block_count = None
            self._degrees = None

    # -- BlockStatistics over the live index ----------------------------------

    def cardinality(self, token: str) -> int:
        """||b|| of the token's current block."""
        return self.index.cardinality(token)

    def blocks_of_count(self, profile_id: int) -> int:
        """|B_i| under the current purge bound."""
        return self.index.blocks_of_count(profile_id, self.purge_limit())

    def block_count(self) -> int:
        """|B| under the current purge bound (cached per generation)."""
        self._refresh_cache()
        if self._block_count is None:
            self._block_count = self.index.block_count(self.purge_limit())
        return self._block_count

    def degrees(self) -> tuple[dict[int, int], int]:
        """Blocking Graph node degrees and |E| of the *current* state.

        Same quantities the batch pre-pass computes (distinct valid
        co-occurring profiles per node); O(graph) per generation, cached
        - the documented cost of degree-based schemes under ingestion.
        """
        self._refresh_cache()
        if self._degrees is not None:
            return self._degrees
        index = self.index
        limit = self.purge_limit()
        degrees: dict[int, int] = {}
        total = 0
        for profile_id in index.indexed_profiles():
            neighbors: set[int] = set()
            for token in index.tokens_of(profile_id):
                if not index.is_block(token):
                    continue
                posting = index.postings[token]
                if limit is not None and len(posting) > limit:
                    continue
                neighbors.update(posting)
            neighbors.discard(profile_id)
            # index.valid_pair (not store.valid_comparison): an active
            # probe is indexed but not stored.
            count = sum(
                1
                for neighbor in neighbors  # repro-analyze: ignore[determinism] pure count, order-independent
                if index.valid_pair(profile_id, neighbor)
            )
            if count:
                degrees[profile_id] = count
                total += count
        self._degrees = (degrees, total // 2)
        return self._degrees

    def common_blocks(self, i: int, j: int) -> list[str]:
        """Qualifying tokens two indexed profiles share, alphabetically."""
        return self.index.pair_tokens(i, j, self.purge_limit())

    # -- scoring --------------------------------------------------------------

    def pair_weight(self, i: int, j: int) -> float:
        """Current edge weight of two indexed profiles (0.0 if disjoint)."""
        return self.scheme.weight(i, j)

    def score(
        self, items: Iterable[tuple[int, int, Sequence[str]]]
    ) -> list[Comparison]:
        """Weigh candidate pairs and rank them best-first.

        ``items`` are ``(i, j, shared_tokens)`` triples (the candidate
        generator's output, tokens alphabetical); the result is sorted
        by the system-wide emission order ``(-weight, i, j)``.
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
