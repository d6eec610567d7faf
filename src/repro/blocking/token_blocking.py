"""Token Blocking - schema-agnostic Standard Blocking [18].

Creates one block per distinct attribute-value token that appears in at
least two profiles (at least one per source for Clean-clean ER), regardless
of the attribute the token came from.  This is step (1) of the paper's
Token Blocking workflow (Section 7, "Parameter configuration") and the
source of the redundancy-positive blocks required by the equality-based
progressive methods.
"""

from __future__ import annotations

from typing import Iterable

from repro.blocking.base import Block, BlockCollection
from repro.core.profiles import ERType, ProfileStore
from repro.core.tokenization import token_stream
from repro.registry import blocking_schemes


class TokenBlocking:
    """Builds token blocks from a profile store."""

    def build(self, store: ProfileStore) -> BlockCollection:
        """One block per token shared by >= 2 profiles (cross-source for
        Clean-clean), in deterministic (alphabetical) key order."""
        return self.build_from_pairs(token_stream(store), store)

    @staticmethod
    def build_from_pairs(
        pairs: Iterable[tuple[str, int]], store: ProfileStore
    ) -> BlockCollection:
        """The grouping half of :meth:`build`, over a ``(token, id)`` stream.

        Split out so the blocking substrate can cache one tokenization
        sweep and replay it here; ``build`` routes through this method,
        keeping a single grouping code path.
        """
        buckets: dict[str, list[int]] = {}
        for token, profile_id in pairs:
            buckets.setdefault(token, []).append(profile_id)

        blocks: list[Block] = []
        cross_source = store.er_type is ERType.CLEAN_CLEAN
        for token in sorted(buckets):
            ids = buckets[token]
            if len(ids) < 2:
                continue
            block = Block(token, ids, store)
            if cross_source and (not block.left_ids or not block.right_ids):
                continue
            blocks.append(block)
        return BlockCollection(blocks, store)


blocking_schemes.register("token", TokenBlocking, aliases=("token-blocking",))
