"""Unit tests for blocks and block collections."""

from __future__ import annotations

from repro.blocking.base import Block, BlockCollection, drop_singleton_blocks
from repro.core.profiles import ERType, ProfileStore


def dirty_store(n: int = 6) -> ProfileStore:
    return ProfileStore.from_attribute_maps([{"a": str(i)} for i in range(n)])


class TestBlock:
    def test_dirty_cardinality(self):
        store = dirty_store()
        block = Block("k", [0, 1, 2, 3], store)
        assert block.size == 4
        assert block.cardinality(ERType.DIRTY) == 6

    def test_clean_clean_cardinality_counts_cross_pairs(self, tiny_clean_clean):
        block = Block("k", [0, 1, 3], tiny_clean_clean)
        assert block.left_ids == (0, 1)
        assert block.right_ids == (3,)
        assert block.cardinality(ERType.CLEAN_CLEAN) == 2

    def test_dirty_comparisons_enumerate_all_pairs(self):
        store = dirty_store()
        block = Block("k", [2, 0, 1], store)
        pairs = {c.pair for c in block.comparisons(ERType.DIRTY)}
        assert pairs == {(0, 2), (0, 1), (1, 2)}

    def test_clean_clean_comparisons_cross_only(self, tiny_clean_clean):
        block = Block("k", [0, 1, 3, 4], tiny_clean_clean)
        pairs = {c.pair for c in block.comparisons(ERType.CLEAN_CLEAN)}
        assert pairs == {(0, 3), (0, 4), (1, 3), (1, 4)}

    def test_contains(self):
        block = Block("k", [1, 2], dirty_store())
        assert 1 in block
        assert 5 not in block


class TestBlockCollection:
    def test_aggregate_cardinality(self):
        store = dirty_store()
        blocks = BlockCollection(
            [Block("a", [0, 1, 2], store), Block("b", [3, 4], store)], store
        )
        assert blocks.aggregate_cardinality() == 3 + 1

    def test_comparisons_include_repeats_across_blocks(self):
        """Each block enumerates its own pairs, so a pair two blocks share
        comes once per block; ``distinct_pairs`` is the deduplicated set."""
        store = dirty_store()
        blocks = BlockCollection(
            [Block("a", [0, 1], store), Block("b", [0, 1], store)], store
        )
        pairs = [c.pair for block in blocks for c in block.comparisons(store.er_type)]
        assert pairs == [(0, 1), (0, 1)]
        assert blocks.aggregate_cardinality() == len(pairs)
        assert blocks.distinct_pairs() == {(0, 1)}

    def test_distinct_pairs_deduplicates(self):
        store = dirty_store()
        blocks = BlockCollection(
            [Block("a", [0, 1], store), Block("b", [0, 1, 2], store)], store
        )
        assert blocks.distinct_pairs() == {(0, 1), (0, 2), (1, 2)}

    def test_assign_block_ids(self):
        store = dirty_store()
        blocks = BlockCollection(
            [Block("a", [0, 1], store), Block("b", [1, 2], store)], store
        )
        blocks.assign_block_ids()
        assert [b.block_id for b in blocks] == [0, 1]


class TestDropSingletonBlocks:
    def test_drops_blocks_without_comparisons(self, tiny_clean_clean):
        blocks = BlockCollection(
            [
                Block("cross", [0, 3], tiny_clean_clean),
                Block("left-only", [0, 1], tiny_clean_clean),
                Block("single", [2], tiny_clean_clean),
            ],
            tiny_clean_clean,
        )
        kept = drop_singleton_blocks(blocks)
        assert [b.key for b in kept] == ["cross"]
