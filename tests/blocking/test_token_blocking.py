"""Unit tests for Token Blocking."""

from __future__ import annotations

from repro.blocking.token_blocking import TokenBlocking
from repro.core.profiles import ProfileStore


class TestTokenBlocking:
    def test_one_block_per_shared_token(self):
        store = ProfileStore.from_attribute_maps(
            [{"a": "x y"}, {"b": "y z"}, {"c": "z"}]
        )
        blocks = TokenBlocking().build(store)
        members = {b.key: set(b.ids) for b in blocks}
        # 'x' appears once only - no block.
        assert members == {"y": {0, 1}, "z": {1, 2}}

    def test_schema_agnostic_across_attribute_names(self):
        """The same token under different attributes lands in one block."""
        store = ProfileStore.from_attribute_maps(
            [{"profession": "tailor"}, {"job": "tailor"}]
        )
        blocks = TokenBlocking().build(store)
        assert [b.key for b in blocks] == ["tailor"]
        assert set(blocks[0].ids) == {0, 1}

    def test_blocks_sorted_by_key(self):
        store = ProfileStore.from_attribute_maps(
            [{"a": "zeta alpha"}, {"a": "zeta alpha"}]
        )
        blocks = TokenBlocking().build(store)
        assert [b.key for b in blocks] == ["alpha", "zeta"]

    def test_clean_clean_requires_both_sources(self, tiny_clean_clean):
        blocks = TokenBlocking().build(tiny_clean_clean)
        keys = {b.key for b in blocks}
        # 'alpha' spans sources; '2005'/'epsilon' are left-only -> dropped.
        assert "alpha" in keys
        assert "epsilon" not in keys
        for block in blocks:
            assert block.left_ids and block.right_ids

    def test_duplicate_token_in_profile_counted_once(self):
        store = ProfileStore.from_attribute_maps(
            [{"a": "x x"}, {"b": "x"}]
        )
        blocks = TokenBlocking().build(store)
        assert blocks[0].ids == (0, 1)

    def test_empty_store(self):
        blocks = TokenBlocking().build(ProfileStore([]))
        assert len(blocks) == 0
