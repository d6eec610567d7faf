"""Unit tests for Suffix Arrays Blocking and the suffix forest."""

from __future__ import annotations

from repro.blocking.suffix_arrays import SuffixArraysBlocking
from repro.core.profiles import ERType, ProfileStore


def coin_store() -> ProfileStore:
    """Profiles whose tokens reproduce the paper's Figure 5 suffix tree:
    coin, join, gain, pain all share suffixes 'oin'/'ain' and root 'in'."""
    return ProfileStore.from_attribute_maps(
        [{"w": "coin"}, {"w": "join"}, {"w": "gain"}, {"w": "pain"}]
    )


class TestSuffixForest:
    def test_figure5_tree_structure(self):
        forest = SuffixArraysBlocking(min_length=2).build_forest(coin_store())
        # Blocks exist only for suffixes shared by >= 2 profiles.
        assert set(forest.nodes) == {"oin", "ain", "in"}
        root = forest.nodes["in"]
        assert {child.suffix for child in root.children} == {"oin", "ain"}
        assert [r.suffix for r in forest.roots] == ["in"]

    def test_block_membership_follows_suffixes(self):
        forest = SuffixArraysBlocking(min_length=2).build_forest(coin_store())
        assert set(forest.nodes["oin"].block.ids) == {0, 1}
        assert set(forest.nodes["ain"].block.ids) == {2, 3}
        assert set(forest.nodes["in"].block.ids) == {0, 1, 2, 3}

    def test_leaves_first_order(self):
        """Deeper layers first; within a layer, fewer comparisons first."""
        forest = SuffixArraysBlocking(min_length=2).build_forest(coin_store())
        order = [n.suffix for n in forest.leaves_first_order(ERType.DIRTY)]
        assert order == ["ain", "oin", "in"]  # depth 3 before depth 2

    def test_layers_grouping(self):
        """A node's layer is its suffix length: Figure 5 has two layers."""
        forest = SuffixArraysBlocking(min_length=2).build_forest(coin_store())
        layers: dict[int, list[str]] = {}
        for node in forest.leaves_first_order(ERType.DIRTY):
            layers.setdefault(node.depth, []).append(node.suffix)
        assert sorted(layers) == [2, 3]
        assert sorted(layers[3]) == ["ain", "oin"]
        assert layers[2] == ["in"]

    def test_max_block_size_cap(self):
        blocker = SuffixArraysBlocking(min_length=2, max_block_size=2)
        forest = blocker.build_forest(coin_store())
        assert "in" not in forest.nodes  # 4 profiles > cap

    def test_forest_statistics(self):
        """Figure 5's forest: three nodes under one root, three layers deep,
        and its blocks hold 1 + 1 + 6 comparisons."""
        forest = SuffixArraysBlocking(min_length=2).build_forest(coin_store())
        nodes = forest.leaves_first_order(ERType.DIRTY)
        assert len(nodes) == len(forest.nodes) == 3
        assert len(forest.roots) == 1
        assert max(node.depth for node in nodes) == 3
        assert [node.block.cardinality(ERType.DIRTY) for node in nodes] == [1, 1, 6]

    def test_empty_forest_statistics(self):
        forest = SuffixArraysBlocking(min_length=2).build_forest(ProfileStore([]))
        assert forest.nodes == {}
        assert forest.roots == []


class TestSuffixArraysBlocking:
    def test_build_returns_blocks_in_progressive_order(self):
        blocks = SuffixArraysBlocking(min_length=2).build(coin_store())
        assert [b.key for b in blocks] == ["ain", "oin", "in"]

    def test_clean_clean_cross_source_filter(self):
        store = ProfileStore.clean_clean([{"w": "coin"}], [{"w": "join"}])
        forest = SuffixArraysBlocking(min_length=2).build_forest(store)
        assert set(forest.nodes) == {"oin", "in"}

    def test_invalid_min_length(self):
        import pytest

        with pytest.raises(ValueError):
            SuffixArraysBlocking(min_length=0)
