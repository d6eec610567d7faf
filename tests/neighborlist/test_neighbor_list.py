"""Unit tests for the Neighbor List."""

from __future__ import annotations

import itertools

import pytest

from repro.core.profiles import ProfileStore
from repro.neighborlist.neighbor_list import NeighborList


class TestFromKeyPairs:
    def test_sorted_by_key(self):
        nl = NeighborList.from_key_pairs(
            [("b", 1), ("a", 0), ("c", 2)], tie_order="insertion"
        )
        assert nl.entries == [0, 1, 2]
        assert nl.keys == ["a", "b", "c"]

    def test_insertion_tie_order(self):
        nl = NeighborList.from_key_pairs(
            [("k", 2), ("k", 0), ("k", 1)], tie_order="insertion"
        )
        assert nl.entries == [2, 0, 1]

    def test_random_tie_order_is_seeded(self):
        pairs = [("k", i) for i in range(10)]
        a = NeighborList.from_key_pairs(pairs, tie_order="random", seed=1)
        b = NeighborList.from_key_pairs(pairs, tie_order="random", seed=1)
        c = NeighborList.from_key_pairs(pairs, tie_order="random", seed=2)
        assert a.entries == b.entries
        assert a.entries != c.entries  # overwhelmingly likely for 10! orders

    def test_random_order_shuffles_within_runs_only(self):
        pairs = [("a", 0), ("a", 1), ("b", 2), ("b", 3)]
        nl = NeighborList.from_key_pairs(pairs, tie_order="random", seed=5)
        assert set(nl.entries[:2]) == {0, 1}
        assert set(nl.entries[2:]) == {2, 3}

    def test_invalid_tie_order(self):
        with pytest.raises(ValueError, match="tie_order"):
            NeighborList.from_key_pairs([("a", 0)], tie_order="sorted")

    def test_parallel_array_validation(self):
        with pytest.raises(ValueError, match="parallel"):
            NeighborList([0, 1], ["a"])


class TestSchemaAgnostic:
    def test_one_position_per_distinct_token(self):
        store = ProfileStore.from_attribute_maps(
            [{"a": "x y"}, {"b": "y z z"}]
        )
        nl = NeighborList.schema_agnostic(store, tie_order="insertion")
        assert len(nl) == 4  # x, y(x2), z
        assert nl.keys == ["x", "y", "y", "z"]
        assert nl.entries == [0, 0, 1, 1]

    def test_multiple_placements_per_profile(self, paper_profiles):
        """Section 3.2: every profile has multiple placements."""
        nl = NeighborList.schema_agnostic(paper_profiles)
        for pid in range(6):
            assert nl.entries.count(pid) == 4


class TestRuns:
    def test_runs_group_equal_keys(self):
        """Sorting the keys puts every run of equal keys in one stretch."""
        nl = NeighborList.from_key_pairs(
            [("k2", 2), ("k1", 0), ("k3", 3), ("k1", 1)], tie_order="insertion"
        )
        runs = [
            (key, [pid for _, pid in group])
            for key, group in itertools.groupby(
                zip(nl.keys, nl.entries), key=lambda pair: pair[0]
            )
        ]
        assert runs == [("k1", [0, 1]), ("k2", [2]), ("k3", [3])]
