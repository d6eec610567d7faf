"""Unit tests for ground truth and transitive closure."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.ground_truth import GroundTruth, clusters_of, normalize_pair


class TestNormalizePair:
    def test_orders_pair(self):
        assert normalize_pair(5, 2) == (2, 5)
        assert normalize_pair(2, 5) == (2, 5)

    def test_rejects_self_pair(self):
        with pytest.raises(ValueError):
            normalize_pair(3, 3)


class TestGroundTruth:
    def test_plain_pairs(self):
        truth = GroundTruth([(0, 1), (2, 3)], closed=False)
        assert truth.is_match(1, 0)
        assert truth.is_match(2, 3)
        assert not truth.is_match(0, 2)
        assert len(truth) == 2

    def test_transitive_closure(self):
        truth = GroundTruth([(0, 1), (1, 2)])
        assert truth.is_match(0, 2)
        assert len(truth) == 3
        assert truth.clusters == ((0, 1, 2),)

    def test_closure_disabled_keeps_pairs_but_groups_clusters(self):
        truth = GroundTruth([(0, 1), (1, 2)], closed=False)
        assert not truth.is_match(0, 2)
        assert len(truth) == 2
        # Cluster view still groups the connected component.
        assert truth.clusters == ((0, 1, 2),)

    def test_from_clusters(self):
        truth = GroundTruth.from_clusters([(0, 1, 2), (5, 9)])
        assert len(truth) == 4  # C(3,2) + C(2,2)
        assert truth.is_match(0, 2)
        assert truth.is_match(9, 5)

    def test_from_clusters_ignores_duplicates_in_cluster(self):
        truth = GroundTruth.from_clusters([(1, 1, 2)])
        assert len(truth) == 1

    def test_cluster_of(self):
        truth = GroundTruth.from_clusters([(0, 1, 2)])
        assert truth.cluster_of(1) == (0, 1, 2)
        assert truth.cluster_of(99) == (99,)

    def test_is_match_self_is_false(self):
        truth = GroundTruth([(0, 1)])
        assert not truth.is_match(0, 0)

    def test_contains_protocol(self):
        truth = GroundTruth([(0, 1)])
        assert (1, 0) in truth
        assert (0, 2) not in truth

    def test_iteration_is_sorted(self):
        truth = GroundTruth([(5, 4), (0, 1)], closed=False)
        assert list(truth) == [(0, 1), (4, 5)]

    def test_empty_truth(self):
        truth = GroundTruth([])
        assert len(truth) == 0
        assert truth.clusters == ()

    def test_large_closure_chain(self):
        # A chain of 50 nodes collapses into one cluster of C(50,2) pairs.
        truth = GroundTruth([(i, i + 1) for i in range(49)])
        assert len(truth) == 49 * 50 // 2
        assert len(truth.clusters) == 1


def components(pairs):
    """The connected components of ``pairs`` by graph search: the oracle."""
    neighbours: dict[int, set[int]] = {}
    for i, j in pairs:
        neighbours.setdefault(i, set()).add(j)
        neighbours.setdefault(j, set()).add(i)
    seen: set[int] = set()
    found = []
    for start in sorted(neighbours):
        if start in seen:
            continue
        frontier, group = [start], set()
        while frontier:
            node = frontier.pop()
            if node not in group:
                group.add(node)
                frontier.extend(neighbours[node] - group)
        seen |= group
        found.append(tuple(sorted(group)))
    return tuple(sorted(found))


PAIRS = st.lists(
    st.tuples(st.integers(0, 25), st.integers(0, 25)).filter(lambda p: p[0] != p[1]),
    max_size=40,
)


@given(PAIRS)
def test_clusters_of_is_the_connected_components(pairs):
    assert clusters_of(pairs) == components(pairs)
    assert clusters_of(reversed(pairs)) == components(pairs)


@given(PAIRS, st.booleans())
def test_ground_truth_clusters_close_its_pairs(pairs, closed):
    truth = GroundTruth(pairs, closed=closed)
    assert truth.clusters == components(pairs)
    if closed:
        assert truth.pairs == {
            (a, b) for group in truth.clusters for a in group for b in group if a < b
        }
    else:
        assert truth.pairs == {normalize_pair(i, j) for i, j in pairs}
