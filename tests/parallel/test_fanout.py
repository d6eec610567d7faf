"""The pooled fan-out's two decisions: how a row axis is cut
(``balanced_ranges`` - contiguity, coverage, balance, degenerate inputs)
and how grouped counts meet again (``PoolFanout.merge_counts``) - plus
the ranking that is deliberately *not* cut: one stable sort equals the
global ``(-weight, i, j)`` lexsort."""

from __future__ import annotations

import pytest

np = pytest.importorskip("numpy")

from repro.engine.topk import rank_pairs, sort_pairs_descending  # noqa: E402
from repro.parallel.fanout import PoolFanout, balanced_ranges  # noqa: E402
from repro.parallel.pool import WorkerPool  # noqa: E402


def lengths(ranges):
    return [hi - lo for lo, hi in ranges]


class TestInvariants:
    @pytest.mark.parametrize("shards", [1, 2, 3, 7, 16])
    def test_partition_covers_axis_exactly(self, shards):
        rng = np.random.default_rng(3)
        masses = rng.integers(0, 50, size=101)
        ranges = balanced_ranges(masses, shards)
        assert len(ranges) == shards
        assert ranges[0][0] == 0
        assert ranges[-1][1] == 101
        for left, right in zip(ranges, ranges[1:], strict=False):
            assert left[1] == right[0]
        # The fan-out hands the kernels exactly these ranges.
        assert PoolFanout(shards, WorkerPool(0)).ranges(101, masses) == ranges

    def test_balance_within_one_max_row(self):
        """No shard exceeds the ideal mass by more than one row's mass."""
        rng = np.random.default_rng(5)
        masses = rng.integers(1, 40, size=200)
        shards = 4
        ideal = int(masses.sum()) / shards
        for lo, hi in balanced_ranges(masses, shards):
            if hi > lo:
                assert masses[lo:hi].sum() <= ideal + masses[lo:hi].max()

    def test_uniform_covers_and_orders(self):
        assert balanced_ranges(10, 3) == [(0, 3), (3, 7), (7, 10)]
        assert PoolFanout(3, WorkerPool(0)).ranges(10) == [(0, 3), (3, 7), (7, 10)]
        # A numpy integer axis length is a length, not a one-row mass array.
        assert PoolFanout(3, WorkerPool(0)).ranges(np.int64(10)) == [
            (0, 3), (3, 7), (7, 10)
        ]  # fmt: skip

    def test_invalid_construction_rejected(self):
        with pytest.raises(ValueError, match="shard count must be >= 1"):
            balanced_ranges(5, 0)
        with pytest.raises(ValueError, match="shard count must be >= 1"):
            balanced_ranges(np.array([1, 2]), 0)


class TestDegenerate:
    def test_more_shards_than_rows_yields_empty_shards(self):
        ranges = balanced_ranges(np.array([4, 4]), 7)
        assert len(ranges) == 7
        assert sum(lengths(ranges)) == 2
        assert sum(1 for length in lengths(ranges) if length) <= 2
        assert len(balanced_ranges(2, 4)) == 4

    def test_single_profile(self):
        assert sum(lengths(balanced_ranges(np.array([9]), 3))) == 1

    def test_empty_axis(self):
        for axis in (np.array([], dtype=np.int64), 0):
            ranges = balanced_ranges(axis, 3)
            assert len(ranges) == 3 and not any(lengths(ranges))

    def test_all_zero_masses(self):
        assert balanced_ranges(np.array([0, 0, 0, 0]), 2)[-1][1] == 4

    def test_one_huge_row_swallows_cuts(self):
        """A row bigger than the ideal shard mass must not break
        monotonicity; later shards just come back empty."""
        ranges = balanced_ranges(np.array([1, 1000, 1, 1]), 4)
        bounds = [lo for lo, _ in ranges] + [ranges[-1][1]]
        assert bounds == sorted(bounds)
        assert sum(lengths(ranges)) == 4


class TestMergeCounts:
    @pytest.mark.parametrize("shards", [1, 2, 3, 7])
    def test_grouped_counts_equal_global_unique(self, shards):
        rng = np.random.default_rng(shards)
        events = rng.integers(0, 40, size=1000)
        expected_keys, expected_counts = np.unique(events, return_counts=True)

        fanout = PoolFanout(shards, WorkerPool(0))
        grouped = [
            np.unique(events[lo:hi], return_counts=True)
            for lo, hi in fanout.ranges(events.size)
        ]
        keys, counts = fanout.merge_counts(grouped)
        np.testing.assert_array_equal(keys, expected_keys)
        np.testing.assert_array_equal(counts, expected_counts)
        assert keys.dtype == counts.dtype == np.int64

    def test_grouped_counts_empty(self):
        empty = (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
        for parts in ([], [empty, empty]):
            keys, counts = PoolFanout(2, WorkerPool(0)).merge_counts(parts)
            assert keys.size == 0 and counts.size == 0


def random_scored_pairs(rng, size, n=50, tie_every=3):
    """Key-sorted canonical pairs with deliberately tie-heavy weights."""
    i = rng.integers(0, n - 1, size=size)
    j = i + rng.integers(1, 5, size=size)
    keys = np.unique(i * n + j)
    i, j = keys // n, keys % n
    weights = rng.integers(0, max(2, keys.size // tie_every), size=keys.size)
    return i, j, weights.astype(np.float64)


@pytest.mark.parametrize("size", [0, 1, 2, 500])
def test_rank_pairs_equals_global_lexsort(size):
    """The ranking is never sharded: one stable sort of key-sorted
    pairs *is* the ``(-weight, i, j)`` order, ties included."""
    i, j, weights = random_scored_pairs(np.random.default_rng(size), size)
    order = sort_pairs_descending(i, j, weights)
    for got, want in zip(
        rank_pairs(i, j, weights), (i[order], j[order], weights[order]), strict=True
    ):
        np.testing.assert_array_equal(got, want)
