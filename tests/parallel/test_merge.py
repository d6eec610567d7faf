"""ShardMerger / grouped-count merging: exactness against global passes."""

from __future__ import annotations

import pytest

np = pytest.importorskip("numpy")

from repro.engine.topk import sort_pairs_descending  # noqa: E402
from repro.parallel.merge import (  # noqa: E402
    ShardMerger,
    merge_grouped_counts,
)
from repro.parallel.plan import ShardPlan  # noqa: E402


def random_scored_pairs(rng, size, n=50, tie_every=3):
    """Key-sorted canonical pairs with deliberately tie-heavy weights."""
    i = rng.integers(0, n - 1, size=size)
    j = i + rng.integers(1, 5, size=size)
    keys = np.unique(i * n + j)
    i, j = keys // n, keys % n
    # Quantized weights force cross-shard ties, the hard merge case.
    weights = rng.integers(0, max(2, keys.size // tie_every), size=keys.size)
    return i, j, weights.astype(np.float64)


@pytest.mark.parametrize("shards", [1, 2, 3, 7])
@pytest.mark.parametrize("size", [0, 1, 2, 500])
def test_merge_equals_global_lexsort(shards, size):
    rng = np.random.default_rng(size + shards)
    i, j, weights = random_scored_pairs(rng, size)
    order = sort_pairs_descending(i, j, weights)
    expected = (i[order], j[order], weights[order])

    plan = ShardPlan.uniform(i.size, shards)
    ranked = []
    for lo, hi in plan.ranges():
        chunk = np.argsort(-weights[lo:hi], kind="stable")
        ranked.append((i[lo:hi][chunk], j[lo:hi][chunk], weights[lo:hi][chunk]))
    merged = ShardMerger.merge(ranked)
    for got, want in zip(merged, expected, strict=True):
        np.testing.assert_array_equal(got, want)


def test_merge_preserves_weight_bits():
    """Weights pass through by reference semantics - no arithmetic."""
    a = (
        np.array([0]),
        np.array([1]),
        np.array([0.1 + 0.2]),  # a value with famous rounding
    )
    b = (np.array([2]), np.array([3]), np.array([0.3]))
    _, _, weights = ShardMerger.merge([a, b])
    assert weights[0] == 0.1 + 0.2 and weights[1] == 0.3

    assert weights[0] != 0.3  # the two spellings differ in the last ulp


def test_merge_handles_empty_shards():
    empty = (
        np.empty(0, dtype=np.int64),
        np.empty(0, dtype=np.int64),
        np.empty(0, dtype=np.float64),
    )
    solo = (np.array([4]), np.array([5]), np.array([1.5]))
    i, j, weights = ShardMerger.merge([empty, solo, empty])
    assert (i.tolist(), j.tolist(), weights.tolist()) == ([4], [5], [1.5])
    i, j, weights = ShardMerger.merge([empty, empty])
    assert i.size == j.size == weights.size == 0


@pytest.mark.parametrize("shards", [1, 2, 3, 7])
def test_grouped_counts_equal_global_unique(shards):
    rng = np.random.default_rng(shards)
    events = rng.integers(0, 40, size=1000)
    expected_keys, expected_counts = np.unique(events, return_counts=True)

    plan = ShardPlan.uniform(events.size, shards)
    grouped = [
        np.unique(events[lo:hi], return_counts=True)
        for lo, hi in plan.ranges()
    ]
    keys, counts = merge_grouped_counts(grouped)
    np.testing.assert_array_equal(keys, expected_keys)
    np.testing.assert_array_equal(counts, expected_counts)


def test_grouped_counts_empty():
    keys, counts = merge_grouped_counts([])
    assert keys.size == 0 and counts.size == 0
