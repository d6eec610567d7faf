"""Unit tests for Comparison, the chunk builders, ComparisonList and
SortedStack."""

from __future__ import annotations

import gc

import pytest

from repro.core.comparisons import (
    CHUNK_SIZE,
    Comparison,
    ComparisonList,
    SortedStack,
    chunked,
    comparison_chunks,
)

BUILT = 200_000


class TestComparison:
    def test_make_normalizes_order(self):
        c = Comparison.make(5, 2, 0.7)
        assert (c.i, c.j) == (2, 5)
        assert c.pair == (2, 5)
        assert c.weight == 0.7

    def test_make_rejects_self_comparison(self):
        with pytest.raises(ValueError):
            Comparison.make(3, 3)


@pytest.fixture()
def default_collector():
    """The collector on, at CPython's default thresholds, restored after."""
    enabled, thresholds = gc.isenabled(), gc.get_threshold()
    gc.enable()
    gc.set_threshold(700, 10, 10)
    try:
        yield
    finally:
        gc.set_threshold(*thresholds)
        if not enabled:
            gc.disable()


def full_collections(build):
    """Full (gen2) collections run while ``build()``'s chunks are kept."""
    gc.collect()
    before = gc.get_stats()[2]["collections"]
    chunks = list(build())
    after = gc.get_stats()[2]["collections"]
    assert sum(map(len, chunks)) == BUILT
    assert max(map(len, chunks)) == CHUNK_SIZE
    return after - before


class TestChunkBuilders:
    """A kept stream of tuple-subclass comparisons must not feed full
    collections: every chunk is built with the collector paused."""

    def test_chunked_runs_no_full_collection(self, default_collector):
        stream = (Comparison(i, i + 1, 0.5) for i in range(BUILT))
        assert full_collections(lambda: chunked(stream)) == 0

    def test_comparison_chunks_run_no_full_collection(self, default_collector):
        np = pytest.importorskip("numpy")
        i = np.arange(BUILT, dtype=np.int64)
        weights = np.full(BUILT, 0.5)
        assert full_collections(lambda: comparison_chunks(i, i + 1, weights)) == 0


class TestComparisonList:
    def test_remove_first_returns_highest_weight(self):
        """``drain()`` hands the best comparison out first (it replaced
        the one-at-a-time ``remove_first``)."""
        clist = ComparisonList()
        clist.add(Comparison(0, 1, 0.2))
        clist.add(Comparison(2, 3, 0.9))
        clist.add(Comparison(4, 5, 0.5))
        assert [c.pair for c in clist.drain()] == [(2, 3), (4, 5), (0, 1)]

    def test_tie_break_is_deterministic(self):
        clist = ComparisonList()
        clist.add(Comparison(4, 5, 0.5))
        clist.add(Comparison(0, 1, 0.5))
        assert [c.pair for c in clist.drain()] == [(0, 1), (4, 5)]

    def test_drain_empties_in_descending_order(self):
        clist = ComparisonList(
            [Comparison(0, 1, w) for w in (0.1, 0.9, 0.5)]
        )
        weights = [c.weight for c in clist.drain()]
        assert weights == [0.9, 0.5, 0.1]
        assert len(clist) == 0

    def test_add_after_sort_resorts(self):
        clist = ComparisonList([Comparison(0, 1, 0.5)])
        assert [c.weight for c in clist] == [0.5]
        clist.add(Comparison(2, 3, 0.8))
        assert [c.weight for c in clist.drain()] == [0.8, 0.5]

    def test_len_and_iter(self):
        clist = ComparisonList([Comparison(0, 1, 0.5), Comparison(1, 2, 0.6)])
        assert len(clist) == 2
        assert [c.weight for c in clist] == [0.6, 0.5]
        # Iteration does not consume.
        assert len(clist) == 2


class TestSortedStack:
    def test_pop_returns_lowest_weight(self):
        stack = SortedStack()
        stack.push(Comparison(0, 1, 0.9))
        stack.push(Comparison(1, 2, 0.1))
        stack.push(Comparison(2, 3, 0.5))
        assert stack.pop().weight == 0.1
        assert len(stack) == 2

    def test_pop_empty_raises(self):
        with pytest.raises(IndexError):
            SortedStack().pop()

    def test_bounded_top_k_pattern(self):
        """The PPS usage: keep the K highest by popping the lowest."""
        stack = SortedStack()
        k = 3
        for weight in [0.5, 0.1, 0.9, 0.3, 0.7]:
            stack.push(Comparison(0, int(weight * 10) + 1, weight))
            if len(stack) > k:
                stack.pop()
        kept = sorted(c.weight for c in stack.drain_descending())
        assert kept == [0.5, 0.7, 0.9]

    def test_drain_descending(self):
        stack = SortedStack()
        for weight in (0.2, 0.8, 0.5):
            stack.push(Comparison(0, 1, weight))
        assert [c.weight for c in stack.drain_descending()] == [0.8, 0.5, 0.2]
        assert len(stack) == 0
