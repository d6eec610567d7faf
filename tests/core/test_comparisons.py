"""Unit tests for Comparison, the chunk builders, ComparisonList and
SortedStack."""

from __future__ import annotations

import gc
import struct

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
        ids = np.arange(BUILT + 1).astype(object)
        assert full_collections(lambda: comparison_chunks(i, i + 1, weights, ids)) == 0


def bits(weight):
    return struct.pack("<d", weight)


class TestSharedFields:
    """The array builder shares its fields: ids come from the session's
    table, equal-bit weights are one ``float`` a chunk - and the
    comparisons equal the plain build, weights bit for bit."""

    N = 1000
    #: 0.0, -0.0, a NaN with a payload, the smallest subnormal, 0.5.
    WEIGHT_BITS = [0, 1 << 63, 0x7FF8_0000_0000_0001, 1, 0x3FE0_0000_0000_0000]

    def arrays(self, size):
        np = pytest.importorskip("numpy")
        picks = np.arange(size)
        i = np.array([0, 256, 257, self.N - 1])[picks % 4]
        j = np.array([257, self.N - 1, 0, 256])[picks % 4]
        weight_bits = np.array(self.WEIGHT_BITS, dtype=np.uint64)
        weights = weight_bits[picks % len(self.WEIGHT_BITS)].view(np.float64)
        return i, j, weights, np.arange(self.N).astype(object)

    def test_equals_the_plain_build_bit_for_bit(self):
        i, j, weights, ids = self.arrays(2 * CHUNK_SIZE + 7)
        shared = [c for chunk in comparison_chunks(i, j, weights, ids) for c in chunk]
        plain = list(zip(i.tolist(), j.tolist(), weights.tolist()))
        assert len(shared) == len(plain)
        for comparison, (pi, pj, pw) in zip(shared, plain):
            assert type(comparison) is Comparison
            assert (comparison.i, comparison.j) == (pi, pj)
            assert bits(comparison.weight) == bits(pw)

    def test_ids_are_one_object_across_chunks(self):
        i, j, weights, ids = self.arrays(2 * CHUNK_SIZE)
        first, second = comparison_chunks(i, j, weights, ids)
        for profile in (0, 256, 257, self.N - 1):
            held = [c.i for c in first + second if c.i == profile]
            held += [c.j for c in first + second if c.j == profile]
            assert len({id(value) for value in held}) == 1

    def test_equal_bit_weights_are_one_object_in_a_chunk(self):
        i, j, weights, ids = self.arrays(CHUNK_SIZE)
        (chunk,) = comparison_chunks(i, j, weights, ids)
        by_bits = {}
        for comparison in chunk:
            by_bits.setdefault(bits(comparison.weight), set()).add(
                id(comparison.weight)
            )
        assert len(by_bits) == len(self.WEIGHT_BITS)
        assert all(len(objects) == 1 for objects in by_bits.values())
        # 0.0 == -0.0, but they are two objects with their own signs.
        assert by_bits[bits(0.0)] != by_bits[bits(-0.0)]


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
