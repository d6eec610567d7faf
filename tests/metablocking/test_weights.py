"""Unit tests for the Meta-blocking weighting schemes."""

from __future__ import annotations

import math

import pytest

from repro.blocking.base import Block, BlockCollection
from repro.blocking.scheduling import block_scheduling
from repro.core.profiles import ProfileStore
from repro.metablocking.profile_index import ProfileIndex
from repro.metablocking.weights import make_scheme
from repro.registry import weighting_schemes


@pytest.fixture()
def index() -> ProfileIndex:
    store = ProfileStore.from_attribute_maps([{"a": str(i)} for i in range(5)])
    blocks = BlockCollection(
        [
            Block("x", [0, 1], store),  # cardinality 1
            Block("y", [0, 1, 2], store),  # cardinality 3
            Block("z", [0, 1, 2, 3], store),  # cardinality 6
        ],
        store,
    )
    return ProfileIndex(block_scheduling(blocks))


class TestARCS:
    def test_sums_inverse_cardinalities(self, index):
        arcs = make_scheme("ARCS", index)
        assert arcs.weight(0, 1) == pytest.approx(1 + 1 / 3 + 1 / 6)
        assert arcs.weight(0, 2) == pytest.approx(1 / 3 + 1 / 6)
        assert arcs.weight(2, 3) == pytest.approx(1 / 6)

    def test_zero_without_common_blocks(self, index):
        assert make_scheme("ARCS", index).weight(0, 4) == 0.0


class TestCBS:
    def test_counts_common_blocks(self, index):
        cbs = make_scheme("CBS", index)
        assert cbs.weight(0, 1) == 3.0
        assert cbs.weight(0, 3) == 1.0


class TestECBS:
    def test_formula(self, index):
        ecbs = make_scheme("ECBS", index)
        total = 3
        expected = 3.0 * math.log(total / 3) * math.log(total / 3)
        assert ecbs.weight(0, 1) == pytest.approx(expected)
        # Profile 3 occurs in 1 of 3 blocks -> discount log(3) each side.
        expected_03 = 1.0 * math.log(total / 3) * math.log(total / 1)
        assert ecbs.weight(0, 3) == pytest.approx(expected_03)


class TestJS:
    def test_jaccard_of_block_lists(self, index):
        js = make_scheme("JS", index)
        assert js.weight(0, 1) == pytest.approx(3 / (3 + 3 - 3))
        assert js.weight(0, 2) == pytest.approx(2 / (3 + 2 - 2))
        assert js.weight(0, 3) == pytest.approx(1 / (3 + 1 - 1))


class TestEJS:
    def test_discounts_by_degree(self, index):
        ejs = make_scheme("EJS", index)
        # Degrees: every pair of {0,1,2,3} co-occurs somewhere -> each of
        # 0..3 has degree 3; |E| = 6.
        js_01 = 3 / 3
        expected = js_01 * math.log(6 / 3) * math.log(6 / 3)
        assert ejs.weight(0, 1) == pytest.approx(expected)

    def test_zero_for_disconnected(self, index):
        assert make_scheme("EJS", index).weight(0, 4) == 0.0


class TestSchemeRegistry:
    def test_available(self):
        assert weighting_schemes.names() == ["ARCS", "CBS", "ECBS", "EJS", "JS"]

    def test_case_insensitive(self, index):
        assert make_scheme("arcs", index).name == "ARCS"

    def test_unknown_raises(self, index):
        with pytest.raises(ValueError, match="unknown weighting"):
            make_scheme("nope", index)


class TestStreamingConsistency:
    """contribution()/finalize() must reproduce weight() for all schemes."""

    @pytest.mark.parametrize("name", ["ARCS", "CBS", "ECBS", "JS", "EJS"])
    def test_accumulate_then_finalize(self, index, name):
        scheme = make_scheme(name, index)
        for i in range(5):
            for j in range(i + 1, 5):
                common = index.common_blocks(i, j)
                raw = sum(scheme.contribution(b) for b in common)
                streamed = scheme.finalize(i, j, raw) if common else 0.0
                assert streamed == pytest.approx(scheme.weight(i, j))
