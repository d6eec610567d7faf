"""Unit tests for Progressive Block Scheduling."""

from __future__ import annotations

import pytest

from repro.blocking.token_blocking import TokenBlocking
from repro.core.profiles import ProfileStore
from repro.progressive.pbs import PBS


class TestPBS:
    def test_no_repeated_comparisons(self, paper_profiles):
        pairs = [c.pair for c in PBS(paper_profiles, purge_ratio=None)]
        assert len(pairs) == len(set(pairs))

    def test_same_eventual_quality_as_batch(self, paper_profiles):
        """Emitted set == the distinct pairs of the block collection."""
        blocks = TokenBlocking().build(paper_profiles)
        method = PBS(paper_profiles, blocks=blocks)
        assert {c.pair for c in method} == blocks.distinct_pairs()

    def test_blocks_processed_in_cardinality_order(self, paper_profiles):
        blocks = TokenBlocking().build(paper_profiles)
        method = PBS(paper_profiles, blocks=blocks)
        method.initialize()
        cardinalities = [
            b.cardinality(paper_profiles.er_type) for b in method.scheduled
        ]
        assert cardinalities == sorted(cardinalities)

    def test_within_block_sorted_by_edge_weight(self, paper_profiles):
        blocks = TokenBlocking().build(paper_profiles)
        method = PBS(paper_profiles, blocks=blocks)
        method.initialize()
        # The 'white' block (last) contributes the leftovers; check order.
        last_block_id = len(method.scheduled) - 1
        weights = [
            c.weight for c in method.block_comparisons(last_block_id).drain()
        ]
        assert weights == sorted(weights, reverse=True)

    @pytest.mark.parametrize("backend", ["python", "numpy"])
    @pytest.mark.parametrize(
        "block_id",
        [lambda count: -1, lambda count: count, lambda count: 10**6],
        ids=["-1", "block_count", "10**6"],
    )
    def test_block_id_outside_the_schedule_raises(
        self, paper_profiles, backend, block_id
    ):
        """Both backends refuse the same ids with the same message (the
        python path used to wrap -1 around to the last block, the numpy
        path to return an empty list)."""
        if backend == "numpy":
            pytest.importorskip("numpy")
        blocks = TokenBlocking().build(paper_profiles)
        method = PBS(paper_profiles, blocks=blocks, backend=backend)
        method.initialize()
        count = method.profile_index.block_count()
        assert count == len(blocks) > 0
        with pytest.raises(IndexError, match=rf"0 <= id < {count}\b"):
            method.block_comparisons(block_id(count))
        assert len(method.block_comparisons(count - 1)) > 0

    def test_workflow_defaults_applied_when_no_blocks_given(self, paper_profiles):
        method = PBS(paper_profiles)
        method.initialize()
        assert method.scheduled is not None
        # Purging at 10% of 6 profiles would drop every block; the tiny
        # example therefore keeps blocks only because ratios are relative.
        assert method.profile_index is not None

    def test_alternative_weighting_scheme(self, paper_profiles):
        blocks = TokenBlocking().build(paper_profiles)
        method = PBS(paper_profiles, weighting="CBS", blocks=blocks)
        comparisons = {c.pair: c.weight for c in method}
        assert comparisons[(0, 1)] == 4.0  # carl, ny, tailor, white

    def test_clean_clean_validity(self, tiny_clean_clean):
        for comparison in PBS(tiny_clean_clean, purge_ratio=None):
            assert tiny_clean_clean.valid_comparison(*comparison.pair)

    def test_empty_store(self):
        method = PBS(ProfileStore([]))
        assert list(method) == []
