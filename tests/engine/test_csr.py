"""ArrayProfileIndex / ArrayPositionIndex against their reference twins."""

from __future__ import annotations

import pytest

np = pytest.importorskip("numpy")

from repro.blocking.scheduling import block_scheduling  # noqa: E402
from repro.blocking.workflow import token_blocking_workflow  # noqa: E402
from repro.engine.csr import (  # noqa: E402
    ArrayPositionIndex,
    ArrayProfileIndex,
    multi_arange,
)
from repro.engine import get_backend  # noqa: E402
from repro.metablocking.profile_index import ProfileIndex  # noqa: E402
from repro.neighborlist.neighbor_list import NeighborList  # noqa: E402
from repro.neighborlist.position_index import PositionIndex  # noqa: E402
from repro.neighborlist.rcf import RCFWeighting  # noqa: E402


def test_multi_arange_concatenates_ranges():
    out = multi_arange(np.array([3, 10, 20]), np.array([2, 0, 3]))
    assert out.tolist() == [3, 4, 20, 21, 22]


def test_multi_arange_empty():
    assert multi_arange(np.array([], dtype=np.int64), np.array([], dtype=np.int64)).size == 0


@pytest.fixture()
def scheduled(paper_profiles):
    return block_scheduling(token_blocking_workflow(paper_profiles))


class TestArrayProfileIndex:
    def test_matches_reference(self, scheduled, paper_profiles):
        reference = ProfileIndex(scheduled)
        array = ArrayProfileIndex(scheduled)
        assert array.block_count() == reference.block_count()
        assert array.indexed_profiles() == reference.indexed_profiles()
        assert (
            array.block_cardinalities.tolist() == reference.block_cardinalities
        )
        for pid in range(len(paper_profiles)):
            assert array.blocks_of(pid).tolist() == list(reference.blocks_of(pid))

    def test_pair_operations_match(self, scheduled, paper_profiles):
        reference = ProfileIndex(scheduled)
        array = ArrayProfileIndex(scheduled)
        n = len(paper_profiles)
        for i in range(n):
            for j in range(i + 1, n):
                assert array.common_blocks(i, j) == reference.common_blocks(i, j)
                assert array.least_common_block(i, j) == reference.least_common_block(i, j)
                least = reference.least_common_block(i, j)
                if least is not None:
                    assert array.is_first_encounter(i, j, least)

    def test_backend_seam(self, scheduled):
        index = get_backend("numpy").profile_index(scheduled)
        assert isinstance(index, ArrayProfileIndex)
        with pytest.raises(NotImplementedError):
            get_backend("python").profile_index(scheduled)


class TestArrayPositionIndex:
    @pytest.fixture()
    def neighbor_list(self, paper_profiles):
        return NeighborList.schema_agnostic(paper_profiles)

    def test_matches_reference(self, neighbor_list):
        reference = PositionIndex(neighbor_list)
        array = ArrayPositionIndex(neighbor_list)
        assert len(array) == len(reference)
        assert array.indexed_profiles() == reference.indexed_profiles()
        for pid in reference.indexed_profiles():
            assert array.positions_of(pid).tolist() == list(reference.positions_of(pid))
            assert array.appearance_count(pid) == reference.appearance_count(pid)

    def test_cooccurrence_frequency_matches(self, neighbor_list):
        reference = PositionIndex(neighbor_list)
        array = ArrayPositionIndex(neighbor_list)
        for i in range(6):
            for j in range(6):
                for window in (1, 2, 3):
                    for cumulative in (False, True):
                        assert array.cooccurrence_frequency(
                            i, j, window, cumulative
                        ) == reference.cooccurrence_frequency(i, j, window, cumulative)

    def test_backend_seam(self, neighbor_list, paper_profiles):
        core = get_backend("numpy").psn_core(
            neighbor_list, paper_profiles, RCFWeighting()
        )
        assert isinstance(core.position_index, ArrayPositionIndex)
        reference = PositionIndex(neighbor_list)
        for pid in reference.indexed_profiles():
            assert core.position_index.positions_of(pid).tolist() == list(
                reference.positions_of(pid)
            )
        with pytest.raises(NotImplementedError):
            get_backend("python").psn_core(
                neighbor_list, paper_profiles, RCFWeighting()
            )
