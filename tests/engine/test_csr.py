"""ArrayProfileIndex against its reference twin."""

from __future__ import annotations

import pytest

np = pytest.importorskip("numpy")

from repro.blocking.scheduling import block_scheduling  # noqa: E402
from repro.blocking.workflow import token_blocking_workflow  # noqa: E402
from repro.engine.csr import ArrayProfileIndex, multi_arange  # noqa: E402
from repro.engine import get_backend  # noqa: E402
from repro.metablocking.profile_index import ProfileIndex  # noqa: E402

from .conftest import csr_rows  # noqa: E402


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
        assert csr_rows(array.pb_indptr, array.pb_indices) == [
            list(reference.blocks_of(pid)) for pid in range(len(paper_profiles))
        ]
        assert csr_rows(array.bp_indptr, array.bp_indices) == [
            list(block.ids) for block in scheduled.blocks
        ]

    def test_backend_seam(self, scheduled):
        index = get_backend("numpy").profile_index(scheduled)
        assert isinstance(index, ArrayProfileIndex)
        with pytest.raises(NotImplementedError):
            get_backend("python").profile_index(scheduled)
