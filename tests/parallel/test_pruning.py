"""Sharded Meta-blocking pruning: transport and degenerate plans.

The full algorithm x scheme x ER-type x shard-count parity matrix lives
in ``tests/metablocking/test_pruning.py`` (inline shards); this module
proves the process transport (real workers) and the
degenerate cuts :func:`~repro.parallel.fanout.balanced_ranges` can
produce.
"""

from __future__ import annotations

import pytest

np = pytest.importorskip("numpy")

from repro.blocking.workflow import token_blocking_workflow  # noqa: E402
from repro.core.profiles import ProfileStore  # noqa: E402
from repro.metablocking.pruning import prune  # noqa: E402
from repro.parallel.backend import ParallelBackend  # noqa: E402


@pytest.fixture(scope="module")
def dirty_blocks(dirty_dataset):
    return token_blocking_workflow(dirty_dataset.store)


def test_real_worker_pool_matches_sequential(dirty_blocks):
    baseline = prune(dirty_blocks, "CNP", "ARCS", backend="numpy")
    backend = ParallelBackend(workers=2, shards=4)
    try:
        sharded = prune(dirty_blocks, "CNP", "ARCS", backend=backend)
    finally:
        backend.close()
    assert sharded == baseline


def test_more_shards_than_profiles():
    store = ProfileStore.from_attribute_maps(
        [{"name": "Carl White NY"}, {"name": "Karl White NY"}]
    )
    blocks = token_blocking_workflow(store, purge_ratio=None)
    baseline = prune(blocks, "WNP", "ARCS", backend="numpy")
    sharded = prune(
        blocks, "WNP", "ARCS", backend=ParallelBackend(workers=0, shards=16)
    )
    assert sharded == baseline and baseline


def test_single_profile_prunes_to_nothing():
    store = ProfileStore.from_attribute_maps([{"name": "Carl White"}])
    blocks = token_blocking_workflow(store, purge_ratio=None)
    backend = ParallelBackend(workers=0, shards=4)
    assert prune(blocks, "WNP", "ARCS", backend=backend) == []
    assert prune(blocks, "CNP", "ARCS", backend=backend) == []
