"""Sharded-sweep parity: the fanned-out tokenization is bit-identical.

An ArraySubstrate handed a pooled fan-out must reproduce the one-range
sweep exactly - same intern order, same pair arrays, same blocks,
indexes and Neighbor List - for every shard count, through both the
inline (``workers=0``) and the process transport.
"""

from __future__ import annotations

import pytest

np = pytest.importorskip("numpy")

from repro.blocking.substrate import SubstrateSpec  # noqa: E402
from repro.engine.substrate import ArraySubstrate  # noqa: E402
from repro.parallel.backend import ParallelBackend  # noqa: E402
from repro.parallel.fanout import PoolFanout  # noqa: E402
from repro.parallel.pool import WorkerPool  # noqa: E402

SHARD_COUNTS = (1, 2, 3, 7)


def block_signature(collection):
    return [(block.key, list(block.ids)) for block in collection.blocks]


@pytest.fixture(params=["dirty", "clean_clean"])
def store(request, dirty_dataset, clean_clean_store):
    if request.param == "dirty":
        return dirty_dataset.store
    return clean_clean_store


@pytest.fixture(scope="module")
def inline_pool():
    return WorkerPool(0)


class TestShardedParity:
    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_sweep_matches_sequential(self, store, inline_pool, shards):
        spec = SubstrateSpec()
        base = ArraySubstrate(store, spec)
        base.blocks()
        sharded = ArraySubstrate(
            store, spec, fanout=PoolFanout(shards, inline_pool)
        )
        sharded.blocks()
        # The merged sweep reproduces the sequential one exactly: same
        # first-appearance intern order, same profile-major pair arrays.
        assert sharded._token_names == base._token_names
        assert np.array_equal(sharded._pair_tokens, base._pair_tokens)
        assert np.array_equal(sharded._pair_profiles, base._pair_profiles)
        assert sharded.sweeps == 1

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_blocks_match_sequential(self, store, inline_pool, shards):
        spec = SubstrateSpec()
        expected = block_signature(ArraySubstrate(store, spec).blocks())
        sharded = ArraySubstrate(
            store, spec, fanout=PoolFanout(shards, inline_pool)
        )
        assert block_signature(sharded.blocks()) == expected

    @pytest.mark.parametrize("shards", (2, 7))
    def test_indexes_and_neighbor_list_match(self, store, inline_pool, shards):
        spec = SubstrateSpec()
        base = ArraySubstrate(store, spec)
        sharded = ArraySubstrate(
            store, spec, fanout=PoolFanout(shards, inline_pool)
        )
        for order in ("schedule", "alpha"):
            expected = base.profile_index(order)
            built = sharded.profile_index(order)
            assert np.array_equal(built.bp_indptr, expected.bp_indptr)
            assert np.array_equal(built.bp_indices, expected.bp_indices)
            assert np.array_equal(
                built.block_cardinalities, expected.block_cardinalities
            )
        for tie_order, seed in (("insertion", 0), ("random", 5)):
            built = sharded.neighbor_list(tie_order, seed)
            expected = base.neighbor_list(tie_order, seed)
            assert built.entries == expected.entries
            assert built.keys == expected.keys

    def test_rejects_bad_shard_count(self, store, inline_pool):
        with pytest.raises(ValueError, match="shards must be >= 1"):
            ParallelBackend(workers=0, shards=0)
        with pytest.raises(ValueError, match="shard count must be >= 1"):
            PoolFanout(0, inline_pool).ranges(len(store))


class TestProcessTransport:
    def test_forked_sweep_matches_inline(self, dirty_dataset):
        store = dirty_dataset.store
        spec = SubstrateSpec()
        expected = block_signature(ArraySubstrate(store, spec).blocks())
        pool = WorkerPool(2)
        try:
            sharded = ArraySubstrate(store, spec, fanout=PoolFanout(2, pool))
            assert block_signature(sharded.blocks()) == expected
        finally:
            pool.close()


class TestBackendSeam:
    def test_parallel_backend_builds_sharded_substrate(self, store):
        backend = ParallelBackend(workers=0, shards=3)
        try:
            substrate = backend.blocking_substrate(store, SubstrateSpec())
            assert isinstance(substrate, ArraySubstrate)
            assert substrate.fanout.shards == 3
            expected = block_signature(
                ArraySubstrate(store, SubstrateSpec()).blocks()
            )
            assert block_signature(substrate.blocks()) == expected
        finally:
            backend.close()
