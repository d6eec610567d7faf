"""IncrementalTokenIndex: delta maintenance vs the batch workflow."""

from __future__ import annotations

import pytest

from repro.blocking.workflow import token_blocking_workflow
from repro.core.profiles import EntityProfile, ERType
from repro.incremental.index import IncrementalTokenIndex
from repro.incremental.store import MutableProfileStore


def make_store(records, er_type=ERType.DIRTY, sources=None):
    store = MutableProfileStore([], er_type)
    store.add_profiles(records, sources=sources)
    return store


def snapshot_as_dict(index):
    return {block.key: tuple(block.ids) for block in index.snapshot_blocks()}


def batch_blocks_as_dict(store):
    collection = token_blocking_workflow(
        store, purge_ratio=None, filter_ratio=None
    )
    return {block.key: tuple(block.ids) for block in collection.blocks}


def test_qualification_needs_two_profiles():
    store = make_store([{"n": "alpha beta"}])
    index = IncrementalTokenIndex(store)
    assert index.block_count() == 0
    store.add({"n": "alpha gamma"})
    index.add_profiles([store[1]])
    assert index.is_block("alpha")
    assert not index.is_block("beta")
    assert index.block_count() == 1
    assert index.blocks_of_count(0) == 1
    assert index.blocks_of_count(1) == 1


def test_clean_clean_qualification_needs_both_sources():
    store = make_store(
        [{"n": "alpha"}, {"n": "alpha"}], ERType.CLEAN_CLEAN, sources=[0, 0]
    )
    index = IncrementalTokenIndex(store)
    assert not index.is_block("alpha")  # two profiles, one source
    store.add({"n": "alpha"}, source=1)
    index.add_profiles([store[2]])
    assert index.is_block("alpha")
    assert index.cardinality("alpha") == 2  # 2 left x 1 right


def test_snapshot_matches_batch_token_blocking_dirty():
    records = [
        {"name": "carl white", "city": "ny"},
        {"name": "karl white", "city": "ny"},
        {"name": "ellen white", "city": "ml"},
        {"text": "emma white wi tailor"},
    ]
    store = make_store(records)
    index = IncrementalTokenIndex(store)
    assert snapshot_as_dict(index) == batch_blocks_as_dict(store)


def test_snapshot_matches_batch_after_incremental_growth():
    records = [{"n": f"token{i % 3} shared"} for i in range(9)]
    store = make_store(records[:3])
    index = IncrementalTokenIndex(store)
    for record in records[3:]:
        index.add_profiles([store.add(record)])
    assert snapshot_as_dict(index) == batch_blocks_as_dict(store)


def test_purge_ratio_drops_stopword_tokens_at_query_time():
    records = [{"n": f"unique{i} common"} for i in range(6)]
    store = make_store(records)
    index = IncrementalTokenIndex(store)
    # a bound below the stop word's posting size (5 < 6) excludes it
    purged = IncrementalTokenIndex(store, purge_ratio=5 / 6)
    assert purged.purge_limit() == pytest.approx(5)
    assert "common" in snapshot_as_dict(index)
    assert "common" not in snapshot_as_dict(purged)
    assert purged.block_count() == index.block_count() - 1
    assert purged.blocks_of_count(0) == index.blocks_of_count(0) - 1
    assert not list(purged.candidate_pairs([5]))
    assert list(index.candidate_pairs([5]))


def test_candidate_pairs_cover_exactly_new_pairs():
    store = make_store([{"n": "alpha x"}, {"n": "alpha y"}])
    index = IncrementalTokenIndex(store)
    batch = store.add_profiles([{"n": "alpha x"}, {"n": "y beta"}])
    index.add_profiles(batch)
    pairs = {(i, j) for i, j, _ in index.candidate_pairs([2, 3])}
    # old-old pair (0,1) excluded; every new-involving co-occurrence in
    # ((2,3) shares no token, so it is rightly absent)
    assert pairs == {(0, 2), (1, 2), (1, 3)}


def test_candidate_pair_tokens_are_alphabetical():
    store = make_store([{"n": "zeta alpha mid"}])
    index = IncrementalTokenIndex(store)
    new = store.add({"n": "zeta alpha mid extra"})
    index.add_profiles([new])
    [(i, j, tokens)] = list(index.candidate_pairs([1]))
    assert (i, j) == (0, 1)
    assert tokens == sorted(tokens) == ["alpha", "mid", "zeta"]


def test_candidate_pairs_respect_clean_clean_validity():
    store = make_store(
        [{"n": "alpha"}, {"n": "alpha"}], ERType.CLEAN_CLEAN, sources=[0, 1]
    )
    index = IncrementalTokenIndex(store)
    batch = store.add_profiles([{"n": "alpha"}], sources=[0])
    index.add_profiles(batch)
    pairs = {(i, j) for i, j, _ in index.candidate_pairs([2])}
    assert pairs == {(1, 2)}  # same-source (0, 2) is invalid


def test_holding_is_an_exact_rollback():
    store = make_store([{"n": "alpha beta"}, {"n": "alpha gamma"}])
    index = IncrementalTokenIndex(store)

    def state():
        return (
            len(store),
            {t: list(ids) for t, ids in index.postings.items()},
            index.block_count(),
            {i: index.blocks_of_count(i) for i in range(len(store) + 1)},
        )

    before = state()
    probe = EntityProfile(len(store), {"n": "alpha beta delta"})
    with index.holding(probe):
        assert len(store) == 3  # the probe is stored...
        assert index.is_block("beta")  # ...with as-if-ingested statistics
        assert index.block_count() == 2
        pairs = {(i, j) for i, j, _ in index.candidate_pairs([probe.profile_id])}
        assert pairs == {(0, 2), (1, 2)}
    assert state() == before
    assert not index.is_block("beta")
    with pytest.raises(RuntimeError, match="tier failed"):
        with index.holding(probe):
            raise RuntimeError("tier failed")
    assert state() == before
    with pytest.raises(ValueError, match="next id"):
        with index.holding(EntityProfile(0, {"n": "x"})):
            pass  # pragma: no cover - refused on entry
    assert state() == before


def test_generation_bumps_once_per_batch():
    store = make_store([{"n": "a b"}])
    index = IncrementalTokenIndex(store)
    assert index.generation == 0
    batch = store.add_profiles([{"n": "a"}, {"n": "b"}])
    index.add_profiles(batch)
    assert index.generation == 1
    index.add_profiles([])
    assert index.generation == 1
