"""IncrementalTokenIndex: delta maintenance vs the batch workflow."""

from __future__ import annotations

import pytest

from repro.blocking.workflow import token_blocking_workflow
from repro.core.profiles import ERType
from repro.incremental.index import IncrementalTokenIndex
from repro.incremental.store import MutableProfileStore


def make_store(records, er_type=ERType.DIRTY, sources=None):
    store = MutableProfileStore([], er_type)
    store.add_profiles(records, sources=sources)
    return store


def snapshot_as_dict(index, purge_limit=None):
    return {
        block.key: tuple(block.ids)
        for block in index.snapshot_blocks(purge_limit)
    }


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
    index.add_profile(store[1])
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
    index.add_profile(store[2])
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
        index.add_profile(store.add(record))
    assert snapshot_as_dict(index) == batch_blocks_as_dict(store)


def test_purge_limit_drops_stopword_tokens_at_query_time():
    records = [{"n": f"unique{i} common"} for i in range(6)]
    store = make_store(records)
    index = IncrementalTokenIndex(store)
    assert "common" in snapshot_as_dict(index)
    # a bound below the stop word's posting size excludes it
    purged = snapshot_as_dict(index, purge_limit=5)
    assert "common" not in purged
    assert index.block_count(5) == index.block_count() - 1
    assert index.blocks_of_count(0, 5) == index.blocks_of_count(0) - 1


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
    index.add_profile(new)
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


def test_probe_enter_exit_is_an_exact_rollback():
    store = make_store([{"n": "alpha beta"}, {"n": "alpha gamma"}])
    index = IncrementalTokenIndex(store)
    before = (
        {t: list(ids) for t, ids in index.postings.items()},
        index.block_count(),
        {i: index.blocks_of_count(i) for i in range(len(store))},
    )
    from repro.core.profiles import EntityProfile

    probe = EntityProfile(len(store), {"n": "alpha beta delta"})
    with store.holding(probe):
        journal = index.probe_enter(probe)
        assert index.is_block("beta")  # as-if-ingested statistics visible
        pairs = {(i, j) for i, j, _ in index.candidate_pairs([probe.profile_id])}
        assert pairs == {(0, 2), (1, 2)}
        index.probe_exit(probe, journal)
    after = (
        {t: list(ids) for t, ids in index.postings.items()},
        index.block_count(),
        {i: index.blocks_of_count(i) for i in range(len(store))},
    )
    assert after == before
    assert not index.is_block("beta")
    with pytest.raises(ValueError, match="already indexed"):
        index.probe_enter(EntityProfile(0, {"n": "x"}))


def test_generation_bumps_once_per_batch():
    store = make_store([{"n": "a b"}])
    index = IncrementalTokenIndex(store)
    assert index.generation == 0
    batch = store.add_profiles([{"n": "a"}, {"n": "b"}])
    index.add_profiles(batch)
    assert index.generation == 1
    index.add_profiles([])
    assert index.generation == 1
