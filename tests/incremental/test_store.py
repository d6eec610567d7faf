"""MutableProfileStore: ingestion, dense ids, sources, held probes."""

from __future__ import annotations

import pickle

import pytest

from repro.core.profiles import EntityProfile, ERType, ProfileStore
from repro.incremental.store import MutableProfileStore


def test_add_assigns_dense_ids_and_updates_counts():
    store = MutableProfileStore()
    first = store.add({"name": "carl"})
    second = store.add({"name": "karl"})
    assert (first.profile_id, second.profile_id) == (0, 1)
    assert len(store) == 2
    assert store[1].value("name") == "karl"
    assert store.source_size(0) == 2
    assert store.total_candidate_comparisons() == 1


def test_add_profiles_accepts_mixed_record_shapes():
    store = MutableProfileStore()
    added = store.add_profiles(
        [
            {"name": "carl"},
            [("name", "karl"), ("name", "charles")],  # multi-valued
            EntityProfile(0, {"name": "ellen"}),
        ]
    )
    assert [p.profile_id for p in added] == [0, 1, 2]
    assert store[1].values("name") == ("karl", "charles")
    assert store[2].value("name") == "ellen"


def test_duplicate_ids_are_reassigned_not_overwritten():
    """Ingesting a profile whose id already exists must create a new one."""
    store = MutableProfileStore([EntityProfile(0, {"name": "carl"})])
    clone = store.add(EntityProfile(0, {"name": "impostor"}))
    assert clone.profile_id == 1
    assert store[0].value("name") == "carl"
    assert store[1].value("name") == "impostor"
    # the dense-id invariant the flat indexes rely on still holds
    assert all(store[i].profile_id == i for i in range(len(store)))


def test_empty_batch_is_a_noop():
    store = MutableProfileStore()
    assert store.add_profiles([]) == []
    assert len(store) == 0


@pytest.mark.parametrize("source", [0, 1])
def test_holding_stores_a_profile_for_the_block_only(source):
    store = MutableProfileStore([], ERType.CLEAN_CLEAN)
    store.add_profiles([{"n": "a"}, {"n": "b"}], sources=[0, 0])
    counts = dict(store._source_counts)
    probe = EntityProfile(len(store), {"n": "c"}, source)
    with store.holding(probe):
        assert len(store) == 3 and store[2] is probe
        assert store.source_size(source) == counts.get(source, 0) + 1
        assert store.valid_comparison(0, 2) == (source == 1)
    assert len(store) == 2
    assert store._source_counts == counts
    assert list(store._source_counts) == list(counts)  # same key order
    with pytest.raises(RuntimeError, match="boom"):
        with store.holding(probe):
            raise RuntimeError("boom")
    assert len(store) == 2 and store._source_counts == counts


def test_holding_needs_the_next_dense_id():
    store = MutableProfileStore([EntityProfile(0, {"n": "a"})])
    with pytest.raises(ValueError, match="next id 1"):
        with store.holding(EntityProfile(0, {"n": "b"})):
            pass  # pragma: no cover - refused on entry
    assert len(store) == 1


def test_a_live_store_pickles_round_trip_after_an_ingest():
    """Without listeners the slotted store pickles by default (the
    numpy-parallel sweep ships it to spawned workers)."""
    from repro import ERPipeline

    session = ERPipeline().blocking("token", purge=None).incremental().fit([])
    session.add_profiles([{"n": "a b"}, {"n": "b c"}], sources=[0, 0])
    copy = pickle.loads(pickle.dumps(session.store))
    assert type(copy) is MutableProfileStore
    assert copy.profiles == session.store.profiles
    assert copy.er_type is session.store.er_type
    assert copy.source_size(0) == 2
    assert copy.add({"n": "d"}).profile_id == 2


def test_clean_clean_rejects_bad_sources_before_appending():
    store = MutableProfileStore([], ERType.CLEAN_CLEAN)
    with pytest.raises(ValueError, match="source 0 or 1"):
        store.add_profiles([{"name": "a"}, {"name": "b"}], sources=[0, 2])
    assert len(store) == 0  # the whole batch was rejected


def test_clean_clean_sources_feed_task_semantics():
    store = MutableProfileStore([], ERType.CLEAN_CLEAN)
    store.add_profiles([{"n": "a"}, {"n": "b"}], sources=[0, 1])
    store.add({"n": "c"}, source=1)
    assert store.valid_comparison(0, 1)
    assert not store.valid_comparison(1, 2)
    assert store.total_candidate_comparisons() == 2


def test_sources_must_align_with_items():
    store = MutableProfileStore()
    with pytest.raises(ValueError, match="align"):
        store.add_profiles([{"n": "a"}], sources=[0, 1])


def test_from_store_upgrades_and_is_idempotent():
    base = ProfileStore.from_attribute_maps([{"n": "a"}, {"n": "b"}])
    mutable = MutableProfileStore.from_store(base)
    assert isinstance(mutable, MutableProfileStore)
    assert len(mutable) == 2
    assert MutableProfileStore.from_store(mutable) is mutable


def test_entityprofile_source_respected_and_overridable():
    store = MutableProfileStore([], ERType.CLEAN_CLEAN)
    right = store.add(EntityProfile(7, {"n": "a"}, source=1))
    assert right.source == 1
    left = store.add(EntityProfile(9, {"n": "b"}, source=1), source=0)
    assert left.source == 0
