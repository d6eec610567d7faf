"""IncrementalResolver: the live session API and its bookkeeping."""

from __future__ import annotations

import pytest

from repro import ERPipeline
from repro.core.ground_truth import GroundTruth
from repro.core.profiles import ERType
from repro.incremental.resolver import IncrementalResolver
from repro.incremental.store import MutableProfileStore
from repro.pipeline.config import IncrementalConfig, PipelineConfig
from repro.registry import progressive_methods

RECORDS = [
    {"name": "carl white", "profession": "tailor", "city": "ny"},
    {"about": "carl_white", "livesin": "ny", "workas": "tailor"},
    {"about": "karl_white", "loc": "ny", "job": "tailor"},
    {"name": "ellen white", "profession": "teacher", "city": "ml"},
    {"text": "hellen white, ml teacher"},
    {"text": "emma white, wi tailor"},
]


def incremental_pipeline() -> ERPipeline:
    return (
        ERPipeline()
        .blocking("token", purge=None, filter_ratio=None)
        .incremental()
    )


def test_fit_returns_incremental_resolver_and_upgrades_store():
    resolver = incremental_pipeline().fit(RECORDS[:2])
    assert isinstance(resolver, IncrementalResolver)
    assert isinstance(resolver.store, MutableProfileStore)
    assert len(resolver.store) == 2


def test_fit_accepts_a_streamed_store():
    """Regression: a ChunkedProfileStore (what the synthetic generator
    hands out) has no ``.profiles`` list; the mutable copy must be built
    by iteration.  Same records, same stream."""
    from repro.datasets.synthetic import generate_synthetic
    from repro.service.snapshot import stream_digest

    dataset = generate_synthetic(n_profiles=200, seed=0)
    streamed = ERPipeline().incremental().fit(dataset)
    assert isinstance(streamed.store, MutableProfileStore)
    assert len(streamed.store) == 200
    listed = ERPipeline().incremental().fit(
        [dict(profile.pairs) for profile in dataset.store]
    )
    assert stream_digest(streamed.stream()) == stream_digest(listed.stream())
    served = ERPipeline().serve().fit(dataset.store)
    assert len(served.store) == 200


def test_online_method_is_registered_under_aliases():
    for spelling in ("ONLINE", "online", "incremental", "ranked"):
        assert progressive_methods.canonical(spelling) == "ONLINE"


def test_add_profiles_emits_only_new_comparisons():
    resolver = incremental_pipeline().fit(RECORDS[:3])
    emitted = resolver.add_profiles(RECORDS[3:5])
    new_ids = {3, 4}
    assert emitted
    assert all(set(c.pair) & new_ids for c in emitted)
    # pairs among the fitted profiles are not re-emitted
    assert all(not set(c.pair) <= {0, 1, 2} for c in emitted)


def test_empty_batch_emits_nothing_and_changes_nothing():
    resolver = incremental_pipeline().fit(RECORDS[:3])
    generation = resolver.index.generation
    assert resolver.add_profiles([]) == []
    assert resolver.index.generation == generation
    assert resolver.progress().emitted == 0


def test_resolve_one_ingests_and_emits_ranked():
    resolver = incremental_pipeline().fit(RECORDS[:3])
    emitted = resolver.resolve_one(RECORDS[3])
    assert len(resolver.store) == 4
    assert all(3 in c.pair for c in emitted)
    ranks = [(-c.weight, c.i, c.j) for c in emitted]
    assert ranks == sorted(ranks)


def test_probe_scores_without_mutating_and_matches_ingestion():
    resolver = incremental_pipeline().fit(RECORDS[:3])
    blocks_before = {b.key: tuple(b.ids) for b in resolver.index.snapshot_blocks()}
    probed = resolver.resolve_one(RECORDS[3], ingest=False)
    assert len(resolver.store) == 3
    blocks_after = {b.key: tuple(b.ids) for b in resolver.index.snapshot_blocks()}
    assert blocks_after == blocks_before  # exact rollback
    assert resolver.progress().emitted == 0  # probes are not emissions
    # the probe's scores are exactly what ingestion would emit
    ingested = resolver.resolve_one(RECORDS[3])
    assert [(c.i, c.j, c.weight) for c in probed] == [
        (c.i, c.j, c.weight) for c in ingested
    ]


def test_probe_does_not_reset_a_partially_consumed_stream():
    resolver = incremental_pipeline().fit(RECORDS[:4])
    consumed = resolver.next_batch(2)
    resolver.resolve_one(RECORDS[4], ingest=False)
    remainder = list(resolver.stream())
    emitted_pairs = [c.pair for c in consumed + remainder]
    # the probe must not rewind the emitter: no pair is emitted twice
    assert len(emitted_pairs) == len(set(emitted_pairs))
    assert resolver.progress().emitted == len(emitted_pairs)


def test_ejs_probe_works_on_clean_clean():
    """Regression: EJS degrees during a probe must not index the store
    with the (unstored) probe id."""
    store = MutableProfileStore([], ERType.CLEAN_CLEAN)
    resolver = (
        ERPipeline()
        .blocking("token", purge=None, filter_ratio=None)
        .meta("EJS")
        .incremental()
        .fit(store)
    )
    resolver.add_profiles(
        [{"n": "alpha beta"}, {"n": "alpha gamma"}, {"n": "beta gamma"}],
        sources=[0, 0, 1],
    )
    probed = resolver.resolve_one({"n": "alpha beta"}, source=1, ingest=False)
    assert {c.pair for c in probed} == {(0, 3), (1, 3)}
    assert len(resolver.store) == 3
    # probe scores equal what ingestion then emits (exact as-if stats)
    ingested = resolver.resolve_one({"n": "alpha beta"}, source=1)
    assert [(c.i, c.j, c.weight) for c in probed] == [
        (c.i, c.j, c.weight) for c in ingested
    ]


def test_probe_validates_clean_clean_sources_like_ingestion():
    store = MutableProfileStore([], ERType.CLEAN_CLEAN)
    resolver = incremental_pipeline().fit(store)
    resolver.add_profiles([{"n": "alpha"}, {"n": "alpha"}], sources=[0, 1])
    with pytest.raises(ValueError, match="source 0 or 1"):
        resolver.resolve_one({"n": "alpha"}, source=5, ingest=False)


def test_non_token_blocking_scheme_is_rejected_with_incremental():
    pipeline = ERPipeline().blocking("suffix", min_length=3)
    with pytest.raises(ValueError, match="no incremental counterpart"):
        pipeline.incremental()


def test_non_online_method_is_rejected_with_incremental():
    pipeline = ERPipeline().method("PBS")
    with pytest.raises(ValueError, match="batch sessions"):
        pipeline.incremental()
    # an explicitly parameterized method is configuration, not a default
    with pytest.raises(ValueError, match="batch sessions"):
        ERPipeline().method("PPS", k_max=5).incremental().fit(RECORDS[:2])
    # the ONLINE model itself (and the unconfigured default) are fine
    assert ERPipeline().method("online").incremental().fit([]) is not None


def test_ingestion_clears_stream_exhaustion():
    resolver = incremental_pipeline().fit(RECORDS[:3])
    list(resolver.stream())
    assert resolver.progress().exhausted
    resolver.add_profiles(RECORDS[3:])
    assert not resolver.progress().exhausted  # new comparisons pending
    assert resolver.next_batch(1)  # and the rebuilt stream serves them


def test_blocking_stage_purge_is_inherited_at_query_time():
    stopword_corpus = [{"n": f"unique{i} common"} for i in range(10)]
    purged = (
        ERPipeline()
        .blocking("token", purge=0.5, filter_ratio=None)
        .incremental()
        .fit([])
    )
    assert purged.add_profiles(stopword_corpus) == []  # stop word purged
    unpurged = incremental_pipeline().fit([])  # blocking purge=None
    assert unpurged.add_profiles(stopword_corpus)


def test_reset_does_not_rebuild_the_method_twice():
    resolver = incremental_pipeline().fit(RECORDS[:4])
    resolver.add_profiles(RECORDS[4:])
    full = [c.pair for c in resolver.stream()]
    resolver.reset()
    method = resolver.method  # built by reset over the current snapshot
    assert [c.pair for c in resolver.stream()] == full
    assert resolver.method is method  # not thrown away and rebuilt


def test_comparison_budget_caps_ingestion_emission():
    resolver = incremental_pipeline().budget(comparisons=3).fit(RECORDS[:2])
    emitted = resolver.add_profiles(RECORDS[2:])
    assert len(emitted) == 3
    assert resolver.progress().emitted == 3
    assert resolver.add_profiles([{"text": "another white tailor"}]) == []


def test_ground_truth_recall_is_tracked_across_ingestion():
    truth = GroundTruth.from_clusters([(0, 1, 2), (3, 4)])
    resolver = incremental_pipeline().fit(RECORDS[:1], ground_truth=truth)
    for record in RECORDS[1:]:
        resolver.add_profiles([record])
    progress = resolver.progress()
    assert progress.recall == 1.0
    assert progress.true_matches_found == 4
    curve = resolver.partial_curve()
    assert curve.hit_positions  # ingestion emissions feed the curve


def test_one_tier_cascade_decides_ingested_comparisons():
    resolver = (
        incremental_pipeline()
        .match("jaccard", params={"jaccard": {"threshold": 0.5}})
        .fit(RECORDS[:1])
    )
    for record in RECORDS[1:3]:
        resolver.resolve_one(record)
    assert resolver.matches  # near-identical records confirmed


#: A first batch of two records, and a reworded copy of record 0 that
#: arrives in a later batch.
FIRST_BATCH = [
    {"name": "carl white", "profession": "tailor", "city": "ny"},
    {"name": "ellen green", "profession": "teacher", "city": "la"},
]
REWORDED = {"about": "Tailor Carl White", "livesIn": "NY"}


def test_a_later_batch_is_matched_against_an_earlier_one():
    """Cross-batch identity: an ingest is matched against a record of
    the first batch, and clusters() closes over the pair.
    Block Purging is off because at its default it leaves a
    three-record corpus no block (Block Filtering is batch-only)."""
    resolver = (
        ERPipeline()
        .blocking("token", purge=None, filter_ratio=None)
        .method("PPS")
        .match()
        .incremental()
        .fit(FIRST_BATCH)
    )
    [record] = resolver.resolve_one(REWORDED)
    assert record.comparison.pair == (0, 2)
    assert (record.tier, record.decision) == ("exact", True)
    assert resolver.clusters() == [[0, 2]]


def test_stream_reranks_current_corpus_after_ingestion():
    resolver = incremental_pipeline().fit(RECORDS[:4])
    first = list(resolver.stream())
    resolver.add_profiles(RECORDS[4:])
    second = list(resolver.stream())
    assert len(second) > len(first)
    involving_new = [c for c in second if set(c.pair) & {4, 5}]
    assert involving_new
    ranks = [(-c.weight, c.i, c.j) for c in second]
    assert ranks == sorted(ranks)


def test_evaluate_runs_the_batch_protocol_on_the_live_corpus():
    truth = GroundTruth.from_clusters([(0, 1, 2), (3, 4)])
    resolver = incremental_pipeline().fit(RECORDS[:4], ground_truth=truth)
    resolver.add_profiles(RECORDS[4:])
    curve = resolver.evaluate()
    assert curve.total_matches == 4
    assert curve.final_recall() == 1.0


def test_a_live_curve_is_labelled_with_the_method_it_streams():
    from repro.datasets import load_dataset

    resolver = ERPipeline().incremental().fit(load_dataset("cora", scale=0.1))
    assert resolver.partial_curve().method == "PPS"  # the spec's, unbuilt
    resolver.next_batch(100)
    assert resolver.method.name == "ONLINE"
    assert resolver.partial_curve().method == "ONLINE"
    assert resolver.evaluate(max_ec_star=1).method == "ONLINE"


def test_duplicate_id_ingestion_is_safe():
    resolver = incremental_pipeline().fit(RECORDS[:2])
    clone = resolver.store[0]
    emitted = resolver.add_profiles([clone])  # same content, same id
    assert len(resolver.store) == 3
    assert resolver.store[2].profile_id == 2
    assert any(c.pair == (0, 2) for c in emitted)


def test_spec_round_trip_preserves_incremental_stage():
    spec = incremental_pipeline().to_dict()
    assert spec["incremental"] == {}
    rebuilt = ERPipeline.from_dict(spec)
    assert rebuilt.config.incremental == IncrementalConfig()
    assert isinstance(rebuilt.fit([]), IncrementalResolver)


@pytest.mark.parametrize("blocking", [None, 0.2])
def test_the_retired_incremental_purge_ratio_is_read_as_the_blocking_one(
    blocking,
):
    """Specs up to 2.1 could set the live session's purge ratio on the
    incremental stage, over the blocking stage's: a set one becomes the
    blocking ratio, a null one leaves the blocking ratio in force."""
    spec = incremental_pipeline().to_dict()
    spec["blocking"]["purge_ratio"] = blocking
    spec["incremental"] = {"purge_ratio": 0.3}
    config = PipelineConfig.from_dict(spec)
    assert config.blocking.purge_ratio == 0.3
    assert config.incremental == IncrementalConfig()
    spec["incremental"] = {"purge_ratio": None}
    assert PipelineConfig.from_dict(spec).blocking.purge_ratio == blocking
    spec["incremental"] = {"purge_ratio": 0.3}
    del spec["blocking"]
    assert PipelineConfig.from_dict(spec).blocking.purge_ratio == 0.3


def test_incremental_stage_can_be_disabled_again():
    pipeline = incremental_pipeline().incremental(enabled=False)
    assert pipeline.to_dict()["incremental"] is None
    assert not isinstance(pipeline.fit(RECORDS[:2]), IncrementalResolver)


def test_bad_incremental_config_fails_fast():
    with pytest.raises(ValueError, match="purge_ratio"):
        PipelineConfig.from_dict(
            {"incremental": {"purge_ratio": 1.5}}
        )
    with pytest.raises(ValueError, match="unknown incremental"):
        IncrementalConfig.from_dict({"bogus": 1})
    # the knob retired in 2.0 is an unknown key like any other
    with pytest.raises(ValueError, match="unknown incremental"):
        IncrementalConfig.from_dict({"rebuild_threshold": 0.25})


def test_clean_clean_ingestion_emits_cross_source_only():
    pipeline = incremental_pipeline()
    store = MutableProfileStore([], ERType.CLEAN_CLEAN)
    resolver = pipeline.fit(store)
    resolver.add_profiles(
        [{"n": "alpha beta"}, {"n": "alpha gamma"}], sources=[0, 0]
    )
    assert resolver.progress().emitted == 0  # same source: nothing valid
    emitted = resolver.add_profiles([{"n": "alpha beta"}], sources=[1])
    assert {c.pair for c in emitted} == {(0, 2), (1, 2)}
