"""The pipeline surface of Meta-blocking pruning.

``.meta(weighting=, pruning=, **params)`` / ``resolve(..., pruning=)``
must validate against the pruning registry, round-trip through specs,
and restrict the session's emission to the retained edges of the pruned
Blocking Graph.
"""

from __future__ import annotations

import pytest

from repro.pipeline import ERPipeline, resolve
from repro.pipeline.config import MetaBlockingConfig, PipelineConfig


@pytest.fixture()
def records():
    return [
        {"Name": "Carl", "Surname": "White", "Profession": "Tailor", "City": "NY"},
        {"about": "Carl_White", "livesIn": "NY", "workAs": "Tailor"},
        {"about": "Karl_White", "loc": "NY", "job": "Tailor"},
        {"Name": "Ellen", "Surname": "White", "Profession": "Teacher", "City": "ML"},
        {"text": "Hellen White, ML teacher"},
        {"text": "Emma White, WI Tailor"},
    ]


class TestSpecValidation:
    def test_pruning_canonicalized_any_spelling(self):
        config = MetaBlockingConfig(pruning="weighted_edge_pruning")
        assert config.pruning == "WEP"
        assert ERPipeline().meta(pruning="rcnp").config.meta.pruning == "RCNP"

    def test_unknown_pruning_algorithm(self):
        with pytest.raises(ValueError, match="unknown pruning algorithm"):
            ERPipeline().meta("ARCS", pruning="nope")

    def test_params_without_pruning_rejected(self):
        with pytest.raises(ValueError, match="without a pruning algorithm"):
            ERPipeline().meta("ARCS", k=3)

    def test_k_on_weight_based_algorithm_rejected(self):
        with pytest.raises(ValueError, match="takes no cardinality budget"):
            ERPipeline().meta("ARCS", pruning="WNP", k=3)

    def test_bad_k_rejected(self):
        with pytest.raises(ValueError, match="k must be an int >= 1"):
            ERPipeline().meta("ARCS", pruning="CNP", k=0)

    def test_unknown_pruning_param_rejected(self):
        with pytest.raises(ValueError, match="unknown pruning params"):
            ERPipeline().meta("ARCS", pruning="CNP", budget=3)

    def test_round_trip(self):
        spec = ERPipeline().meta("CBS", pruning="cep", k=7).to_dict()
        assert spec["meta"] == {
            "weighting": "CBS",
            "pruning": "CEP",
            "params": {"k": 7},
        }
        rebuilt = ERPipeline.from_dict(spec)
        assert rebuilt.config.meta == MetaBlockingConfig(
            weighting="CBS", pruning="CEP", params={"k": 7}
        )
        assert rebuilt.to_dict() == spec

    def test_no_pruning_round_trips_as_none(self):
        spec = PipelineConfig().to_dict()
        assert spec["meta"]["pruning"] is None
        assert PipelineConfig.from_dict(spec) == PipelineConfig()


class TestPrunedEmission:
    def test_without_stage_pruned_comparisons_is_none(self, records):
        resolver = ERPipeline().method("ONLINE").fit(records)
        assert resolver.pruned_comparisons() is None

    def test_online_emits_exactly_the_retained_stream(self, records):
        resolver = (
            ERPipeline()
            .blocking("token", purge=None)
            .meta("ARCS", pruning="WNP")
            .method("ONLINE")
            .fit(records)
        )
        retained = resolver.pruned_comparisons()
        assert retained
        assert [c.pair for c in resolver.stream()] == [c.pair for c in retained]

    def test_pps_stream_is_the_retained_filter_of_the_unpruned_stream(
        self, records
    ):
        base = (
            ERPipeline().blocking("token", purge=None).meta("ARCS").method("PPS")
        )
        unpruned = [c.pair for c in base.fit(records).stream()]
        pruned_spec = base.clone().meta("ARCS", pruning="CNP", k=2)
        resolver = pruned_spec.fit(records)
        retained = {c.pair for c in resolver.pruned_comparisons()}
        assert [c.pair for c in resolver.stream()] == [
            pair for pair in unpruned if pair in retained
        ]

    def test_budget_applies_to_the_pruned_stream(self, records):
        resolver = (
            ERPipeline()
            .blocking("token", purge=None)
            .meta("ARCS", pruning="WEP")
            .method("ONLINE")
            .budget(comparisons=2)
            .fit(records)
        )
        assert len(list(resolver.stream())) == 2

    def test_reset_keeps_the_pruned_restriction(self, records):
        resolver = (
            ERPipeline()
            .blocking("token", purge=None)
            .meta("ARCS", pruning="WEP")
            .method("ONLINE")
            .fit(records)
        )
        first = [c.pair for c in resolver.stream()]
        second = [c.pair for c in resolver.reset().stream()]
        assert first == second

    def test_evaluate_honors_pruning(self, records, paper_ground_truth):
        resolver = (
            ERPipeline()
            .blocking("token", purge=None)
            .meta("ARCS", pruning="CNP", k=1)
            .method("ONLINE")
            .fit(records, ground_truth=paper_ground_truth)
        )
        curve = resolver.evaluate()
        retained = resolver.pruned_comparisons()
        assert curve.emitted <= len(retained)

    def test_resolve_pruning_kwarg(self, records):
        result = resolve(records, method="ONLINE", purge=None, pruning="WEP")
        retained = {c.pair for c in result.resolver.pruned_comparisons()}
        assert result.pairs and {c.pair for c in result.pairs} <= retained

    def test_incremental_rejects_pruning(self, records):
        pipeline = (
            ERPipeline()
            .blocking("token", purge=None)
            .meta("ARCS", pruning="WEP")
            .method("ONLINE")
        )
        with pytest.raises(ValueError, match="do not support Meta-blocking"):
            pipeline.incremental()

    def test_resolve_pruning_params(self, records):
        result = resolve(
            records,
            method="ONLINE",
            purge=None,
            pruning="CEP",
            pruning_params={"k": 3},
        )
        assert len(result.resolver.pruned_comparisons()) == 3
        assert len(result.pairs) == 3


class TestPrunedEmissionNumpyBackends:
    def test_numpy_pipeline_matches_python(self, records):
        pytest.importorskip("numpy")
        streams = {}
        for backend in ("python", "numpy"):
            resolver = (
                ERPipeline()
                .blocking("token", purge=None)
                .meta("ARCS", pruning="WNP")
                .method("ONLINE")
                .backend(backend)
                .fit(records)
            )
            streams[backend] = [c.pair for c in resolver.stream()]
        assert streams["python"] == streams["numpy"]

    def test_parallel_pipeline_matches_numpy(self, records):
        pytest.importorskip("numpy")
        base = (
            ERPipeline()
            .blocking("token", purge=None)
            .meta("ARCS", pruning="CNP", k=2)
            .method("ONLINE")
        )
        sequential = [
            c.pair for c in base.clone().backend("numpy").fit(records).stream()
        ]
        sharded = [
            c.pair
            for c in base.clone()
            .parallel(workers=0, shards=3)
            .fit(records)
            .stream()
        ]
        assert sharded == sequential
