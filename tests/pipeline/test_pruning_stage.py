"""The pipeline surface of Meta-blocking pruning.

``.meta(weighting=, pruning=)`` / ``resolve(..., pruning=)`` must
validate against the pruning registry, round-trip through specs, refuse
the retired budget knob and edge-pruning algorithms, and restrict the
session's emission to the retained edges of the pruned Blocking Graph.
"""

from __future__ import annotations

import os

import pytest

from repro.datasets.registry import load_dataset
from repro.errors import ConfigError
from repro.incremental.resolver import IncrementalResolver
from repro.metablocking.pruning import weighted_node_pruning
from repro.pipeline import ERPipeline, resolve
from repro.pipeline.config import MetaBlockingConfig, PipelineConfig
from repro.registry import pruning_algorithms
from repro.service.snapshot import read_manifest

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "service", "fixtures")


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
        config = MetaBlockingConfig(pruning="weighted_node_pruning")
        assert config.pruning == "WNP"
        assert ERPipeline().meta(pruning="rcnp").config.meta.pruning == "RCNP"

    def test_unknown_pruning_algorithm(self):
        with pytest.raises(ValueError, match="unknown pruning algorithm"):
            ERPipeline().meta("ARCS", pruning="nope")

    def test_round_trip(self):
        spec = ERPipeline().meta("CBS", pruning="cnp").to_dict()
        assert spec["meta"] == {"weighting": "CBS", "pruning": "CNP"}
        rebuilt = ERPipeline.from_dict(spec)
        assert rebuilt.config.meta == MetaBlockingConfig(
            weighting="CBS", pruning="CNP"
        )
        assert rebuilt.to_dict() == spec

    def test_no_pruning_round_trips_as_none(self):
        spec = PipelineConfig().to_dict()
        assert spec["meta"]["pruning"] is None
        assert PipelineConfig.from_dict(spec) == PipelineConfig()


class TestRetiredKnobs:
    """The cardinality budget is no knob and edge pruning is gone; specs
    written before still load when they never set either."""

    @pytest.mark.parametrize(
        "fixture", ["session-1.5", "session-2.1-purge", "session-3-matches"]
    )
    def test_committed_manifests_drop_their_empty_params(self, fixture):
        """Every saved session wrote ``"params": {}``; it still restores
        (tests/service/test_snapshot.py pins the restored streams)."""
        path = os.path.join(FIXTURES, fixture)
        assert read_manifest(path)["config"]["meta"]["params"] == {}
        restored = IncrementalResolver.load(path)
        assert restored.config.to_dict()["meta"] == {
            "weighting": "ARCS",
            "pruning": None,
        }

    def test_params_without_pruning_rejected(self):
        with pytest.raises(ConfigError, match="thirteenth round"):
            PipelineConfig.from_dict({"meta": {"weighting": "ARCS", "params": {"k": 3}}})

    def test_an_empty_params_key_is_dropped(self):
        legacy = {"meta": {"weighting": "JS", "pruning": "CNP", "params": {}}}
        modern = {"meta": {"weighting": "JS", "pruning": "CNP"}}
        assert PipelineConfig.from_dict(legacy) == PipelineConfig.from_dict(modern)

    @pytest.mark.parametrize("params", [{"k": 3}, {"k": None}, {"budget": 3}])
    def test_a_set_params_key_is_refused(self, params):
        with pytest.raises(ConfigError, match="thirteenth round"):
            PipelineConfig.from_dict({"meta": {"pruning": "CNP", "params": params}})

    @pytest.mark.parametrize(
        "name", ["WEP", "cep", "weighted-edge-pruning", "cardinality_edge_pruning"]
    )
    def test_edge_pruning_is_refused(self, name):
        with pytest.raises(ConfigError, match="thirteenth round"):
            PipelineConfig.from_dict({"meta": {"pruning": name}})
        with pytest.raises(ConfigError, match="thirteenth round"):
            ERPipeline().meta("ARCS", pruning=name)

    def test_no_budget_argument_is_taken(self, records):
        with pytest.raises(TypeError, match="'k'"):
            ERPipeline().meta("ARCS", pruning="CNP", k=3)
        with pytest.raises(TypeError, match="pruning_params"):
            resolve(records, pruning="CNP", pruning_params={"k": 3})


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
        pruned_spec = base.clone().meta("ARCS", pruning="CNP")
        resolver = pruned_spec.fit(records)
        retained = {c.pair for c in resolver.pruned_comparisons()}
        assert [c.pair for c in resolver.stream()] == [
            pair for pair in unpruned if pair in retained
        ]

    def test_budget_applies_to_the_pruned_stream(self, records):
        resolver = (
            ERPipeline()
            .blocking("token", purge=None)
            .meta("ARCS", pruning="RWNP")
            .method("ONLINE")
            .budget(comparisons=2)
            .fit(records)
        )
        assert len(list(resolver.stream())) == 2

    def test_reset_keeps_the_pruned_restriction(self, records):
        resolver = (
            ERPipeline()
            .blocking("token", purge=None)
            .meta("ARCS", pruning="RWNP")
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
            .meta("ARCS", pruning="CNP")
            .method("ONLINE")
            .fit(records, ground_truth=paper_ground_truth)
        )
        curve = resolver.evaluate()
        retained = resolver.pruned_comparisons()
        assert curve.emitted <= len(retained)

    def test_resolve_pruning_kwarg(self, records):
        result = resolve(records, method="ONLINE", purge=None, pruning="RWNP")
        retained = {c.pair for c in result.resolver.pruned_comparisons()}
        assert result.pairs and {c.pair for c in result.pairs} <= retained

    def test_incremental_rejects_pruning(self, records):
        pipeline = (
            ERPipeline()
            .blocking("token", purge=None)
            .meta("ARCS", pruning="RWNP")
            .method("ONLINE")
        )
        with pytest.raises(ValueError, match="do not support Meta-blocking"):
            pipeline.incremental()


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
            .meta("ARCS", pruning="CNP")
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


class TestCustomAlgorithm:
    """An algorithm registered by name runs in ``.meta(pruning=...)`` and
    ``resolve()`` on the python backend (docs/metablocking.md)."""

    @pytest.fixture()
    def my_prune(self):
        """Keeps the 50 best WNP edges; unregistered afterwards."""

        def top_50(blocks, scheme_name):
            return weighted_node_pruning(blocks, scheme_name)[:50]

        pruning_algorithms.register("MY-PRUNE", top_50)
        try:
            yield top_50
        finally:
            pruning_algorithms.unregister("MY-PRUNE")

    @pytest.fixture(scope="class")
    def restaurant(self):
        return load_dataset("restaurant")

    @pytest.mark.parametrize("method, repeats", [("PBS", 1), ("PPS", 2)])
    def test_streams_only_the_retained_edges(
        self, my_prune, restaurant, method, repeats
    ):
        resolver = (
            ERPipeline()
            .meta("ARCS", pruning="my-prune")
            .method(method)
            .backend("python")
            .fit(restaurant)
        )
        retained = [c.pair for c in my_prune(resolver.blocks, "ARCS")]
        assert len(retained) == 50
        assert [c.pair for c in resolver.pruned_comparisons()] == retained
        pairs = [c.pair for c in resolver.stream()]
        # PBS emits every kept pair once; PPS twice (its initial
        # Comparison List, then its schedule).
        assert sorted(pairs) == sorted(retained * repeats)

    def test_resolve_takes_the_name(self, my_prune, restaurant):
        result = resolve(restaurant, method="PBS", pruning="MY-PRUNE")
        retained = {c.pair for c in my_prune(result.resolver.blocks, "ARCS")}
        assert {c.pair for c in result.pairs} == retained

    def test_numpy_refuses_it(self, my_prune, restaurant):
        pytest.importorskip("numpy")
        pipeline = ERPipeline().meta("ARCS", pruning="MY-PRUNE").method("PBS")
        with pytest.raises(NotImplementedError, match="backend='python'"):
            list(pipeline.backend("numpy").fit(restaurant).stream())
