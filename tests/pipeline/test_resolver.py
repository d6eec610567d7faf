"""Resolver session semantics: budgets, batches, reset, evaluation."""

from __future__ import annotations

import dataclasses
import itertools

import pytest

from repro.core.ground_truth import GroundTruth
from repro.errors import ConfigError, SessionClosed
from repro.pipeline import ERPipeline, resolve


def toy_pipeline() -> ERPipeline:
    # purge=None: the 6-profile paper example has no stop-word blocks.
    return ERPipeline().blocking("token", purge=None).method("PPS")


class TestBudgets:
    def test_comparison_budget_stops_exactly(
        self, paper_profiles, paper_ground_truth
    ):
        resolver = (
            toy_pipeline()
            .budget(comparisons=3)
            .fit(paper_profiles, ground_truth=paper_ground_truth)
        )
        assert len(list(resolver.stream())) == 3
        assert resolver.progress().emitted == 3
        # budget is session-wide: further pulls yield nothing
        assert resolver.next_batch(10) == []

    def test_zero_budget_emits_nothing(self, paper_profiles):
        resolver = toy_pipeline().budget(comparisons=0).fit(paper_profiles)
        assert list(resolver.stream()) == []

    def test_target_recall_early_stop(self, paper_profiles, paper_ground_truth):
        resolver = (
            toy_pipeline()
            .budget(target_recall=1.0)
            .fit(paper_profiles, ground_truth=paper_ground_truth)
        )
        emitted = list(resolver.stream())
        full = list(toy_pipeline().fit(paper_profiles).stream())
        assert resolver.progress().recall == 1.0
        assert len(emitted) < len(full)

    def test_target_recall_requires_ground_truth(self, paper_profiles):
        with pytest.raises(ValueError, match="target_recall.*ground truth"):
            toy_pipeline().budget(target_recall=0.5).fit(paper_profiles)

    def test_unlimited_runs_to_exhaustion(self, paper_profiles):
        resolver = toy_pipeline().fit(paper_profiles)
        list(resolver.stream())
        assert resolver.progress().exhausted


class TestStreaming:
    def test_next_batch_zero_consumes_nothing(self, paper_profiles):
        resolver = toy_pipeline().fit(paper_profiles)
        assert resolver.next_batch(0) == []
        assert resolver.progress().emitted == 0
        # the zero-size pull must not have dropped the best comparison
        whole = [c.pair for c in toy_pipeline().fit(paper_profiles).stream()]
        assert [c.pair for c in resolver.stream()] == whole

    def test_batches_equal_iterator(self, paper_profiles):
        whole = [c.pair for c in toy_pipeline().fit(paper_profiles).stream()]
        batched = toy_pipeline().fit(paper_profiles)
        chunks: list[tuple[int, int]] = []
        while True:
            batch = batched.next_batch(4)
            chunks.extend(c.pair for c in batch)
            if len(batch) < 4:
                break
        assert chunks == whole

    def test_stream_resumes_across_generators(self, paper_profiles):
        resolver = toy_pipeline().fit(paper_profiles)
        first = [c.pair for c in resolver.next_batch(2)]
        rest = [c.pair for c in resolver.stream()]
        whole = [c.pair for c in toy_pipeline().fit(paper_profiles).stream()]
        assert first + rest == whole

    def test_reset_restarts_emission(self, paper_profiles, paper_ground_truth):
        resolver = toy_pipeline().fit(
            paper_profiles, ground_truth=paper_ground_truth
        )
        first = [c.pair for c in resolver.next_batch(5)]
        resolver.reset()
        assert resolver.progress().emitted == 0
        assert [c.pair for c in resolver.next_batch(5)] == first

    def test_one_tier_cascade_confirms_pairs(
        self, paper_profiles, paper_ground_truth
    ):
        resolver = (
            toy_pipeline()
            .match("jaccard", params={"jaccard": {"threshold": 0.25}})
            .fit(paper_profiles, ground_truth=paper_ground_truth)
        )
        list(resolver.decisions())
        assert resolver.matches  # jaccard at 0.25 confirms the near-duplicates
        assert resolver.progress().matches_confirmed == len(resolver.matches)

    def test_oracle_tier_gets_ground_truth_injected(
        self, paper_profiles, paper_ground_truth
    ):
        resolver = (
            toy_pipeline()
            .match("oracle")
            .fit(paper_profiles, ground_truth=paper_ground_truth)
        )
        list(resolver.decisions())
        assert resolver.matches == paper_ground_truth.pairs


class TestEvaluation:
    def test_partial_curve_tracks_hits(self, paper_profiles, paper_ground_truth):
        resolver = toy_pipeline().fit(
            paper_profiles, ground_truth=paper_ground_truth
        )
        list(resolver.stream())
        curve = resolver.partial_curve()
        assert curve.total_matches == len(paper_ground_truth)
        assert curve.final_recall() == 1.0

    def test_partial_curve_requires_truth(self, paper_profiles):
        resolver = toy_pipeline().fit(paper_profiles)
        with pytest.raises(ValueError, match="ground truth"):
            resolver.partial_curve()

    def test_evaluate_unbiased_by_prior_streaming(
        self, paper_profiles, paper_ground_truth
    ):
        resolver = toy_pipeline().fit(
            paper_profiles, ground_truth=paper_ground_truth
        )
        baseline = resolver.evaluate()
        list(resolver.stream())  # consume the session
        assert resolver.evaluate() == baseline

    @pytest.mark.parametrize("backend", ["python", "numpy"])
    def test_evaluate_decisions_grades_a_drained_session_alike(self, backend):
        """With no target recall a fresh decided run is the drained
        session's: the same precision, recall, F1 and tier counts,
        whichever path (the numpy batcher or the tier loop) decided."""
        if backend == "numpy":
            pytest.importorskip("numpy")
        from repro.datasets import load_dataset

        resolver = (
            ERPipeline()
            .backend(backend)
            .budget(comparisons=2000)
            .match()
            .fit(load_dataset("cddb", scale=0.1))
        )
        assert sum(1 for _ in resolver.decisions()) == 2000
        quality = resolver.decision_quality()
        assert quality.true_positives > 0
        assert resolver.evaluate_decisions() == quality


    @pytest.mark.parametrize("backend", ["python", "numpy"])
    def test_evaluations_leave_a_half_consumed_session_untouched(self, backend):
        """``evaluate()`` and ``evaluate_decisions()`` run on a fork: the
        session's progress, matches, pending records and stream position
        are as they were, and its one tokenization sweep stays one."""
        if backend == "numpy":
            pytest.importorskip("numpy")
        from repro.datasets import load_dataset

        data = load_dataset("cddb", scale=0.1)
        pipeline = ERPipeline().backend(backend).budget(comparisons=600).match()
        expected = list(pipeline.fit(data).decisions())
        resolver = pipeline.fit(data)
        head = list(itertools.islice(resolver.decisions(), 200))

        def state():
            progress = dataclasses.replace(
                resolver.progress(), elapsed_seconds=None
            )
            return progress, resolver.matches, resolver.cascade_stats()

        before = state()
        assert before[1]
        resolver.evaluate(max_ec_star=2)
        resolver.evaluate_decisions()
        assert state() == before
        assert head + list(resolver.decisions()) == expected
        assert resolver._session_substrate().sweeps == 1

    @pytest.mark.parametrize("backend", ["python", "numpy"])
    def test_evaluations_share_the_session_sweep(self, backend):
        if backend == "numpy":
            pytest.importorskip("numpy")
        from repro.datasets import load_dataset

        resolver = (
            ERPipeline().backend(backend).budget(comparisons=300).match()
            .fit(load_dataset("cddb", scale=0.1))
        )
        resolver.evaluate(max_ec_star=2)
        resolver.evaluate_decisions()
        assert sum(1 for _ in resolver.stream()) == 300
        substrate = resolver._session_substrate()
        assert resolver.method._substrate is substrate
        assert substrate.sweeps == 1


class TestFit:
    def test_fit_dataset_by_name(self):
        resolver = ERPipeline().method("SA-PSN").fit("restaurant")
        assert resolver.ground_truth is not None
        assert resolver.dataset_name == "restaurant"

    def test_fit_records(self):
        records = [
            {"title": "alpha beta"},
            {"name": "alpha beta"},
            {"title": "gamma"},
        ]
        resolver = toy_pipeline().fit(records, GroundTruth([(0, 1)], closed=False))
        assert len(resolver.store) == 3

    def test_with_block_closes_the_resolver(self, paper_profiles):
        with toy_pipeline().fit(paper_profiles) as resolver:
            assert resolver.next_batch(2)
            assert not resolver.closed
        assert resolver.closed
        with pytest.raises(SessionClosed):
            resolver.next_batch(1)

    def test_fit_rejects_garbage(self):
        with pytest.raises(TypeError, match="fit expects"):
            ERPipeline().fit(42)

    def test_fit_rejects_single_record(self):
        with pytest.raises(TypeError, match="single record"):
            ERPipeline().fit({"title": "iphone 14 pro", "brand": "apple"})

    def test_custom_method_without_workflow_knobs_gets_blocks(
        self, paper_profiles
    ):
        # A user method accepting `blocks` but not purge/filter kwargs must
        # receive pre-built blocks under the default token config.
        from repro.core.comparisons import Comparison
        from repro.progressive.base import ProgressiveMethod
        from repro.registry import progressive_methods

        @progressive_methods.register("blocks-only")
        class BlocksOnly(ProgressiveMethod):
            name = "blocks-only"

            def __init__(self, store, blocks=None):
                super().__init__(store)
                self.blocks = blocks

            def _setup(self):
                assert self.blocks is not None

            def _emit(self):
                yield Comparison(0, 1, 1.0)

        try:
            resolver = ERPipeline().method("blocks-only").fit(paper_profiles)
            assert [c.pair for c in resolver.stream()] == [(0, 1)]
        finally:
            progressive_methods.unregister("blocks-only")

    def test_meta_weighting_honored_with_user_blocks(self, paper_profiles):
        from repro import token_blocking_workflow

        blocks = token_blocking_workflow(paper_profiles, purge_ratio=None)
        method = (
            ERPipeline()
            .meta("CBS")
            .method("PPS", blocks=blocks)
            .fit(paper_profiles)
            .build_method()
        )
        assert method.weighting_name == "CBS"

    def test_kwargs_method_gets_nothing_injected(self, paper_profiles):
        # A **kwargs catch-all must not silently receive pipeline knobs.
        from repro.core.comparisons import Comparison
        from repro.progressive.base import ProgressiveMethod
        from repro.registry import progressive_methods

        received: dict = {}

        @progressive_methods.register("kw-method")
        class KwMethod(ProgressiveMethod):
            name = "kw-method"

            def __init__(self, store, **opts):
                super().__init__(store)
                received.update(opts)

            def _setup(self):
                pass

            def _emit(self):
                yield Comparison(0, 1, 1.0)

        try:
            ERPipeline().method("kw-method").fit(paper_profiles).initialize()
            assert received == {}
        finally:
            progressive_methods.unregister("kw-method")

    def test_psn_key_injected_from_dataset(self):
        resolver = ERPipeline().method("PSN").fit("census")
        resolver.initialize()
        assert resolver.method.name == "PSN"

    def test_fit_shares_heavy_params_by_reference(self, paper_profiles):
        from repro import token_blocking_workflow

        blocks = token_blocking_workflow(paper_profiles, purge_ratio=None)
        resolver = ERPipeline().method("PPS", blocks=blocks).fit(paper_profiles)
        assert resolver.config.method.params["blocks"] is blocks

    def test_resolve_rejects_orphan_cascade_knobs(self, paper_profiles):
        from repro import resolve

        with pytest.raises(ConfigError, match="without a cascade"):
            resolve(paper_profiles, match_thresholds={"jaccard": 0.9})
        with pytest.raises(ConfigError, match="without a storage mode"):
            resolve(paper_profiles, storage_dir="scratch")

    @pytest.mark.parametrize(
        "entry",
        [
            lambda data: ERPipeline().storage("disk"),
            lambda data: ERPipeline.from_dict({"storage": {"mode": "disk"}}),
            lambda data: resolve(data, storage="disk"),
        ],
        ids=["builder", "from_dict", "resolve"],
    )
    def test_unknown_storage_mode_is_a_config_error(self, paper_profiles, entry):
        with pytest.raises(ConfigError, match="unknown storage mode 'disk'"):
            entry(paper_profiles)

    def test_clone_is_independent(self, paper_profiles):
        base = toy_pipeline()
        fork = base.clone().method("SA-PSN")
        assert base.config.method.name == "PPS"
        assert fork.config.method.name == "SA-PSN"
