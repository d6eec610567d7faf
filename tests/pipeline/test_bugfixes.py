"""Regression tests for pipeline config bugs.

1. ``ERPipeline().backend("python").parallel(workers=2)`` used to
   silently flip the backend to ``"numpy-parallel"``, discarding the
   user's explicit choice (and the reverse order silently discarded the
   parallel stage's backend).  Conflicting explicit backend + parallel
   config now raises, in both call orders; the implicit upgrade (no
   explicit backend) is kept.

2. Budget validation was inconsistent: ``budget(seconds=0)`` raised
   while ``budget(comparisons=0)`` was accepted.  Zero budgets are now
   uniformly valid and mean "emit nothing" end-to-end.

3. Four holes left by rules that had several partial homes: a
   final-tier confidence band passed the config and ``fit()`` and
   failed at the first decision; a builder call made *after*
   ``.serve()`` was never checked against it; ``.incremental()``
   refused at ``fit`` what ``.serve()`` refused at config time; a spec
   with a band was not equal to itself after a JSON round trip.

4. Two session-protocol holes: resuming ``resolve_stream(decide=True)``
   after taking part of a decided batch lost the rest of that batch
   (decided and counted as emitted, never handed out), and
   ``next_batch(0)`` answered ``[]`` on a closed session where every
   other use raises ``SessionClosed``.
"""

from __future__ import annotations

import itertools
import json

import pytest

from repro.datasets import load_dataset
from repro.engine import HAS_NUMPY
from repro.errors import ConfigError, SessionClosed
from repro.pipeline import ERPipeline, resolve
from repro.pipeline.config import MatchConfig, PipelineConfig

BACKENDS = [
    "python",
    pytest.param(
        "numpy", marks=pytest.mark.skipif(not HAS_NUMPY, reason="needs numpy")
    ),
]


@pytest.fixture()
def records():
    return [
        {"name": "Carl White", "city": "NY"},
        {"name": "Karl White", "city": "NY"},
        {"name": "Ellen White", "city": "ML"},
    ]


class TestBackendParallelConflict:
    def test_backend_then_parallel_raises(self):
        """Regression: this used to silently become numpy-parallel."""
        pipeline = ERPipeline().backend("python")
        with pytest.raises(ValueError, match="conflicts with"):
            pipeline.parallel(workers=2)
        assert pipeline.config.backend == "python"

    def test_parallel_then_backend_raises(self):
        pipeline = ERPipeline().parallel(workers=2)
        with pytest.raises(ValueError, match="conflicts with"):
            pipeline.backend("python")
        assert pipeline.config.backend == "numpy-parallel"

    def test_numpy_backend_conflicts_too(self):
        with pytest.raises(ValueError, match="conflicts with"):
            ERPipeline().backend("numpy").parallel(workers=2)

    def test_implicit_upgrade_without_explicit_backend(self):
        config = ERPipeline().method("PPS").parallel(workers=2).config
        assert config.backend == "numpy-parallel"
        assert config.parallel is not None and config.parallel.workers == 2

    def test_explicit_parallel_backend_is_compatible_both_orders(self):
        a = ERPipeline().backend("numpy-parallel").parallel(workers=2)
        b = ERPipeline().parallel(workers=2).backend("numpy-parallel")
        assert a.config.backend == b.config.backend == "numpy-parallel"

    def test_disabling_the_stage_releases_the_conflict(self):
        pipeline = ERPipeline().parallel(workers=2).parallel(enabled=False)
        assert pipeline.config.parallel is None
        assert pipeline.backend("python").config.backend == "python"

    def test_clone_keeps_the_explicit_choice(self):
        """Regression: clone() used to drop the explicitness marker,
        reintroducing the silent override on sweep forks."""
        base = ERPipeline().backend("python")
        with pytest.raises(ValueError, match="conflicts with"):
            base.clone().parallel(workers=2)
        # An implicit pipeline's clone still upgrades freely.
        fork = ERPipeline().method("PPS").clone().parallel(workers=2)
        assert fork.config.backend == "numpy-parallel"

    def test_from_dict_treats_non_default_backend_as_explicit(self):
        spec = ERPipeline().backend("numpy").to_dict()
        with pytest.raises(ValueError, match="conflicts with"):
            ERPipeline.from_dict(spec).parallel(workers=2)
        default_spec = ERPipeline().method("PPS").to_dict()
        rebuilt = ERPipeline.from_dict(default_spec).parallel(workers=2)
        assert rebuilt.config.backend == "numpy-parallel"

    def test_to_dict_round_trip(self):
        spec = ERPipeline().backend("numpy-parallel").parallel(workers=2).to_dict()
        assert spec["backend"] == "numpy-parallel"
        assert spec["parallel"]["workers"] == 2
        rebuilt = ERPipeline.from_dict(spec)
        assert rebuilt.to_dict() == spec

    def test_inconsistent_dict_rejected(self):
        with pytest.raises(ValueError, match="requires backend 'numpy-parallel'"):
            PipelineConfig.from_dict(
                {"backend": "python", "parallel": {"workers": 2}}
            )

    def test_resolve_explicit_backend_with_workers_raises(self, records):
        with pytest.raises(ValueError, match="conflicts with"):
            resolve(records, method="PPS", backend="python", workers=2)

    def test_resolve_workers_alone_still_upgrades(self, records):
        pytest.importorskip("numpy")
        result = resolve(records, method="PPS", purge=None, workers=0)
        assert result.pairs


class TestZeroBudgets:
    def test_zero_comparisons_emits_nothing(self, records):
        resolver = (
            ERPipeline()
            .blocking("token", purge=None)
            .method("ONLINE")
            .budget(comparisons=0)
            .fit(records)
        )
        assert list(resolver.stream()) == []
        assert resolver.next_batch(5) == []
        assert resolver.progress().emitted == 0

    def test_one_comparison_emits_exactly_one(self, records):
        resolver = (
            ERPipeline()
            .blocking("token", purge=None)
            .method("ONLINE")
            .budget(comparisons=1)
            .fit(records)
        )
        assert len(list(resolver.stream())) == 1
        assert resolver.next_batch(5) == []
        assert resolver.progress().emitted == 1

    def test_resolve_budget_zero_and_one(self, records):
        empty = resolve(records, method="ONLINE", purge=None, budget=0)
        assert empty.pairs == [] and empty.emitted == 0
        single = resolve(records, method="ONLINE", purge=None, budget=1)
        assert len(single.pairs) == 1 and single.emitted == 1

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("kind", ["budget", "seconds"])
    def test_resolve_zero_budget_on_each_backend(self, records, kind, backend):
        result = resolve(records, purge=None, backend=backend, **{kind: 0})
        assert result.pairs == [] and result.emitted == 0

    def test_zero_seconds_emits_nothing(self, records):
        """Regression: budget(seconds=0) used to raise at config time."""
        resolver = (
            ERPipeline()
            .blocking("token", purge=None)
            .method("ONLINE")
            .budget(seconds=0)
            .fit(records)
        )
        assert list(resolver.stream()) == []

    def test_zero_comparisons_incremental_ingestion(self, records):
        session = (
            ERPipeline()
            .blocking("token", purge=None, filter_ratio=None)
            .method("ONLINE")
            .budget(comparisons=0)
            .incremental()
            .fit(records[:1])
        )
        assert session.add_profiles(records[1:]) == []
        assert session.progress().emitted == 0


#: (what the live session refuses, the builder call that configures it)
BATCH_ONLY = {
    "no incremental counterpart": lambda p: p.blocking("suffix"),
    "batch sessions": lambda p: p.method("SA-PSN"),
    "do not support Meta-blocking": lambda p: p.meta(pruning="WNP"),
}


class TestSpecValidationHoles:
    def test_final_tier_band_is_refused_at_config_time(self):
        """Regression: this passed the config *and* fit() and raised
        when the first comparison was decided."""
        band = {"jaccard": (0.2, 0.8)}
        with pytest.raises(ConfigError, match="final tier"):
            ERPipeline().match("jaccard", thresholds=band)
        with pytest.raises(ConfigError, match="final tier"):
            MatchConfig(tiers=("exact", "jaccard"), thresholds=band)
        with pytest.raises(ConfigError, match="final tier"):
            PipelineConfig.from_dict(
                {"match": {"tiers": ["jaccard"], "thresholds": {"jaccard": [0.2, 1]}}}
            )
        # A tier that is not the last keeps its band.
        ERPipeline().match(["jaccard", "edit-distance"], thresholds=band)

    @pytest.mark.parametrize("live", ["serve", "incremental"])
    @pytest.mark.parametrize("text", sorted(BATCH_ONLY))
    def test_live_stages_refuse_batch_only_stages_in_either_order(self, live, text):
        """Regression: after .serve() nothing was checked (and the spec
        written was one its own from_dict rejected); .incremental()
        refused only at fit()."""
        configure = BATCH_ONLY[text]
        pipeline = getattr(ERPipeline(), live)()
        before = pipeline.to_dict()
        with pytest.raises(ConfigError, match=text):
            configure(pipeline)
        assert pipeline.to_dict() == before  # a refused call changes nothing
        with pytest.raises(ConfigError, match=text):
            getattr(configure(ERPipeline()), live)()

    def test_both_live_stages_refuse_with_the_same_words(self):
        def refusal(live):
            with pytest.raises(ConfigError) as caught:
                getattr(ERPipeline().method("PBS"), live)()
            return str(caught.value)

        assert refusal("serve") == refusal("incremental")

    def test_spec_with_bands_survives_a_real_json_round_trip(self):
        """Regression: (0.2, 0.9) came back [0.2, 0.9] and the rebuilt
        spec was not equal to the one that wrote it."""
        spec = ERPipeline().match(
            thresholds={"jaccard": (0.2, 0.9), "edit-distance": 0.7}
        ).config
        rebuilt = PipelineConfig.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert rebuilt == spec
        assert rebuilt.match.thresholds["jaccard"] == (0.2, 0.9)
        assert rebuilt.to_dict() == spec.to_dict()


class TestSessionProtocol:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_resumed_decision_stream_delivers_the_rest_of_the_batch(self, backend):
        data = load_dataset("cddb", scale=0.05, seed=0)
        pipeline = (
            ERPipeline().method("PPS").backend(backend).budget(comparisons=300).match()
        )
        full = list(pipeline.fit(data).resolve_stream(decide=True))
        assert len(full) == 300
        resolver = pipeline.fit(data)
        first = list(itertools.islice(resolver.resolve_stream(decide=True), 10))
        rest = list(resolver.resolve_stream(decide=True))
        assert first + rest == full
        assert resolver.progress().emitted == 300

    def test_next_batch_zero_on_a_closed_session_raises(self, records):
        resolver = ERPipeline().blocking("token", purge=None).fit(records)
        assert resolver.next_batch(0) == []
        resolver.close()
        with pytest.raises(SessionClosed):
            resolver.next_batch(0)
