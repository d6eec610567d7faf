"""Config dataclass validation and dict round-tripping."""

from __future__ import annotations

import json

import pytest

from repro.pipeline.config import (
    BlockingConfig,
    BudgetConfig,
    MatchConfig,
    MetaBlockingConfig,
    MethodConfig,
    PipelineConfig,
)


class TestValidation:
    def test_unknown_blocking_scheme(self):
        with pytest.raises(ValueError, match="unknown blocking scheme"):
            BlockingConfig(scheme="nope")

    @pytest.mark.parametrize("spelling", ["standard", "standard-blocking", "key"])
    def test_schema_based_standard_blocking_is_not_a_scheme(self, spelling):
        """The methods are schema-agnostic: the key-based scheme and its
        spellings are refused with the schemes there are."""
        with pytest.raises(
            ValueError, match=r"unknown blocking scheme .*\['suffix', 'token'\]"
        ):
            BlockingConfig(scheme=spelling)

    def test_bad_ratios(self):
        with pytest.raises(ValueError, match="purge_ratio"):
            BlockingConfig(purge_ratio=1.5)
        with pytest.raises(ValueError, match="filter_ratio"):
            BlockingConfig(filter_ratio=0.0)

    def test_none_disables_steps(self):
        config = BlockingConfig(purge_ratio=None, filter_ratio=None)
        assert config.purge_ratio is None and config.filter_ratio is None

    def test_unknown_weighting(self):
        with pytest.raises(ValueError, match="unknown weighting scheme"):
            MetaBlockingConfig(weighting="nope")

    def test_unknown_method(self):
        with pytest.raises(ValueError, match="unknown progressive method"):
            MethodConfig(name="nope")

    def test_unknown_matcher(self):
        with pytest.raises(ValueError, match="unknown match function"):
            MatchConfig(tiers=("nope",))

    def test_names_canonicalized(self):
        assert MethodConfig(name="sapsn").name == "SA-PSN"
        assert MetaBlockingConfig(weighting="arcs").weighting == "ARCS"
        assert MatchConfig(tiers=("JS",)).tiers == ("jaccard",)

    def test_budget_bounds(self):
        with pytest.raises(ValueError, match="comparisons"):
            BudgetConfig(comparisons=-1)
        with pytest.raises(ValueError, match="seconds"):
            BudgetConfig(seconds=-0.5)
        with pytest.raises(ValueError, match="target_recall"):
            BudgetConfig(target_recall=1.5)
        assert BudgetConfig().unlimited()
        assert not BudgetConfig(comparisons=10).unlimited()

    def test_zero_budgets_are_valid_and_aligned(self):
        """Regression: seconds=0 used to raise while comparisons=0 was
        accepted; both now mean "emit nothing" and share one message
        shape for the negative case."""
        assert BudgetConfig(comparisons=0).comparisons == 0
        assert BudgetConfig(seconds=0).seconds == 0
        with pytest.raises(ValueError, match=r">= 0 \(0 emits nothing\)"):
            BudgetConfig(comparisons=-1)
        with pytest.raises(ValueError, match=r">= 0 \(0 emits nothing\)"):
            BudgetConfig(seconds=-1.0)


class TestRoundTrip:
    def spec(self) -> PipelineConfig:
        return PipelineConfig(
            blocking=BlockingConfig(
                scheme="suffix", purge_ratio=0.5, params={"min_length": 4}
            ),
            meta=MetaBlockingConfig(weighting="CBS"),
            method=MethodConfig(name="PBS", params={"filter_ratio": 0.7}),
            match=MatchConfig(
                tiers=("jaccard",), params={"jaccard": {"threshold": 0.6}}
            ),
            budget=BudgetConfig(comparisons=100, target_recall=0.9),
        )

    def test_to_dict_is_json_able(self):
        json.dumps(self.spec().to_dict())

    def test_round_trip_identity(self):
        spec = self.spec()
        rebuilt = PipelineConfig.from_dict(spec.to_dict())
        assert rebuilt == spec
        assert rebuilt.to_dict() == spec.to_dict()

    def test_none_match_round_trips(self):
        spec = PipelineConfig()
        assert spec.to_dict()["match"] is None
        assert PipelineConfig.from_dict(spec.to_dict()) == spec

    def test_a_retired_matcher_stage_reads_as_the_one_tier_cascade(self):
        """Specs written up to 2.1 carry a ``matcher`` stage; they still
        load (tests/pipeline/test_codec.py covers null and refused ones)."""
        legacy = {"name": "jaccard", "params": {"threshold": 0.6}}
        spec = PipelineConfig.from_dict({"matcher": legacy})
        assert spec.match.tiers == ("jaccard",)
        assert spec.match.params == {"jaccard": {"threshold": 0.6}}
        assert "matcher" not in spec.to_dict()

    def test_partial_dict_uses_defaults(self):
        spec = PipelineConfig.from_dict({"method": {"name": "SA-PSN"}})
        assert spec.method.name == "SA-PSN"
        assert spec.blocking == BlockingConfig()

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown pipeline config keys"):
            PipelineConfig.from_dict({"blocks": {}})
        with pytest.raises(ValueError, match="unknown budget config keys"):
            PipelineConfig.from_dict({"budget": {"max": 3}})

