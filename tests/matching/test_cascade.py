"""Unit tests for the cost-escalation matching cascade.

The pure-Python decision layer: tier bands, short-circuiting,
escalation accounting, a costly matcher as the last tier, plus the
matcher edge cases the cascade leans on (threshold boundaries,
non-ASCII and empty text views, oracle cost accounting).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ground_truth import GroundTruth
from repro.core.profiles import EntityProfile
from repro.errors import ConfigError
from repro.matching import (
    EditDistanceMatcher,
    ExactMatcher,
    JaccardMatcher,
    MatcherCascade,
    MatchFunction,
    OracleMatcher,
)
from repro.registry import matchers


def profile(pid: int, text: str) -> EntityProfile:
    return EntityProfile(pid, {"text": text})


class CountingMatcher(MatchFunction):
    """A stub tier that returns a fixed similarity and counts calls."""

    def __init__(self, name: str, score: float, threshold: float = 0.5):
        self.name = name
        self.score = score
        self.threshold = threshold
        self.calls = 0

    def similarity(self, a, b):
        self.calls += 1
        return self.score

    def __call__(self, a, b):
        return self.similarity(a, b) >= self.threshold


class TestThresholdBoundaries:
    def test_jaccard_threshold_zero_accepts_disjoint_profiles(self):
        matcher = JaccardMatcher(threshold=0.0)
        assert matcher(profile(0, "alpha"), profile(1, "omega"))

    def test_jaccard_threshold_one_requires_identical_token_sets(self):
        matcher = JaccardMatcher(threshold=1.0)
        assert matcher(profile(0, "alpha beta"), profile(1, "Beta Alpha"))
        assert not matcher(profile(0, "alpha beta"), profile(1, "alpha"))

    def test_edit_distance_threshold_boundaries(self):
        assert EditDistanceMatcher(threshold=0.0)(
            profile(0, "abc"), profile(1, "xyz")
        )
        exact_only = EditDistanceMatcher(threshold=1.0)
        assert exact_only(profile(0, "abc"), profile(1, "abc"))
        assert not exact_only(profile(0, "abc"), profile(1, "abd"))

    def test_boundary_thresholds_are_valid_config(self):
        JaccardMatcher(threshold=0.0)
        JaccardMatcher(threshold=1.0)
        with pytest.raises(ValueError):
            JaccardMatcher(threshold=-0.01)
        with pytest.raises(ValueError):
            JaccardMatcher(threshold=1.01)

    def test_cascade_band_bounds_are_validated(self):
        with pytest.raises(ConfigError):
            MatcherCascade(thresholds={"jaccard": (0.5, 1.5)})
        with pytest.raises(ConfigError):
            MatcherCascade(thresholds={"jaccard": (0.9, 0.1)})


class TestTextViewEdgeCases:
    def test_non_ascii_profiles_match_exactly(self):
        a = EntityProfile(0, {"name": "José Müller", "city": "São Paulo"})
        b = EntityProfile(1, {"fullName": "josé müller", "loc": "são paulo"})
        decision = MatcherCascade().decide(a, b)
        assert decision.is_match
        assert decision.tier == "exact"

    def test_non_ascii_similarity_is_symmetric(self):
        matcher = EditDistanceMatcher()
        a, b = profile(0, "Łukasz Żółć"), profile(1, "Lukasz Zolc")
        assert matcher.similarity(a, b) == matcher.similarity(b, a)

    def test_empty_profiles_decide_at_tier_zero(self):
        # Two empty token views are (vacuously) equal sets: tier 0
        # confirms them instead of escalating into string tiers.
        decision = MatcherCascade().decide(
            EntityProfile(0, {}), EntityProfile(1, {})
        )
        assert decision == (True, "exact", 1.0)

    def test_empty_versus_nonempty_is_a_non_match(self):
        decision = MatcherCascade().decide(
            EntityProfile(0, {}), profile(1, "carl white")
        )
        assert not decision.is_match


class TestOracleCostAccounting:
    def test_decision_pays_the_cost_model_once(self):
        truth = GroundTruth({(0, 1)})
        cost = CountingMatcher("cost", score=0.0)
        oracle = OracleMatcher(truth, cost_model=cost)
        # The cost model scores 0.0 (would reject) but the ground truth
        # decides: the paper's Section 7.3 timing protocol.
        assert oracle(profile(0, "a"), profile(1, "b"))
        assert cost.calls == 1

    def test_similarity_pays_the_cost_model_too(self):
        truth = GroundTruth(set())
        cost = CountingMatcher("cost", score=0.9)
        oracle = OracleMatcher(truth, cost_model=cost)
        assert oracle.similarity(profile(0, "a"), profile(1, "b")) == 0.0
        assert cost.calls == 1

    def test_without_cost_model_nothing_is_paid(self):
        oracle = OracleMatcher(GroundTruth({(0, 1)}))
        assert oracle(profile(0, "a"), profile(1, "b"))


class TestCascadeEscalation:
    def test_first_deciding_tier_short_circuits(self):
        low, high = (
            CountingMatcher("low", score=0.95),
            CountingMatcher("high", score=0.0),
        )
        cascade = MatcherCascade(
            [low, high], thresholds={"low": (0.1, 0.9), "high": 0.5}
        )
        decision = cascade.decide(profile(0, "a"), profile(1, "b"))
        assert decision == (True, "low", 0.95)
        assert high.calls == 0

    def test_undecided_band_escalates_only_the_residue(self):
        mid = CountingMatcher("mid", score=0.5)
        final = CountingMatcher("final", score=0.8)
        cascade = MatcherCascade(
            [mid, final], thresholds={"mid": (0.4, 0.9), "final": 0.7}
        )
        decision = cascade.decide(profile(0, "a"), profile(1, "b"))
        assert decision == (True, "final", 0.8)
        stats = cascade.stats()["tiers"]
        assert stats[0]["escalated"] == 1 and stats[0]["decided"] == 0
        assert stats[1]["decided"] == 1 and stats[1]["matched"] == 1

    def test_final_tier_always_decides(self):
        undecided = CountingMatcher("only", score=0.5, threshold=0.6)
        cascade = MatcherCascade([undecided])
        decision = cascade.decide(profile(0, "a"), profile(1, "b"))
        assert decision == (False, "only", 0.5)

    def test_counters_partition_the_evaluated_comparisons(self):
        cascade = MatcherCascade()
        pairs = [
            (profile(0, "carl white ny"), profile(1, "carl white ny")),
            (profile(2, "carl white ny"), profile(3, "karl white ny")),
            (profile(4, "alpha beta"), profile(5, "x y z")),
        ]
        for a, b in pairs:
            cascade.decide(a, b)
        for tier in cascade.stats()["tiers"]:
            assert tier["evaluated"] == tier["decided"] + tier["escalated"]
        total = sum(t["decided"] for t in cascade.stats()["tiers"])
        assert total == len(pairs)


class TestConfigRefusals:
    def test_unknown_threshold_key_is_refused(self):
        with pytest.raises(ConfigError):
            MatcherCascade(thresholds={"cosine": 0.5})

    def test_unknown_params_key_is_refused(self):
        with pytest.raises(ConfigError):
            MatcherCascade(params={"cosine": {"threshold": 0.5}})

    def test_duplicate_tiers_are_refused(self):
        with pytest.raises(ConfigError):
            MatcherCascade(["jaccard", "JS"])

    def test_final_tier_band_must_collapse(self):
        with pytest.raises(ConfigError):
            MatcherCascade(["jaccard"], thresholds={"jaccard": (0.2, 0.8)})

    def test_empty_cascade_is_refused(self):
        with pytest.raises(ConfigError):
            MatcherCascade([])

    def test_a_resolved_tier_record_is_not_an_input_tier(self):
        resolved = MatcherCascade(["exact"]).tiers[0]
        with pytest.raises(ConfigError, match="MatchFunction instances"):
            MatcherCascade([resolved])


#: Attribute values over a small alphabet, so equal, overlapping and
#: disjoint token sets all come up.
texts = st.text(alphabet="ab cA,", max_size=12)
attributes = st.dictionaries(st.sampled_from(["name", "title", "city"]), texts)
unit = st.floats(0.0, 1.0)


class TestCostlyLastTier:
    @given(
        st.lists(st.tuples(attributes, attributes), min_size=1, max_size=20),
        st.tuples(unit, unit).map(sorted),
        unit,
    )
    @settings(max_examples=200, deadline=None)
    def test_last_tier_runs_only_on_the_escalated_residue(
        self, pairs, band, score
    ):
        """Cheap first, expensive last: a costly matcher placed last is
        called once per pair the banded jaccard tier escalates, and
        every decision it makes is labelled with its own tier."""
        costly = CountingMatcher("costly", score=score)
        cascade = MatcherCascade(
            ["exact", "jaccard", costly], thresholds={"jaccard": tuple(band)}
        )
        for position, (left, right) in enumerate(pairs):
            calls = costly.calls
            decision = cascade.decide(
                EntityProfile(2 * position, left),
                EntityProfile(2 * position + 1, right),
            )
            assert (decision.tier == "costly") == (costly.calls == calls + 1)
            assert costly.calls - calls <= 1
        _, jaccard, last = cascade.stats()["tiers"]
        assert costly.calls == jaccard["escalated"] == last["evaluated"]
        assert last["decided"] == costly.calls


@st.composite
def matcher_specs(draw):
    """A matcher name with the constructor params of one pipeline stage."""
    name = draw(st.sampled_from(["exact", "jaccard", "edit-distance", "oracle"]))
    if name == "oracle":
        linked = draw(st.booleans())
        return name, {"ground_truth": GroundTruth([(0, 1)] if linked else [(1, 2)])}
    if name == "exact" or draw(st.booleans()):
        return name, {}  # exact takes no threshold; the others their default
    return name, {"threshold": draw(st.floats(0.0, 1.0))}


class TestOneTierCascade:
    @given(matcher_specs(), attributes, attributes)
    @settings(max_examples=300, deadline=None)
    def test_one_tier_cascade_decides_as_its_matcher(self, spec, left, right):
        """A single matcher needs no decision path of its own: the
        one-tier cascade over it decides every pair as it does."""
        name, params = spec
        a, b = EntityProfile(0, left), EntityProfile(1, right)
        cascade = MatcherCascade([name], params={name: params})
        assert cascade.decide(a, b).is_match == matchers.build(name, **params)(a, b)

    def test_cascade_satisfies_the_match_function_contract(self):
        cascade = MatcherCascade()
        assert isinstance(cascade, MatchFunction)
        a, b = profile(0, "carl white"), profile(1, "carl white")
        assert cascade(a, b) is True
        assert cascade.similarity(a, b) == 1.0


class TestBatchablePrefix:
    def test_stock_tiers_expose_the_two_tier_prefix(self):
        assert MatcherCascade().batchable_prefix() == 2

    def test_custom_tier_zero_disables_the_batch_path(self):
        assert MatcherCascade(["jaccard"]).batchable_prefix() == 0

    def test_custom_second_tier_keeps_tier_zero_batchable(self):
        cascade = MatcherCascade([ExactMatcher(), EditDistanceMatcher()])
        assert cascade.batchable_prefix() == 1
