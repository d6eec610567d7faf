"""Unit tests for recall curves and AUC* computation."""

from __future__ import annotations

import pytest

from repro.core.comparisons import Comparison
from repro.core.ground_truth import GroundTruth
from repro.core.profiles import ProfileStore
from repro.evaluation.progressive_recall import (
    RecallCurve,
    _drive_progressive,
    ideal_auc,
)
from repro.progressive.base import ProgressiveMethod


class Scripted(ProgressiveMethod):
    """Emits a fixed list of comparisons - for harness testing."""

    name = "scripted"

    def __init__(self, store, script):
        super().__init__(store)
        self.script = script

    def _setup(self):
        pass

    def _emit(self):
        yield from self.script


def make_store(n: int = 10) -> ProfileStore:
    return ProfileStore.from_attribute_maps([{"a": str(i)} for i in range(n)])


class TestRecallCurve:
    def test_matches_found_binary_search(self):
        curve = RecallCurve("m", total_matches=4, hit_positions=[2, 5, 9])
        assert curve.matches_found(1) == 0
        assert curve.matches_found(2) == 1
        assert curve.matches_found(6) == 2
        assert curve.matches_found(100) == 3

    def test_recall_at(self):
        curve = RecallCurve("m", total_matches=4, hit_positions=[1, 2, 3])
        assert curve.recall_at(1.0) == pytest.approx(0.75)

    def test_final_recall(self):
        curve = RecallCurve("m", total_matches=4, hit_positions=[1, 2])
        assert curve.final_recall() == 0.5

    def test_zero_matches_degenerate(self):
        curve = RecallCurve("m", total_matches=0)
        assert curve.recall_at(5) == 0.0
        assert curve.auc_at(5) == 0.0

    def test_auc_formula(self):
        """AUC = sum over hits of (budget - position) / D^2."""
        curve = RecallCurve("m", total_matches=2, hit_positions=[1, 2])
        # budget = 2 comparisons: area = (2-1)/4 + 0 = 0.25
        assert curve.auc_at(1.0) == pytest.approx(0.25)

    def test_ideal_method_normalizes_to_one(self):
        D = 20
        curve = RecallCurve("ideal", D, hit_positions=list(range(1, D + 1)))
        for ec_star in (1, 5, 10):
            assert curve.normalized_auc_at(ec_star) == pytest.approx(1.0)

    def test_normalized_auc_is_bounded(self):
        curve = RecallCurve("m", total_matches=3, hit_positions=[7, 30])
        for ec_star in (1, 5, 10):
            assert 0.0 <= curve.normalized_auc_at(ec_star) <= 1.0

    def test_points(self):
        curve = RecallCurve("m", total_matches=2, hit_positions=[1, 4])
        assert curve.points([1.0, 2.0]) == [(1.0, 0.5), (2.0, 1.0)]


class TestIdealAuc:
    def test_grows_with_budget(self):
        assert ideal_auc(10, 2.0) > ideal_auc(10, 1.0)

    def test_approaches_x_minus_half(self):
        # For large D, AUC_ideal@x -> x - 0.5.
        assert ideal_auc(10_000, 5.0) == pytest.approx(4.5, abs=0.01)

    def test_zero_matches(self):
        assert ideal_auc(0, 5.0) == 0.0


class TestRunProgressive:
    """The protocol driver behind ``Resolver.evaluate()``."""

    def test_counts_first_detection_only(self):
        store = make_store()
        truth = GroundTruth([(0, 1)])
        script = [
            Comparison(0, 1, 1.0),
            Comparison(0, 1, 0.9),  # repeated emission
            Comparison(2, 3, 0.8),
        ]
        curve = _drive_progressive(
            Scripted(store, script), truth, stop_at_full_recall=False
        )
        assert curve.hit_positions == [1]
        assert curve.emitted == 3

    def test_budget_truncates(self):
        store = make_store()
        truth = GroundTruth([(0, 1), (2, 3)], closed=False)
        script = [Comparison(4, 5, 1.0)] * 10 + [Comparison(0, 1, 0.5)]
        curve = _drive_progressive(Scripted(store, script), truth, max_ec_star=2.0)
        assert curve.emitted == 4  # 2 * |DP|
        assert curve.final_recall() == 0.0
        assert not curve.exhausted

    def test_stop_at_full_recall(self):
        store = make_store()
        truth = GroundTruth([(0, 1)])
        script = [Comparison(0, 1, 1.0)] + [Comparison(2, 3, 0.5)] * 100
        curve = _drive_progressive(Scripted(store, script), truth, max_ec_star=500)
        assert curve.emitted == 1
        assert not curve.exhausted

    def test_stream_ending_before_the_budget_is_exhausted(self):
        store = make_store()
        truth = GroundTruth([(0, 1), (2, 3)], closed=False)
        script = [Comparison(0, 1, 1.0), Comparison(4, 5, 0.5)]
        curve = _drive_progressive(Scripted(store, script), truth, max_ec_star=5.0)
        assert curve.emitted == 2
        assert curve.exhausted

    def test_dataset_label_recorded(self):
        store = make_store()
        truth = GroundTruth([(0, 1)])
        curve = _drive_progressive(
            Scripted(store, [Comparison(0, 1, 1.0)]), truth, dataset="census"
        )
        assert curve.dataset == "census"
        assert curve.method == "scripted"
