"""Recall curves, AUC* and the protocol run behind ``Resolver.evaluate()``."""

from __future__ import annotations

import hashlib

import pytest

from repro import ERPipeline
from repro.core.comparisons import Comparison
from repro.core.ground_truth import GroundTruth
from repro.core.profiles import ProfileStore
from repro.datasets import Dataset, load_dataset
from repro.engine import HAS_NUMPY
from repro.evaluation.progressive_recall import RecallCurve, ideal_auc
from repro.progressive.base import ProgressiveMethod
from repro.registry import progressive_methods


class Scripted(ProgressiveMethod):
    """Emits a fixed list of comparisons - for harness testing."""

    name = "scripted"

    def __init__(self, store, script):
        super().__init__(store)
        self.script = script

    def _setup(self):
        pass

    def _emit(self):
        # a spec's params keep plain tuples, so the script may hold them
        return (Comparison(*comparison) for comparison in self.script)


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
    """The paper's protocol as ``Resolver.evaluate()`` runs it: a match
    counts at its first emission, the run stops at ``max_ec_star * |D|``
    comparisons or at full recall, whichever comes first."""

    @pytest.fixture()
    def scripted(self):
        """Registers ``Scripted`` as ``SCRIPTED``; unregistered afterwards."""
        progressive_methods.register("SCRIPTED", Scripted)
        try:
            yield
        finally:
            progressive_methods.unregister("SCRIPTED")

    @staticmethod
    def evaluate(script, truth, name="", **kwargs) -> RecallCurve:
        """``evaluate()`` on a session emitting ``script``'s ``(i, j,
        weight)`` tuples in order."""
        data = Dataset(name, make_store(), truth)
        resolver = ERPipeline().method("SCRIPTED", script=script).fit(data)
        return resolver.evaluate(**kwargs)

    def test_counts_first_detection_only(self, scripted):
        truth = GroundTruth([(0, 1), (4, 5)], closed=False)
        script = [
            (0, 1, 1.0),
            (0, 1, 0.9),  # repeated emission
            (2, 3, 0.8),
        ]
        curve = self.evaluate(script, truth)
        assert curve.hit_positions == [1]
        assert curve.emitted == 3
        assert curve.exhausted

    def test_budget_truncates(self, scripted):
        truth = GroundTruth([(0, 1), (2, 3)], closed=False)
        script = [(4, 5, 1.0)] * 10 + [(0, 1, 0.5)]
        curve = self.evaluate(script, truth, max_ec_star=2.0)
        assert curve.emitted == 4  # 2 * |DP|
        assert curve.final_recall() == 0.0
        assert not curve.exhausted

    def test_full_recall_ends_the_run(self, scripted):
        truth = GroundTruth([(0, 1)])
        script = [(0, 1, 1.0)] + [(2, 3, 0.5)] * 100
        curve = self.evaluate(script, truth, max_ec_star=500)
        assert curve.emitted == 1
        assert not curve.exhausted

    def test_stream_ending_before_the_budget_is_exhausted(self, scripted):
        truth = GroundTruth([(0, 1), (2, 3)], closed=False)
        script = [(0, 1, 1.0), (4, 5, 0.5)]
        curve = self.evaluate(script, truth, max_ec_star=5.0)
        assert curve.emitted == 2
        assert curve.exhausted

    def test_named_tuple_params_survive_the_copy(self, scripted):
        """``fit()`` copies the stage params; a ``NamedTuple`` in them is
        rebuilt field by field and keeps its type (the JSON form is a
        list)."""
        truth = GroundTruth([(0, 1)])
        script = [Comparison(0, 1, 1.0), Comparison(2, 3, 0.5)]
        pipeline = ERPipeline().method("SCRIPTED", script=script)
        resolver = pipeline.fit(Dataset("", make_store(), truth))
        copied = resolver.config.method.params["script"]
        assert copied == script and copied is not script
        assert all(type(item) is Comparison for item in copied)
        assert pipeline.to_dict()["method"]["params"]["script"] == [
            [0, 1, 1.0],
            [2, 3, 0.5],
        ]
        assert self.evaluate(script, truth).hit_positions == [1]

    def test_dataset_label_recorded(self, scripted):
        truth = GroundTruth([(0, 1)])
        curve = self.evaluate([(0, 1, 1.0)], truth, name="census")
        assert curve.dataset == "census"
        assert curve.method == "scripted"

    def test_a_stream_as_long_as_the_budget_is_not_exhausted(self, scripted):
        """One rule for every reading: a run that stops at its budget is
        not exhausted, even when the stream would have ended there."""
        truth = GroundTruth([(0, 1), (2, 3)], closed=False)
        script = [(4, 5, 1.0)] * 3 + [(0, 1, 0.5)]
        data = Dataset("", make_store(), truth)
        pipeline = ERPipeline().method("SCRIPTED", script=script)
        curve = pipeline.fit(data).evaluate(max_ec_star=2.0)
        session = pipeline.budget(comparisons=4).fit(data)
        assert len(session.next_batch(10)) == 4
        assert curve.emitted == session.partial_curve().emitted == 4
        assert curve.hit_positions == session.partial_curve().hit_positions
        assert not curve.exhausted
        assert not session.partial_curve().exhausted
        assert not session.progress().exhausted


#: ``evaluate(max_ec_star=5)`` on cora at scale 0.1: (method, pruning)
#: -> (md5 of ``repr(hit_positions)``, first 12 hex digits; emitted).
#: Both backends emit the same stream, so one row serves both.
PINNED_CURVES = {
    ("PPS", None): ("695b09bf9efa", 673),
    ("PBS", None): ("b9a0fc35252c", 587),
    ("LS-PSN", None): ("bf2efa2d7427", 8590),
    ("GS-PSN", None): ("88da9eb5424c", 6914),
    ("SA-PSN", None): ("9ba56ba4b5c9", 8590),
    ("SA-PSAB", None): ("590c9ef947d6", 8590),
    ("ONLINE", None): ("3b7b43d8563e", 587),
    ("PBS", "CNP"): ("e515c6826d0d", 281),
    ("PPS", "WNP"): ("3243e414056f", 304),
}


@pytest.fixture(scope="module")
def cora():
    return load_dataset("cora", scale=0.1)


@pytest.mark.parametrize(
    "backend", ["python", pytest.param("numpy", marks=pytest.mark.skipif(
        not HAS_NUMPY, reason="the numpy backend needs numpy"))]
)
@pytest.mark.parametrize("method, pruning", list(PINNED_CURVES))
def test_pinned_curves(cora, method, pruning, backend):
    pipeline = ERPipeline().method(method).backend(backend)
    if pruning is not None:
        pipeline = pipeline.meta(pruning=pruning)
    curve = pipeline.fit(cora).evaluate(max_ec_star=5)
    digest = hashlib.md5(repr(curve.hit_positions).encode()).hexdigest()[:12]
    assert (digest, curve.emitted) == PINNED_CURVES[method, pruning]
    assert curve.method == method
