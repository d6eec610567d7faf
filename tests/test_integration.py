"""Integration tests: full pipelines on small synthetic datasets.

These check the end-to-end behavior the paper's evaluation relies on:
every method runs on every dataset family, recall progressiveness is sane,
and the headline qualitative findings hold at small scale (advanced beats
naive; equality-based methods survive the RDF regime where
similarity-based ones collapse).
"""

from __future__ import annotations

import pytest

from repro.datasets.registry import list_datasets, load_dataset
from repro.evaluation.timing import timed_run
from repro.matching.match_functions import JaccardMatcher, OracleMatcher
from repro.pipeline import ERPipeline

INTEGRATION_SCALES = {
    "census": 0.4,
    "restaurant": 0.4,
    "cora": 0.15,
    "cddb": 0.04,
    "movies": 0.01,
    "dbpedia": 0.0004,
    "freebase": 0.0003,
    "synthetic": 0.001,
}

ALL_METHODS = ["SAPSN", "SAPSAB", "LSPSN", "GSPSN", "PBS", "PPS"]


def run(dataset, method_name, max_ec_star=20.0):
    resolver = ERPipeline().method(method_name).fit(dataset)
    return resolver.evaluate(max_ec_star=max_ec_star)


@pytest.mark.parametrize("dataset_name", list_datasets())
@pytest.mark.parametrize("method_name", ALL_METHODS)
class TestEveryMethodOnEveryDataset:
    def test_runs_and_finds_matches(self, dataset_name, method_name):
        dataset = load_dataset(dataset_name, scale=INTEGRATION_SCALES[dataset_name])
        curve = run(dataset, method_name)
        assert curve.emitted > 0
        # Recall curve is monotone by construction; positions are ordered.
        assert curve.hit_positions == sorted(curve.hit_positions)
        assert 0.0 <= curve.final_recall() <= 1.0


class TestPSNOnStructuredDatasets:
    @pytest.mark.parametrize(
        "dataset_name", ["census", "restaurant", "cora", "cddb"]
    )
    def test_psn_with_shipped_keys(self, dataset_name):
        dataset = load_dataset(dataset_name, scale=INTEGRATION_SCALES[dataset_name])
        curve = run(dataset, "PSN")  # fit() injects the dataset's psn_key
        assert curve.final_recall() > 0.1


class TestHeadlineFindings:
    def test_advanced_beat_naive_on_structured(self):
        """Figure 9: every advanced method beats SA-PSN on restaurant."""
        dataset = load_dataset("restaurant")
        naive = run(dataset, "SAPSN", max_ec_star=10).normalized_auc_at(10)
        for name in ("LSPSN", "GSPSN", "PBS", "PPS"):
            advanced = run(dataset, name, max_ec_star=10).normalized_auc_at(10)
            assert advanced > naive, name

    def test_equality_methods_survive_rdf_noise(self):
        """Figure 11c: on freebase-like data, PPS >> similarity methods."""
        dataset = load_dataset("freebase", scale=0.0005)
        pps = run(dataset, "PPS", max_ec_star=10).normalized_auc_at(10)
        ls = run(dataset, "LSPSN", max_ec_star=10).normalized_auc_at(10)
        sa = run(dataset, "SAPSN", max_ec_star=10).normalized_auc_at(10)
        assert pps > 2 * max(ls, sa)

    def test_similarity_methods_shine_on_structured(self):
        """Figure 10: GS-PSN is a top performer on census-like data."""
        dataset = load_dataset("census", scale=0.5)
        gs = run(dataset, "GSPSN", max_ec_star=10).normalized_auc_at(10)
        naive = run(dataset, "SAPSN", max_ec_star=10).normalized_auc_at(10)
        assert gs > naive + 0.2

    def test_pps_emits_most_matches_early_on_clean_clean(self):
        dataset = load_dataset("movies", scale=0.02)
        curve = run(dataset, "PPS", max_ec_star=5)
        assert curve.recall_at(5.0) > 0.8


class TestTimingPipeline:
    def test_timed_run_with_real_matcher(self):
        dataset = load_dataset("restaurant", scale=0.3)
        # timed_run measures initialization: hand it an uninitialized method
        method = ERPipeline().method("PPS").fit(dataset).build_method()
        matcher = OracleMatcher(
            dataset.ground_truth, cost_model=JaccardMatcher()
        )
        result = timed_run(
            method,
            dataset.ground_truth,
            dataset.store,
            matcher,
            max_comparisons=500,
        )
        assert result.initialization_seconds > 0
        assert result.emitted > 0
        assert result.matches_found > 0


class TestSeedStability:
    def test_full_pipeline_is_reproducible(self):
        a = load_dataset("census", scale=0.3, seed=11)
        b = load_dataset("census", scale=0.3, seed=11)
        curve_a = run(a, "PPS", max_ec_star=5)
        curve_b = run(b, "PPS", max_ec_star=5)
        assert curve_a.hit_positions == curve_b.hit_positions
