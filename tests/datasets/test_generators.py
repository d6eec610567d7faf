"""Tests for the seven dataset generators (Table 2 fidelity + regimes)."""

from __future__ import annotations

import pytest

from repro.core.profiles import ERType
from repro.datasets.registry import (
    HETEROGENEOUS_DATASETS,
    STRUCTURED_DATASETS,
    SYNTHETIC_DATASETS,
    list_datasets,
    load_dataset,
)

SMALL_SCALES = {
    "census": 0.3,
    "restaurant": 0.3,
    "cora": 0.2,
    "cddb": 0.05,
    "movies": 0.01,
    "dbpedia": 0.0003,
    "freebase": 0.0002,
    "synthetic": 0.0005,
}


class TestRegistry:
    def test_all_registered_datasets(self):
        assert list_datasets() == [
            # fmt: off
            "census", "restaurant", "cora", "cddb",
            "movies", "dbpedia", "freebase", "synthetic",
            # fmt: on
        ]
        assert set(STRUCTURED_DATASETS) | set(HETEROGENEOUS_DATASETS) | set(
            SYNTHETIC_DATASETS
        ) == set(list_datasets())

    def test_unknown_dataset(self):
        with pytest.raises(ValueError, match="unknown dataset"):
            load_dataset("nope")

    def test_case_insensitive(self):
        assert load_dataset("CENSUS", scale=0.1).name == "census"


@pytest.mark.parametrize("name", list_datasets())
class TestEveryGenerator:
    def test_deterministic_per_seed(self, name):
        a = load_dataset(name, scale=SMALL_SCALES[name], seed=3)
        b = load_dataset(name, scale=SMALL_SCALES[name], seed=3)
        assert [p.pairs for p in a.store] == [p.pairs for p in b.store]
        assert a.ground_truth.pairs == b.ground_truth.pairs

    def test_different_seeds_differ(self, name):
        a = load_dataset(name, scale=SMALL_SCALES[name], seed=0)
        b = load_dataset(name, scale=SMALL_SCALES[name], seed=1)
        assert [p.pairs for p in a.store] != [p.pairs for p in b.store]

    def test_ground_truth_pairs_are_valid_comparisons(self, name):
        dataset = load_dataset(name, scale=SMALL_SCALES[name])
        for i, j in dataset.ground_truth:
            assert dataset.store.valid_comparison(i, j)

    def test_paper_stats_recorded(self, name):
        dataset = load_dataset(name, scale=SMALL_SCALES[name])
        assert dataset.paper_stats["profiles"] > 0
        assert dataset.paper_stats["matches"] > 0

    def test_matches_scale_linearly(self, name):
        small = load_dataset(name, scale=SMALL_SCALES[name])
        target = dataset_scaled_matches = (
            small.paper_stats["matches"] * SMALL_SCALES[name]
        )
        assert len(small.ground_truth) == pytest.approx(target, rel=0.35, abs=30)


class TestStructuredCharacteristics:
    def test_census_table2(self):
        dataset = load_dataset("census")
        stats = dataset.stats()
        assert stats["profiles"] == 841
        assert stats["attributes"] == 5
        assert stats["matches"] == 344
        assert stats["mean_pairs"] == pytest.approx(4.65, abs=0.3)

    def test_restaurant_table2(self):
        stats = load_dataset("restaurant").stats()
        assert stats["profiles"] == 864
        assert stats["matches"] == 112
        assert stats["mean_pairs"] == pytest.approx(5.0, abs=0.05)

    def test_cora_table2(self):
        stats = load_dataset("cora").stats()
        assert stats["profiles"] == 1295
        assert stats["attributes"] == 12
        assert stats["matches"] == 17184
        assert stats["mean_pairs"] == pytest.approx(5.53, abs=0.5)

    def test_cddb_has_wide_sparse_schema(self):
        dataset = load_dataset("cddb", scale=0.3)
        stats = dataset.stats()
        assert stats["attributes"] > 30  # track01..trackNN columns
        assert stats["mean_pairs"] == pytest.approx(18.75, abs=3.0)

    def test_structured_datasets_ship_psn_keys(self):
        for name in STRUCTURED_DATASETS:
            dataset = load_dataset(name, scale=SMALL_SCALES[name])
            assert dataset.psn_key is not None
            key = dataset.psn_key(dataset.store[0])
            assert isinstance(key, str)

    def test_structured_are_dirty_er(self):
        for name in STRUCTURED_DATASETS:
            dataset = load_dataset(name, scale=SMALL_SCALES[name])
            assert dataset.store.er_type is ERType.DIRTY


class TestHeterogeneousCharacteristics:
    def test_all_clean_clean(self):
        for name in HETEROGENEOUS_DATASETS:
            dataset = load_dataset(name, scale=SMALL_SCALES[name])
            assert dataset.store.er_type is ERType.CLEAN_CLEAN

    def test_movies_schema_split(self):
        stats = load_dataset("movies", scale=0.02).stats()
        assert stats["attributes_by_source"] == (4, 7)

    def test_dbpedia_low_pair_overlap(self):
        """The two snapshots share only ~25% of their name-value pairs."""
        dataset = load_dataset("dbpedia", scale=0.0005)
        shared_ratios = []
        for i, j in list(dataset.ground_truth)[:50]:
            a = set(dataset.store[i].pairs)
            b = set(dataset.store[j].pairs)
            shared_ratios.append(len(a & b) / min(len(a), len(b)))
        mean_ratio = sum(shared_ratios) / len(shared_ratios)
        assert 0.1 < mean_ratio < 0.45

    def test_freebase_value_shapes(self):
        """Freebase side is URI-heavy; dbpedia side has resource URIs."""
        dataset = load_dataset("freebase", scale=0.0005)
        left = [p for p in dataset.store if p.source == 0]
        right = [p for p in dataset.store if p.source == 1]
        assert any("ns:m.0" in v for _, v in left[0].pairs)
        assert any("dbpedia.org/resource" in v for _, v in right[0].pairs)

    def test_freebase_mean_pairs(self):
        stats = load_dataset("freebase", scale=0.0005).stats()
        assert stats["mean_pairs"] == pytest.approx(24.54, abs=4.0)


class TestAddressableByName:
    """Heterogeneous workloads resolve end to end by registry name."""

    def test_resolve_heterogeneous_by_name_with_cascade(self):
        from repro import resolve

        result = resolve("movies", method="PPS", budget=150, match=True)
        assert result.emitted == 150
        assert len(result.decisions) == 150
        assert result.resolver.store.er_type is ERType.CLEAN_CLEAN
        tiers = [tier["name"] for tier in result.cascade_stats["tiers"]]
        assert tiers == ["exact", "jaccard", "edit-distance"]
