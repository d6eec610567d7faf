"""Deprecation-shim guarantees: the legacy API still works and produces
byte-identical results through the new registry and pipeline."""

from __future__ import annotations

import dataclasses

import pytest

from repro import ERPipeline, build_method, resolve, run_progressive
from repro.datasets import load_dataset

METHODS = ("SA-PSN", "SA-PSAB", "LS-PSN", "GS-PSN", "PBS", "PPS")


@pytest.fixture(scope="module")
def toy_dataset():
    return load_dataset("restaurant", scale=0.3)


class TestLegacyPathIdentical:
    @pytest.mark.parametrize("name", METHODS)
    def test_build_method_plus_run_progressive_matches_pipeline(
        self, toy_dataset, name
    ):
        with pytest.warns(DeprecationWarning, match="deprecated"):
            old = run_progressive(
                build_method(name, toy_dataset.store),
                toy_dataset.ground_truth,
                max_ec_star=10.0,
            )
        new = (
            ERPipeline()
            .method(name)
            .fit(toy_dataset.store, ground_truth=toy_dataset.ground_truth)
            .evaluate(max_ec_star=10.0)
        )
        # byte-identical: every dataclass field, including hit positions
        assert dataclasses.asdict(old) == dataclasses.asdict(new)

    def test_psn_baseline_matches(self, toy_dataset):
        with pytest.warns(DeprecationWarning, match="deprecated"):
            old = run_progressive(
                build_method(
                    "PSN", toy_dataset.store, key_function=toy_dataset.psn_key
                ),
                toy_dataset.ground_truth,
                max_ec_star=10.0,
            )
        new = (
            ERPipeline().method("PSN").fit(toy_dataset).evaluate(max_ec_star=10.0)
        )
        old = dataclasses.replace(old, dataset=toy_dataset.name)
        assert dataclasses.asdict(old) == dataclasses.asdict(new)

    def test_stream_order_matches_legacy_iteration(self, toy_dataset):
        with pytest.warns(DeprecationWarning, match="deprecated"):
            method = build_method("PPS", toy_dataset.store)
        legacy = [c.pair for _, c in zip(range(50), method, strict=False)]
        resolver = ERPipeline().budget(comparisons=50).fit(toy_dataset)
        assert [c.pair for c in resolver.stream()] == legacy

    def test_resolve_facade_matches_legacy_curve(self, toy_dataset):
        result = resolve(toy_dataset, method="PPS")
        with pytest.warns(DeprecationWarning, match="deprecated"):
            legacy = run_progressive(
                build_method("PPS", toy_dataset.store),
                toy_dataset.ground_truth,
                max_ec_star=1e6,  # effectively unbounded: run to exhaustion
                stop_at_full_recall=False,
            )
        assert result.curve.hit_positions == legacy.hit_positions


class TestLegacyEntrypointsStillExported:
    def test_top_level_names(self):
        import repro

        for name in (
            "build_method",
            "run_progressive",
            "token_blocking_workflow",
            "make_scheme",
            "available_methods",
        ):
            assert hasattr(repro, name)
