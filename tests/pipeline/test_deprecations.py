"""The 1.4 deprecation shims: they warn, and they stay identical."""

from __future__ import annotations

import warnings

import pytest

from repro.core.profiles import ProfileStore
from repro.evaluation.progressive_recall import run_progressive
from repro.pipeline import ERPipeline
from repro.progressive.base import build_method

ROWS = [
    {"n": "alpha beta"},
    {"n": "alpha gamma"},
    {"n": "beta gamma"},
]


def store() -> ProfileStore:
    return ProfileStore.from_attribute_maps(ROWS)


def test_build_method_warns_and_stays_identical():
    with pytest.warns(
        DeprecationWarning, match=r"build_method\(\) is deprecated.*docs/migration\.md"
    ):
        legacy = build_method("PPS", store(), purge_ratio=None)
    modern = (
        ERPipeline()
        .blocking("token", purge=None)
        .method("PPS")
        .fit(store())
        .build_method()
    )
    assert [c.pair for c in legacy] == [c.pair for c in modern]


def test_run_progressive_warns_and_stays_identical(
    paper_profiles, paper_ground_truth
):
    with pytest.warns(DeprecationWarning, match=r"build_method\(\) is deprecated"):
        method = build_method("PPS", paper_profiles)
    with pytest.warns(DeprecationWarning, match=r"run_progressive\(\) is deprecated"):
        legacy = run_progressive(method, paper_ground_truth)
    modern = (
        ERPipeline()
        .method("PPS")
        .fit(paper_profiles, paper_ground_truth)
        .evaluate()
    )
    assert legacy.hit_positions == modern.hit_positions
    assert legacy.total_matches == modern.total_matches


def test_supported_paths_do_not_warn(paper_profiles, paper_ground_truth):
    """The pipeline API never routes through the deprecated shims."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("error", DeprecationWarning)
        resolver = ERPipeline().method("PPS").fit(
            paper_profiles, paper_ground_truth
        )
        resolver.evaluate()
        resolver.reset()
        list(resolver.stream())
    assert not caught
