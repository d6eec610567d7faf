"""Every decided comparison is matched exactly once.

A match decision is made in one place, ``Resolver._decide``: no stage
matches a pair while it is streamed and then again while it is decided.
A registered matcher counts its ``similarity`` calls.  A custom tier is
not batchable (``batchable_prefix() == 0``), so every backend decides it
through the per-pair loop.
"""

from __future__ import annotations

import pytest

from repro import ERPipeline, resolve
from repro.engine import HAS_NUMPY
from repro.matching import JaccardMatcher
from repro.registry import matchers

BACKENDS = [
    "python",
    pytest.param(
        "numpy", marks=pytest.mark.skipif(not HAS_NUMPY, reason="needs numpy")
    ),
]

RECORDS = [
    {"name": "carl white", "profession": "tailor", "city": "ny"},
    {"about": "carl_white", "livesin": "ny", "workas": "tailor"},
    {"about": "karl_white", "loc": "ny", "job": "tailor"},
    {"name": "ellen white", "profession": "teacher", "city": "ml"},
    {"text": "hellen white, ml teacher"},
    {"text": "emma white, wi tailor"},
]


class CountingJaccard(JaccardMatcher):
    """Jaccard that counts its similarity calls on the class (the
    registry builds the instance)."""

    name = "counting-jaccard"
    calls = 0

    def similarity(self, a, b):
        CountingJaccard.calls += 1
        return super().similarity(a, b)


@pytest.fixture
def counting():
    matchers.register("counting-jaccard", CountingJaccard)
    CountingJaccard.calls = 0
    yield CountingJaccard
    matchers.unregister("counting-jaccard")


def pipeline(backend: str = "python") -> ERPipeline:
    # purge=None: six profiles have no stop-word blocks to purge.
    return (
        ERPipeline()
        .blocking("token", purge=None)
        .backend(backend)
        .match("counting-jaccard")
    )


@pytest.mark.parametrize("backend", BACKENDS)
def test_decisions_match_each_comparison_once(backend, counting):
    resolver = pipeline(backend).fit(RECORDS)
    records = list(resolver.decisions())
    assert records and counting.calls == len(records)


@pytest.mark.parametrize("backend", BACKENDS)
def test_streaming_matches_nothing(backend, counting):
    resolver = pipeline(backend).fit(RECORDS)
    assert list(resolver.stream())
    assert counting.calls == 0 and resolver.matches == set()


def test_live_decisions_match_each_comparison_once(counting):
    resolver = pipeline().incremental().fit(RECORDS[:2])
    ingested = [resolver.resolve_one(record) for record in RECORDS[2:4]]
    probed = resolver.resolve_many(RECORDS[4:])
    decided = sum(map(len, ingested + probed))
    assert decided and counting.calls == decided


def test_resolve_matches_each_comparison_once(counting):
    result = resolve(RECORDS, match="counting-jaccard", purge=None)
    assert result.decisions and counting.calls == len(result.decisions)
