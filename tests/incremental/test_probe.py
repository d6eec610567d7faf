"""A read-only probe is a rolled-back ingest.

For the length of one probe the record is a stored and indexed profile
like any other; afterwards the store and the index are exactly as they
were - Dirty or Clean-clean, with a match stage or without, and when a
tier raises.
"""

from __future__ import annotations

import pytest

from repro import ERPipeline
from repro.core.profiles import ERType
from repro.incremental.store import MutableProfileStore
from repro.matching import JaccardMatcher

RECORDS = [
    {"name": "carl white", "profession": "tailor", "city": "ny"},
    {"about": "carl_white", "livesin": "ny", "workas": "tailor"},
    {"about": "karl_white", "loc": "ny", "job": "tailor"},
    {"name": "ellen white", "profession": "teacher", "city": "ml"},
    {"text": "hellen white, ml teacher"},
    {"text": "emma white, wi tailor"},
]
SOURCES = [0, 1, 0, 1, 0, 1]
#: Its ``teacher`` and ``ml`` blocks hold one profile of each source.
PROBE = {"text": "emma white, ny tailor, ml teacher"}


class FlakyTier(JaccardMatcher):
    """A custom last tier that raises while ``failing`` is set."""

    name = "flaky"

    def __init__(self) -> None:
        super().__init__()
        self.failing = False

    def similarity(self, a, b):
        if self.failing:
            raise RuntimeError("tier failed")
        return super().similarity(a, b)


def session(er_type: ERType, tier=None):
    """A live session over ``RECORDS``; purging at 0.5 so the probe
    moves the purge bound (the six-record corpus's ``white`` block)."""
    pipeline = ERPipeline().blocking("token", purge=0.5, filter_ratio=None)
    if tier is not None:
        pipeline = pipeline.match(("exact", tier))
    resolver = pipeline.incremental().fit(MutableProfileStore([], er_type))
    sources = SOURCES if er_type is ERType.CLEAN_CLEAN else None
    resolver.add_profiles(RECORDS, sources=sources)
    return resolver


def state(resolver):
    """Everything a probe touches, in comparable form."""
    store, index = resolver.store, resolver.index
    ids = range(len(store) + 1)  # the probe's id included
    return (
        len(store),
        [store.source_size(source) for source in (0, 1)],
        [store[i] for i in range(len(store))],
        {token: list(posting) for token, posting in index.postings.items()},
        [index.blocks_of_count(i) for i in ids],
        index.block_count(),
        index.generation,
    )


@pytest.mark.parametrize("matched", [False, True])
@pytest.mark.parametrize("er_type", [ERType.DIRTY, ERType.CLEAN_CLEAN])
def test_a_probe_leaves_the_store_and_the_index_as_they_were(er_type, matched):
    resolver = session(er_type, FlakyTier() if matched else None)
    before = state(resolver)
    matches = resolver.matches
    for source in (0, 1):
        assert resolver.resolve_one(PROBE, source=source, ingest=False)
        assert state(resolver) == before
    assert resolver.resolve_many([PROBE, RECORDS[0]], sources=[1, 0])
    assert state(resolver) == before
    assert resolver.matches == matches
    assert resolver.corpus_size == len(RECORDS)


@pytest.mark.parametrize("er_type", [ERType.DIRTY, ERType.CLEAN_CLEAN])
def test_a_tier_raising_inside_a_decided_probe_leaves_no_trace(er_type):
    tier = FlakyTier()
    resolver = session(er_type, tier)
    before = state(resolver)
    tier.failing = True
    with pytest.raises(RuntimeError, match="tier failed"):
        resolver.resolve_one(PROBE, source=1, ingest=False)
    assert state(resolver) == before
    tier.failing = False
    fresh = session(er_type, FlakyTier())
    assert resolver.resolve_one(PROBE, source=1, ingest=False) == (
        fresh.resolve_one(PROBE, source=1, ingest=False)
    )


def test_a_clean_clean_probe_pairs_only_across_sources():
    resolver = session(ERType.CLEAN_CLEAN)
    for source in (0, 1):
        probed = resolver.resolve_one(PROBE, source=source, ingest=False)
        assert probed
        probe_id = len(RECORDS)
        for comparison in probed:
            assert comparison.j == probe_id
            assert resolver.store.source_of(comparison.i) == 1 - source
