"""IncrementalWeighter: one definition of the schemes, lazily fed."""

from __future__ import annotations

import pytest

from repro import ERPipeline
from repro.incremental.index import IncrementalTokenIndex
from repro.incremental.store import MutableProfileStore
from repro.incremental.weights import IncrementalWeighter
from repro.metablocking.profile_index import ProfileIndex
from repro.metablocking.weights import make_scheme

SCHEMES = ["ARCS", "CBS", "ECBS", "JS", "EJS"]


@pytest.mark.parametrize("purge_ratio", [None, 0.2])
@pytest.mark.parametrize("er_type", ["dirty", "clean_clean"])
@pytest.mark.parametrize("weighting", SCHEMES)
def test_live_weight_is_the_batch_scheme_over_a_snapshot(
    request, weighting, er_type, purge_ratio
):
    """The "one definition" property: a live pair weight is, bit for
    bit, what the batch scheme computes over the same blocks."""
    source = request.getfixturevalue(f"{er_type}_store")
    store = MutableProfileStore(source.profiles, source.er_type)
    index = IncrementalTokenIndex(store)
    weighter = IncrementalWeighter(index, weighting, purge_ratio)
    limit = weighter.purge_limit()
    batch = make_scheme(weighting, ProfileIndex(index.snapshot_blocks(limit)))
    pairs = [
        (i, j)
        for i, j, _ in index.candidate_pairs(range(0, len(store), 7), limit)
    ]
    assert pairs
    for i, j in pairs:
        assert weighter.pair_weight(i, j) == batch.weight(i, j)
    # a pair sharing no block weighs nothing on either side
    store.add_profiles([{"x": "zzzunseen"}], sources=[0])
    index.add_profiles(store.profiles[-1:])
    assert weighter.pair_weight(0, len(store) - 1) == 0.0


@pytest.mark.parametrize("weighting", SCHEMES)
def test_block_count_is_scanned_only_for_schemes_that_read_it(
    monkeypatch, dirty_store, weighting
):
    """Regression: |B| under purging is an O(|B|) scan; it used to run
    on every generation change and after every probe, whatever the
    scheme.  Now only a formula that reads |B| triggers it, at most once
    per generation or probe."""
    scans = []
    original = IncrementalTokenIndex.block_count

    def counting(self, purge_limit=None):
        scans.append(purge_limit)
        return original(self, purge_limit)

    monkeypatch.setattr(IncrementalTokenIndex, "block_count", counting)
    profiles = dirty_store.profiles
    session = (
        ERPipeline()
        .meta(weighting)
        .incremental(purge=0.5)
        .fit(MutableProfileStore(profiles[:40], dirty_store.er_type))
    )
    operations = 0
    for start in range(40, 70, 5):
        assert session.add_profiles(profiles[start : start + 5])
        assert session.resolve_one(profiles[start + 6], ingest=False)
        operations += 2
    if weighting == "ECBS":
        assert 0 < len(scans) <= operations
    else:
        assert scans == []
