"""The incremental/batch parity property (the subsystem's acceptance bar).

Ingesting a dataset in K chunks through the incremental path must yield

* the identical resolved pair *set* as one batch ``fit()`` over the
  union (every comparison surfaces exactly once, when the later of its
  two profiles arrives), and
* on a final full re-ranking (``stream()``), the identical emission
  *order* - weight for weight, bit for bit -

for K in {1, 2, 5}, on every available backend, for both Dirty and
Clean-clean ER, across all five weighting schemes.
"""

from __future__ import annotations

import pytest

from repro import ERPipeline
from repro.core.profiles import ProfileStore
from repro.incremental.store import MutableProfileStore

from tests.incremental.conftest import BACKENDS

#: First-N window for the emission-order check (acceptance: N=1000).
ORDER_WINDOW = 1000


def batch_pipeline(weighting: str, backend: str) -> ERPipeline:
    return (
        ERPipeline()
        .blocking("token", purge=None, filter_ratio=None)
        .meta(weighting)
        .method("ONLINE")
        .backend(backend)
    )


def batch_emission(store: ProfileStore, weighting: str, backend: str):
    return list(batch_pipeline(weighting, backend).fit(store).stream())


def chunked_ingestion(store: ProfileStore, k: int, weighting: str, backend: str):
    """Ingest ``store`` in ``k`` chunks; returns (emissions, resolver)."""
    pipeline = (
        ERPipeline()
        .blocking("token", purge=None, filter_ratio=None)
        .meta(weighting)
        .backend(backend)
        .incremental()
    )
    resolver = pipeline.fit(MutableProfileStore([], store.er_type))
    emitted = []
    n = len(store)
    size = (n + k - 1) // k
    for start in range(0, n, size):
        emitted.extend(resolver.add_profiles(store.profiles[start : start + size]))
    return emitted, resolver


def emission_key(comparisons):
    return [(c.i, c.j, c.weight) for c in comparisons]


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("er_type", ["dirty", "clean_clean"])
@pytest.mark.parametrize("k", [1, 2, 5])
def test_chunked_ingestion_matches_batch_fit(
    request, backend, er_type, k
):
    store = request.getfixturevalue(f"{er_type}_store")
    batch = batch_emission(store, "ARCS", backend)
    assert batch, "sanity: the corpus must entail comparisons"

    emitted, resolver = chunked_ingestion(store, k, "ARCS", backend)

    # (1) identical resolved pair set, each pair emitted exactly once.
    assert len(emitted) == len({c.pair for c in emitted})
    assert {c.pair for c in emitted} == {c.pair for c in batch}

    # (2) identical first-N emission order on a full re-ranking.
    final = []
    for comparison in resolver.stream():
        final.append(comparison)
        if len(final) >= ORDER_WINDOW:
            break
    assert emission_key(final) == emission_key(batch[:ORDER_WINDOW])


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("weighting", ["ARCS", "CBS", "ECBS", "JS", "EJS"])
def test_parity_holds_for_every_weighting_scheme(
    clean_clean_store, backend, weighting
):
    batch = batch_emission(clean_clean_store, weighting, backend)
    emitted, resolver = chunked_ingestion(clean_clean_store, 2, weighting, backend)
    assert {c.pair for c in emitted} == {c.pair for c in batch}
    assert emission_key(resolver.stream()) == emission_key(batch)


@pytest.mark.skipif(len(BACKENDS) < 2, reason="needs both backends")
@pytest.mark.parametrize("er_type", ["dirty", "clean_clean"])
@pytest.mark.parametrize("weighting", ["ARCS", "CBS", "ECBS", "JS", "EJS"])
@pytest.mark.parametrize("chunk", [1, 5, 100])
def test_backends_agree_bit_for_bit(request, er_type, weighting, chunk):
    """python and numpy sessions fed the same chunks emit identical
    ``add_profiles`` lists - every scheme, both tasks, from
    one-at-a-time arrivals to bulk loads."""
    store = request.getfixturevalue(f"{er_type}_store")
    k = -(-len(store) // chunk)
    reference, _ = chunked_ingestion(store, k, weighting, "python")
    vectorized, _ = chunked_ingestion(store, k, weighting, "numpy")
    assert reference
    assert emission_key(reference) == emission_key(vectorized)


@pytest.mark.parametrize("backend", BACKENDS)
def test_ingestion_emission_is_ranked_per_batch(dirty_store, backend):
    """Within each ingested batch, emission follows (-weight, i, j)."""
    pipeline = (
        ERPipeline()
        .blocking("token", purge=None, filter_ratio=None)
        .backend(backend)
        .incremental()
    )
    resolver = pipeline.fit(MutableProfileStore([], dirty_store.er_type))
    half = len(dirty_store) // 2
    for chunk in (dirty_store.profiles[:half], dirty_store.profiles[half:]):
        batch = resolver.add_profiles(chunk)
        ranks = [(-c.weight, c.i, c.j) for c in batch]
        assert ranks == sorted(ranks)
