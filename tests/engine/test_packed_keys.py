"""The engine's groupings sort packed unique keys; the stable sorts they
replaced are the oracle.

Where the pairs a grouping orders are unique by construction, one sort
of ``major * factor + minor`` puts them in exactly the order the stable
argsort or lexsort it replaced did.  Each site is checked here against
that old formulation - over generated stores, the test fixtures and a
block collection built by hand - and the keys are shown to fit int64 at
the largest store size ``BENCH_scale.json`` records.
"""

from __future__ import annotations

import json
import pathlib

import pytest
from hypothesis import given, settings

np = pytest.importorskip("numpy")

from repro.blocking.base import Block, BlockCollection  # noqa: E402
from repro.blocking.scheduling import block_scheduling  # noqa: E402
from repro.blocking.substrate import SubstrateSpec  # noqa: E402
from repro.blocking.token_blocking import TokenBlocking  # noqa: E402
from repro.core.profiles import ProfileStore  # noqa: E402
from repro.datasets.synthetic import generate_synthetic  # noqa: E402
from repro.engine.csr import ArrayProfileIndex  # noqa: E402
from repro.engine.substrate import ArraySubstrate  # noqa: E402
from tests.test_properties import token_stores  # noqa: E402

BENCH_SCALE = pathlib.Path(__file__).parents[2] / "BENCH_scale.json"


# -- the stable formulations the packed keys replaced -------------------------


def pair_ids(substrate):
    """Every ``(profile, token)`` pair's token id."""
    return substrate._rank[substrate._pair_tokens]


def pair_profiles(substrate):
    """Every ``(profile, token)`` pair's profile, from the sweep's CSR."""
    counts = np.diff(substrate._pair_indptr)
    return np.repeat(np.arange(len(counts)), counts)


def stable_postings(substrate):
    """Profiles grouped by token name, in ``sorted(names)`` order, pair
    order kept."""
    names = substrate._token_names()
    rank = np.empty(len(names), dtype=np.int64)
    rank[sorted(range(len(names)), key=names.__getitem__)] = np.arange(len(names))
    order = np.argsort(rank[pair_ids(substrate)], kind="stable")
    return pair_profiles(substrate)[order]


def stable_token_rows(substrate):
    """Each profile's token ids, ascending: the ``(profile, token)`` lexsort."""
    tokens, profiles = pair_ids(substrate), pair_profiles(substrate)
    return tokens[np.lexsort((tokens, profiles))]


def stable_filter(substrate, profiles, sizes, ratio):
    """Block Filtering's survivors and block sizes (no sources): each
    profile's assignments ranked by the ``(profile, block rank)`` lexsort."""
    block_count = len(sizes)
    rank = np.empty(block_count, dtype=np.int64)
    rank[np.argsort(sizes * (sizes - 1) // 2, kind="stable")] = np.arange(block_count)
    owner = np.repeat(np.arange(block_count), sizes)
    by_profile = np.lexsort((rank[owner], profiles))
    sorted_profiles = profiles[by_profile]
    counts = np.bincount(profiles, minlength=len(substrate.store))
    starts = np.cumsum(counts) - counts
    position = np.arange(len(profiles)) - starts[sorted_profiles]
    kept = np.empty(len(profiles), dtype=bool)
    kept[by_profile] = position < np.ceil(ratio * counts)[sorted_profiles]
    new_sizes = np.bincount(owner[kept], minlength=block_count)
    return profiles[kept & (new_sizes >= 2)[owner]], new_sizes[new_sizes >= 2]


def stable_transpose(index):
    """The profile -> blocks CSR entries: a stable argsort by profile."""
    sizes = np.diff(index.bp_indptr)
    owners = np.repeat(np.arange(len(sizes)), sizes)
    return owners[np.argsort(index.bp_indices, kind="stable")]


# -- every site equals its oracle ----------------------------------------------


def assert_sites_match_the_stable_sorts(store):
    substrate = ArraySubstrate(store, SubstrateSpec())
    indptr, profiles = substrate._all_postings()
    np.testing.assert_array_equal(profiles, stable_postings(substrate))
    np.testing.assert_array_equal(
        substrate.token_rows()[1], stable_token_rows(substrate)
    )
    sizes = np.diff(indptr)
    survivors, _, survivor_sizes, _ = substrate._filter(
        profiles, np.arange(len(sizes)), sizes, None
    )
    expected, expected_sizes = stable_filter(substrate, profiles, sizes, 0.8)
    np.testing.assert_array_equal(survivors, expected)
    np.testing.assert_array_equal(survivor_sizes, expected_sizes)
    for index in (
        substrate.profile_index("schedule"),
        ArrayProfileIndex(block_scheduling(TokenBlocking().build(store))),
    ):
        np.testing.assert_array_equal(index.pb_indices, stable_transpose(index))


@given(token_stores())
@settings(max_examples=50, deadline=None)
def test_generated_stores_group_like_the_stable_sorts(store):
    assert_sites_match_the_stable_sorts(store)


@pytest.mark.parametrize("fixture", ["dirty_dataset", "clean_clean_store"])
def test_fixture_stores_group_like_the_stable_sorts(fixture, request):
    store = request.getfixturevalue(fixture)
    assert_sites_match_the_stable_sorts(getattr(store, "store", store))


def test_hand_built_collection_transposes_like_the_stable_sort():
    """Blocks in no id order, sharing profiles, one of them never blocked:
    the ``ArrayProfileIndex(collection)`` path no substrate feeds."""
    store = ProfileStore.from_attribute_maps([{"a": str(k)} for k in range(7)])
    members = [[4, 1, 3], [3, 0], [5, 3, 1, 2], [2, 0], [1, 4]]
    collection = BlockCollection(
        [Block(f"k{n}", ids, store) for n, ids in enumerate(members)], store
    )
    index = ArrayProfileIndex(collection)
    np.testing.assert_array_equal(index.pb_indices, stable_transpose(index))
    assert np.diff(index.pb_indptr).tolist() == [2, 3, 2, 3, 2, 1, 0]


def test_packed_keys_fit_int64_at_the_largest_recorded_store():
    """A packed key is below ``profiles * factor``, and the factor (the
    tokens, blocks or profiles) is at most the ``(profile, token)``
    pair count.  At the largest store ``BENCH_scale.json`` records, even
    a hundred times the pairs per profile of the same generator's output
    keeps every key below 2**63."""
    recorded = json.loads(BENCH_SCALE.read_text())
    profiles = max(run["profiles"] for run in recorded["runs"])
    assert profiles == 1_000_000
    sample = generate_synthetic(n_profiles=2_000, seed=recorded["seed"]).store
    substrate = ArraySubstrate(sample, SubstrateSpec())
    substrate._sweep()
    pairs_per_profile = substrate._pair_tokens.size / len(sample)
    factor = 100 * pairs_per_profile * profiles
    assert profiles * factor < 2**63
