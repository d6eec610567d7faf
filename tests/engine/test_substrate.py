"""ArraySubstrate parity: CSR-built blocking vs the reference workflow.

The array substrate goes from the ProfileStore straight to CSR postings
(no ``Block`` objects, no dict-of-lists) and must reproduce the
reference Token Blocking -> Purging -> Filtering pipeline bit-identically:
same blocks, same processing orders, same Neighbor List.
"""

from __future__ import annotations

import random

import pytest

np = pytest.importorskip("numpy")

from repro.blocking.scheduling import block_scheduling  # noqa: E402
from repro.blocking.substrate import (  # noqa: E402
    ReferenceSubstrate,
    SubstrateSpec,
)
from repro.blocking.workflow import token_blocking_workflow  # noqa: E402
from repro.core.profiles import ProfileStore  # noqa: E402
from repro.core.tokenization import Tokenizer  # noqa: E402
from repro.engine.substrate import ArraySubstrate  # noqa: E402
from repro.metablocking.profile_index import ProfileIndex  # noqa: E402
from repro.neighborlist.neighbor_list import NeighborList  # noqa: E402

from .conftest import csr_rows  # noqa: E402

RATIO_COMBOS = [
    (0.1, 0.8),
    (None, 0.8),
    (0.1, None),
    (None, None),
    (0.3, 0.5),
    (1.0, 1.0),
    (0.05, 0.33),
]


def block_signature(collection):
    return [(block.key, list(block.ids)) for block in collection.blocks]


def words(rng: random.Random, count: int) -> str:
    pool = ["red", "blue", "lime", "teal", "gray", "pink", "cyan", "gold"]
    return " ".join(rng.choice(pool) for _ in range(count))


@pytest.fixture(params=["dirty", "clean_clean"])
def store(request, dirty_dataset, clean_clean_store) -> ProfileStore:
    if request.param == "dirty":
        return dirty_dataset.store
    return clean_clean_store


class TestBlockParity:
    @pytest.mark.parametrize("purge,filter_", RATIO_COMBOS)
    def test_blocks_match_reference_workflow(self, store, purge, filter_):
        spec = SubstrateSpec(purge_ratio=purge, filter_ratio=filter_)
        substrate = ArraySubstrate(store, spec)
        expected = token_blocking_workflow(
            store, purge_ratio=purge, filter_ratio=filter_
        )
        assert block_signature(substrate.blocks()) == block_signature(expected)

    def test_blocks_match_reference_substrate(self, store):
        spec = SubstrateSpec()
        array = ArraySubstrate(store, spec)
        reference = ReferenceSubstrate(store, spec)
        assert block_signature(array.blocks()) == block_signature(
            reference.blocks()
        )


class TestIndexParity:
    def test_schedule_index_matches_reference(self, store):
        substrate = ArraySubstrate(store, SubstrateSpec())
        index = substrate.profile_index("schedule")
        scheduled = block_scheduling(token_blocking_workflow(store))
        reference = ProfileIndex(scheduled)
        assert index.block_count() == reference.block_count()
        assert (
            index.block_cardinalities.tolist()
            == reference.block_cardinalities
        )
        assert csr_rows(index.bp_indptr, index.bp_indices) == [
            list(block.ids) for block in scheduled.blocks
        ]
        assert csr_rows(index.pb_indptr, index.pb_indices) == [
            list(reference.blocks_of(pid)) for pid in range(len(store))
        ]

    def test_alpha_index_matches_key_order(self, store):
        substrate = ArraySubstrate(store, SubstrateSpec())
        index = substrate.profile_index("alpha")
        final = token_blocking_workflow(store)
        ordered = sorted(final.blocks, key=lambda block: block.key)
        assert index.block_count() == len(ordered)
        assert csr_rows(index.bp_indptr, index.bp_indices) == [
            list(block.ids) for block in ordered
        ]

    def test_indexes_are_cached_per_order(self, store):
        substrate = ArraySubstrate(store, SubstrateSpec())
        assert substrate.profile_index("schedule") is substrate.profile_index(
            "schedule"
        )
        assert substrate.profile_index("alpha") is not substrate.profile_index(
            "schedule"
        )

    def test_unknown_order_rejected(self, store):
        substrate = ArraySubstrate(store, SubstrateSpec())
        with pytest.raises(ValueError, match="unknown substrate order"):
            substrate.profile_index("sideways")


class TestNeighborListParity:
    @pytest.mark.parametrize(
        "tie_order,seed", [("insertion", 0), ("random", 0), ("random", 12345)]
    )
    def test_matches_schema_agnostic(self, store, tie_order, seed):
        substrate = ArraySubstrate(store, SubstrateSpec())
        built = substrate.neighbor_list(tie_order, seed)
        expected = NeighborList.schema_agnostic(
            store, tie_order=tie_order, seed=seed
        )
        assert built.entries == expected.entries
        assert built.keys == expected.keys

    def test_unknown_tie_order_rejected(self, store):
        substrate = ArraySubstrate(store, SubstrateSpec())
        with pytest.raises(ValueError, match="tie_order"):
            substrate.neighbor_list("sorted", 0)


class TestSingleSweep:
    def test_all_views_cost_one_sweep(self, store):
        substrate = ArraySubstrate(store, SubstrateSpec())
        assert substrate.sweeps == 0
        substrate.blocks()
        substrate.profile_index("schedule")
        substrate.profile_index("alpha")
        substrate.neighbor_list("insertion", 0)
        substrate.neighbor_list("random", 7)
        assert substrate.sweeps == 1


class TestBoundaryCases:
    def test_purge_keeps_blocks_exactly_at_the_limit(self):
        # 20 profiles, ratio 0.1 -> limit 2.0: size-2 blocks survive
        # (<=, float compare), size-3 blocks go.
        shared_pair = [{"a": "pairtok filler%d" % k} for k in range(2)]
        shared_triple = [{"a": "tripletok filler%d" % (k + 2)} for k in range(3)]
        rest = [{"a": "only%d" % k} for k in range(15)]
        store = ProfileStore.from_attribute_maps(
            shared_pair + shared_triple + rest
        )
        spec = SubstrateSpec(purge_ratio=0.1, filter_ratio=None)
        substrate = ArraySubstrate(store, spec)
        keys = [block.key for block in substrate.blocks().blocks]
        assert "pairtok" in keys
        assert "tripletok" not in keys
        expected = token_blocking_workflow(
            store, purge_ratio=0.1, filter_ratio=None
        )
        assert block_signature(substrate.blocks()) == block_signature(expected)

    @pytest.mark.parametrize("ratio", [0.2, 0.25, 0.5, 0.75, 0.8, 1.0])
    def test_filter_ceil_retention_edges(self, ratio):
        # Profiles appear in 1..6 blocks, hitting ceil() on both exact
        # multiples (0.5 * 4 = 2) and fractional quotas (0.8 * 6 = 4.8 -> 5).
        rng = random.Random(31)
        store = ProfileStore.from_attribute_maps(
            {"a": words(rng, rng.randrange(1, 7))} for _ in range(40)
        )
        spec = SubstrateSpec(purge_ratio=None, filter_ratio=ratio)
        substrate = ArraySubstrate(store, spec)
        expected = token_blocking_workflow(
            store, purge_ratio=None, filter_ratio=ratio
        )
        assert block_signature(substrate.blocks()) == block_signature(expected)

    def test_singleton_blocks_dropped_after_filtering(self):
        # Aggressive filtering leaves some blocks with one member; both
        # paths must drop them (cardinality 0).
        rng = random.Random(8)
        store = ProfileStore.from_attribute_maps(
            {"a": words(rng, 3)} for _ in range(30)
        )
        spec = SubstrateSpec(purge_ratio=None, filter_ratio=0.2)
        substrate = ArraySubstrate(store, spec)
        expected = token_blocking_workflow(
            store, purge_ratio=None, filter_ratio=0.2
        )
        assert block_signature(substrate.blocks()) == block_signature(expected)
        er_type = store.er_type
        assert all(
            block.cardinality(er_type) > 0
            for block in substrate.blocks().blocks
        )

    def test_clean_clean_one_sided_blocks_dropped(self):
        left = [
            {"a": "leftonly shared%d" % (k % 2)} for k in range(6)
        ]
        right = [
            {"a": "rightonly shared%d" % (k % 2)} for k in range(6)
        ]
        store = ProfileStore.clean_clean(left, right)
        substrate = ArraySubstrate(
            store, SubstrateSpec(purge_ratio=None, filter_ratio=None)
        )
        keys = [block.key for block in substrate.blocks().blocks]
        # Tokens seen on one side only never become blocks, however many
        # profiles share them.
        assert "leftonly" not in keys
        assert "rightonly" not in keys
        assert "shared0" in keys and "shared1" in keys
        expected = token_blocking_workflow(
            store, purge_ratio=None, filter_ratio=None
        )
        assert block_signature(substrate.blocks()) == block_signature(expected)


class TestTokenizerPaths:
    def test_non_ascii_folding_matches_reference(self):
        # U+212A (Kelvin sign) lowercases to plain "k"; dotted capital I
        # lowercases to "i" + combining dot - both bypass the ASCII fast
        # path and must intern identically on both substrates.
        store = ProfileStore.from_attribute_maps(
            [
                {"name": "Kelvin scale"},
                {"name": "kelvin scale"},
                {"name": "İstanbul kelvin"},
                {"name": "i̇stanbul heat"},
                {"name": "plain ascii row"},
                {"name": "plain ascii row"},
            ]
        )
        spec = SubstrateSpec(purge_ratio=None, filter_ratio=None)
        array = ArraySubstrate(store, spec)
        reference = ReferenceSubstrate(store, spec)
        assert block_signature(array.blocks()) == block_signature(
            reference.blocks()
        )
        assert any(
            block.key == "kelvin" and len(block.ids) >= 2
            for block in array.blocks().blocks
        )
        built = array.neighbor_list("insertion", 0)
        expected = reference.neighbor_list("insertion", 0)
        assert built.entries == expected.entries
        assert built.keys == expected.keys

    def test_custom_tokenizer_flows_through_spec(self):
        upper = Tokenizer(lowercase=False)
        store = ProfileStore.from_attribute_maps(
            [{"a": "Foo bar"}, {"a": "Foo baz"}, {"a": "foo qux"}]
        )
        spec = SubstrateSpec(
            tokenizer=upper, purge_ratio=None, filter_ratio=None
        )
        substrate = ArraySubstrate(store, spec)
        expected = token_blocking_workflow(
            store, tokenizer=upper, purge_ratio=None, filter_ratio=None
        )
        assert block_signature(substrate.blocks()) == block_signature(expected)
        assert [block.key for block in substrate.blocks().blocks] == ["Foo"]
