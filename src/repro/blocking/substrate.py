"""The blocking substrate - one tokenization sweep per resolution session.

Every consumer of the Token Blocking workflow (the equality-based methods
PPS/PBS, the incremental ONLINE baseline, the similarity-based PSN methods
and Meta-blocking pruning) starts from the same raw material: the stream
of ``(token, profile_id)`` pairs produced by tokenizing the store once.
Before this module each consumer re-tokenized on its own - the dominant
cost of the fast path once emission was vectorized.

A *substrate* is built once per session through the backend seam
(:meth:`repro.engine.Backend.blocking_substrate`) and caches that
single sweep, deriving every downstream structure from it lazily:

* :meth:`ReferenceSubstrate.blocks` - Token Blocking -> Block Purging ->
  Block Filtering -> singleton drop, byte-identical to
  :func:`repro.blocking.workflow.token_blocking_workflow`;
* :meth:`ReferenceSubstrate.profile_index` - the reference
  :class:`~repro.metablocking.profile_index.ProfileIndex` over the final
  blocks in schedule or alphabetical processing order;
* :meth:`ReferenceSubstrate.neighbor_list` - the schema-agnostic
  :class:`~repro.neighborlist.neighbor_list.NeighborList`, which by
  design sees the *unpurged, unfiltered* pair stream (the PSN methods
  operate on every distinct profile token).

This module is the python backend's implementation; the array-native
equivalent lives in :mod:`repro.engine.substrate`, whose one sweep
kernel the ``numpy-parallel`` backend runs sharded.  Both satisfy
:class:`repro.contracts.BlockingSubstrate` and their structures are
bit-identical (parity-tested).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.blocking.base import BlockCollection, drop_singleton_blocks
from repro.blocking.filtering import BlockFiltering
from repro.blocking.purging import BlockPurging
from repro.blocking.scheduling import block_scheduling
from repro.blocking.token_blocking import TokenBlocking
from repro.core.profiles import ProfileStore
from repro.core.tokenization import DEFAULT_TOKENIZER, Tokenizer, token_stream
from repro.errors import ConfigError
from repro.neighborlist.neighbor_list import NeighborList

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.contracts import BlockingSubstrate
    from repro.engine import Backend
    from repro.metablocking.profile_index import ProfileIndex

#: The two processing orders a substrate serves indexes in.
SUBSTRATE_ORDERS: tuple[str, ...] = ("schedule", "alpha")


@dataclass(frozen=True)
class SubstrateSpec:
    """The workflow knobs one substrate is built for.

    Mirrors :func:`~repro.blocking.workflow.token_blocking_workflow`:
    ``purge_ratio``/``filter_ratio`` of ``None`` skip that step, any
    other value must lie in (0, 1] - checked here, once, for both
    substrates.  The Neighbor List ignores both ratios by construction.
    """

    tokenizer: Tokenizer = DEFAULT_TOKENIZER
    purge_ratio: float | None = 0.1
    filter_ratio: float | None = 0.8

    def __post_init__(self) -> None:
        for name in ("purge_ratio", "filter_ratio"):
            ratio = getattr(self, name)
            if ratio is not None and not 0.0 < ratio <= 1.0:
                raise ConfigError(f"{name} must be in (0, 1], got {ratio!r}")


def method_substrate(
    backend: "Backend",
    store: ProfileStore,
    substrate: "BlockingSubstrate | None",
    tokenizer: Tokenizer = DEFAULT_TOKENIZER,
    purge_ratio: float | None = 0.1,
    filter_ratio: float | None = 0.8,
) -> "BlockingSubstrate":
    """The substrate a progressive method reads.

    The injected ``substrate`` when there is one, else a new one the
    ``backend`` builds from the workflow knobs.  An injected substrate
    must be the backend's own kind: the array methods read CSR postings
    and the reference methods read ``Block`` objects, and neither
    converts the other's.
    """
    if substrate is None:
        built: "BlockingSubstrate" = backend.blocking_substrate(
            store, SubstrateSpec(tokenizer, purge_ratio, filter_ratio)
        )
        return built
    if substrate.vectorized != backend.vectorized:
        raise ConfigError(
            f"a {type(substrate).__name__} cannot feed backend "
            f"{backend.name!r}: build the substrate with that backend's "
            "blocking_substrate()"
        )
    return substrate


def check_order(order: str) -> str:
    """Validate a processing-order name (shared by all substrates)."""
    if order not in SUBSTRATE_ORDERS:
        raise ValueError(
            f"unknown substrate order {order!r}; expected one of "
            f"{SUBSTRATE_ORDERS}"
        )
    return order


class ReferenceSubstrate:
    """The python backend's blocking substrate (reference semantics).

    Caches the raw ``(token, profile_id)`` pairs of one tokenization
    sweep; every derived structure replays the cached pairs instead of
    touching the store again.  ``sweeps`` counts actual sweeps - the
    single-build regression test asserts it never exceeds 1 per session.
    """

    #: Reference structures, not CSR arrays: only the python backend's
    #: methods read this substrate.
    vectorized = False

    def __init__(self, store: ProfileStore, spec: SubstrateSpec) -> None:
        self.store = store
        self.spec = spec
        self.sweeps = 0
        self._pairs: list[tuple[str, int]] | None = None
        self._blocks: BlockCollection | None = None
        self._collections: dict[str, BlockCollection] = {}
        self._indexes: dict[str, Any] = {}
        self._neighbor_lists: dict[tuple[str, int | None], NeighborList] = {}

    # -- the single sweep --------------------------------------------------

    def token_pairs(self) -> list[tuple[str, int]]:
        """The ``(token, profile_id)`` pairs of the cached sweep.

        Profile-major, distinct tokens per profile in first-appearance
        order - exactly :func:`repro.core.tokenization.token_stream`.
        """
        if self._pairs is None:
            self.sweeps += 1
            self._pairs = list(token_stream(self.store, self.spec.tokenizer))
        return self._pairs

    # -- derived structures ------------------------------------------------

    def blocks(self) -> BlockCollection:
        """The blocked collection after purging/filtering (workflow order).

        Identical to ``token_blocking_workflow(store, tokenizer,
        purge_ratio, filter_ratio)`` - same classes, same order - but
        grouping the cached pairs instead of re-tokenizing.  The
        collection is cached; consumers share its ``Block`` objects.
        """
        if self._blocks is None:
            collection = TokenBlocking.build_from_pairs(
                self.token_pairs(), self.store
            )
            if self.spec.purge_ratio is not None:
                collection = BlockPurging(self.spec.purge_ratio).apply(collection)
            if self.spec.filter_ratio is not None:
                collection = BlockFiltering(self.spec.filter_ratio).apply(
                    collection
                )
            self._blocks = drop_singleton_blocks(collection)
        return self._blocks

    def ordered_blocks(self, order: str = "schedule") -> BlockCollection:
        """The final blocks in processing ``order``, ids stamped.

        ``"schedule"`` is Block Scheduling's ``(cardinality, key)``
        order (PPS/PBS); ``"alpha"`` is alphabetical key order (ONLINE).
        The orders share ``Block`` objects with :meth:`blocks`, so the
        ``block_id`` stamp reflects whichever order was requested last -
        consumers capture ids at index-construction time.
        """
        check_order(order)
        collection = self._collections.get(order)
        if collection is None:
            if order == "schedule":
                collection = block_scheduling(self.blocks())
            else:
                collection = BlockCollection(
                    sorted(self.blocks().blocks, key=lambda block: block.key),
                    self.store,
                )
                collection.assign_block_ids()
            self._collections[order] = collection
        else:
            # Re-stamp: another order (or a pruning run) may have
            # re-assigned the shared blocks' ids since.
            collection.assign_block_ids()
        return collection

    def profile_index(self, order: str = "schedule") -> "ProfileIndex":
        """The reference Profile Index over :meth:`ordered_blocks`."""
        check_order(order)
        index = self._indexes.get(order)
        if index is None:
            from repro.metablocking.profile_index import ProfileIndex

            index = ProfileIndex(self.ordered_blocks(order))
            self._indexes[order] = index
        return index  # type: ignore[no-any-return]

    def neighbor_list(
        self, tie_order: str = "insertion", seed: int | None = 0
    ) -> NeighborList:
        """The schema-agnostic Neighbor List from the cached pairs.

        Identical to ``NeighborList.schema_agnostic(store, tokenizer,
        tie_order, seed)``: the full pair stream, no purging and no
        filtering (count-1 tokens included).
        """
        key = (tie_order, seed)
        cached = self._neighbor_lists.get(key)
        if cached is None:
            cached = NeighborList.from_key_pairs(
                self.token_pairs(), tie_order=tie_order, seed=seed
            )
            self._neighbor_lists[key] = cached
        return cached
