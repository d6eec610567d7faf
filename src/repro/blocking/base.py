"""Blocks and block collections.

A *block* groups profiles that share a blocking key; only intra-block pairs
are candidate comparisons (Section 3).  Cardinality depends on the ER task:

* Dirty ER: ``|b| * (|b| - 1) / 2`` pairs;
* Clean-clean ER: only cross-source pairs, ``|b ^ P1| * |b ^ P2|``.

The paper's notation: ``|b|`` is block size, ``||b||`` its cardinality,
``|B|`` the number of blocks and ``||B||`` the aggregate cardinality.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from repro.core.comparisons import Comparison
from repro.core.profiles import ERType, ProfileStore


class Block:
    """A single block: a key and the ids of the profiles it contains.

    For Clean-clean tasks the ids of the two sources are kept separately so
    that cardinality and comparison enumeration stay linear.
    """

    __slots__ = ("key", "ids", "left_ids", "right_ids", "block_id")

    def __init__(
        self,
        key: str,
        ids: Sequence[int],
        store: ProfileStore,
        block_id: int = -1,
    ) -> None:
        self.key = key
        self.ids: tuple[int, ...] = tuple(ids)
        self.block_id = block_id
        if store.er_type is ERType.CLEAN_CLEAN:
            self.left_ids = tuple(i for i in self.ids if store.source_of(i) == 0)
            self.right_ids = tuple(i for i in self.ids if store.source_of(i) == 1)
        else:
            self.left_ids = self.ids
            self.right_ids = ()

    @property
    def size(self) -> int:
        """|b| - the number of profiles in the block."""
        return len(self.ids)

    def cardinality(self, er_type: ERType) -> int:
        """||b|| - the number of comparisons the block yields."""
        if er_type is ERType.CLEAN_CLEAN:
            return len(self.left_ids) * len(self.right_ids)
        n = len(self.ids)
        return n * (n - 1) // 2

    def comparisons(self, er_type: ERType) -> Iterator[Comparison]:
        """All valid comparisons of this block, weight 0, canonical order."""
        if er_type is ERType.CLEAN_CLEAN:
            for i in self.left_ids:
                for j in self.right_ids:
                    yield Comparison.make(i, j)
        else:
            ids = self.ids
            for a in range(len(ids)):
                for b in range(a + 1, len(ids)):
                    yield Comparison.make(ids[a], ids[b])

    def __contains__(self, profile_id: int) -> bool:
        return profile_id in self.ids

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Block({self.key!r}, size={self.size})"


class BlockCollection:
    """An ordered collection of blocks over one profile store."""

    __slots__ = ("blocks", "store")

    def __init__(self, blocks: Iterable[Block], store: ProfileStore) -> None:
        self.blocks: list[Block] = list(blocks)
        self.store = store

    # -- container protocol ----------------------------------------------------

    def __len__(self) -> int:
        """|B| - the number of blocks."""
        return len(self.blocks)

    def __iter__(self) -> Iterator[Block]:
        return iter(self.blocks)

    def __getitem__(self, index: int) -> Block:
        return self.blocks[index]

    # -- aggregate statistics ---------------------------------------------------

    def cardinalities(self) -> list[int]:
        """||b|| of every block, in collection order.

        Computed once and reused by the workflow stages (scheduling,
        filtering) whose sort keys would otherwise recompute the
        cardinality O(|B| log |B|) times.
        """
        er_type = self.store.er_type
        return [block.cardinality(er_type) for block in self.blocks]

    def aggregate_cardinality(self) -> int:
        """||B|| - total comparisons entailed by the collection."""
        return sum(self.cardinalities())

    def distinct_pairs(self) -> set[tuple[int, int]]:
        """The deduplicated candidate pair set (batch ER's search space)."""
        er_type = self.store.er_type
        pairs: set[tuple[int, int]] = set()
        for block in self.blocks:
            for comparison in block.comparisons(er_type):
                pairs.add(comparison.pair)
        return pairs

    # -- transformation --------------------------------------------------------

    def assign_block_ids(self) -> None:
        """Stamp each block with its current position (used after scheduling)."""
        for index, block in enumerate(self.blocks):
            block.block_id = index

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BlockCollection({len(self.blocks)} blocks)"


def drop_singleton_blocks(collection: BlockCollection) -> BlockCollection:
    """Remove blocks that yield no comparison (size < 2 or single-source)."""
    cardinalities = collection.cardinalities()
    return BlockCollection(
        (
            block
            for block, cardinality in zip(collection.blocks, cardinalities)
            if cardinality > 0
        ),
        collection.store,
    )
