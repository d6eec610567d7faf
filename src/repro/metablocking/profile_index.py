"""The Profile Index: profile id -> sorted ids of the blocks containing it.

PBS and PPS (Section 5.2) never materialize the Blocking Graph; instead
they derive edge weights and repeated-comparison checks from this inverted
index.  Two properties of the index matter (both from the paper):

* block ids reflect the *scheduled* order (ascending cardinality), so the
  id of the least common block of two profiles tells where the pair is
  first encountered - the **LeCoBI** condition;
* each profile's block-id list is sorted ascending, so common blocks are
  found by a linear merge of two sorted lists.
"""

from __future__ import annotations

from typing import Sequence

from repro.blocking.base import BlockCollection


class ProfileIndex:
    """Inverted index over a scheduled block collection.

    Parameters
    ----------
    collection:
        Blocks whose ``block_id`` fields are their positions in the
        processing order (see :func:`repro.blocking.block_scheduling`).
        If ids were never assigned, positional ids are stamped here.
    """

    __slots__ = (
        "collection",
        "_blocks_of",
        "block_cardinalities",
        "store",
        "_degrees",
    )

    def __init__(self, collection: BlockCollection) -> None:
        if any(block.block_id < 0 for block in collection.blocks):
            collection.assign_block_ids()
        self.collection = collection
        self.store = collection.store
        er_type = collection.store.er_type
        self.block_cardinalities: list[int] = [
            block.cardinality(er_type) for block in collection.blocks
        ]
        blocks_of: dict[int, list[int]] = {}
        for block in collection.blocks:
            for profile_id in block.ids:
                blocks_of.setdefault(profile_id, []).append(block.block_id)
        for ids in blocks_of.values():
            ids.sort()
        self._blocks_of = blocks_of
        self._degrees: tuple[dict[int, int], int] | None = None

    # -- lookups -----------------------------------------------------------

    def blocks_of(self, profile_id: int) -> Sequence[int]:
        """Sorted ids of the blocks containing ``profile_id`` (may be empty)."""
        return self._blocks_of.get(profile_id, ())

    def block_count(self) -> int:
        """|B| - number of blocks in the indexed collection."""
        return len(self.collection.blocks)

    def blocks_of_count(self, profile_id: int) -> int:
        """|B_i| - number of blocks containing ``profile_id``."""
        return len(self._blocks_of.get(profile_id, ()))

    def cardinality(self, block_id: int) -> int:
        """||b|| - comparisons entailed by the block."""
        return self.block_cardinalities[block_id]

    def degrees(self) -> tuple[dict[int, int], int]:
        """Blocking Graph node degrees and the edge count |E|.

        Degrees (distinct co-occurring profiles per node) are computed
        once, lazily, with a full pass over the blocks - the pre-pass
        any streaming EJS implementation needs.
        """
        if self._degrees is None:
            degrees: dict[int, int] = {}
            edges = 0
            er_type = self.store.er_type
            for block in self.collection.blocks:
                for comparison in block.comparisons(er_type):
                    if not self.is_first_encounter(
                        comparison.i, comparison.j, block.block_id
                    ):
                        continue
                    degrees[comparison.i] = degrees.get(comparison.i, 0) + 1
                    degrees[comparison.j] = degrees.get(comparison.j, 0) + 1
                    edges += 1
            self._degrees = (degrees, edges)
        return self._degrees

    def indexed_profiles(self) -> list[int]:
        """Profile ids that appear in at least one block."""
        return sorted(self._blocks_of)

    # -- merge-based pair operations (Section 5.2.1) -------------------------

    def common_blocks(self, i: int, j: int) -> list[int]:
        """Ids of the blocks shared by profiles ``i`` and ``j`` (sorted)."""
        a, b = self.blocks_of(i), self.blocks_of(j)
        out: list[int] = []
        ai = bi = 0
        while ai < len(a) and bi < len(b):
            if a[ai] == b[bi]:
                out.append(a[ai])
                ai += 1
                bi += 1
            elif a[ai] < b[bi]:
                ai += 1
            else:
                bi += 1
        return out

    def least_common_block(self, i: int, j: int) -> int | None:
        """The smallest shared block id, or None if the pair shares none.

        The merge stops at the first hit, which is what makes the LeCoBI
        check cheap: on average far fewer steps than a full merge.
        """
        a, b = self.blocks_of(i), self.blocks_of(j)
        ai = bi = 0
        while ai < len(a) and bi < len(b):
            if a[ai] == b[bi]:
                return a[ai]
            if a[ai] < b[bi]:
                ai += 1
            else:
                bi += 1
        return None

    def is_first_encounter(self, i: int, j: int, block_id: int) -> bool:
        """The LeCoBI condition: is ``block_id`` where (i, j) first co-occur?

        True iff the least common block id of the pair equals ``block_id``;
        a False answer means the comparison was already emitted in an
        earlier (smaller-id) block and is repeated here.
        """
        least = self.least_common_block(i, j)
        return least == block_id
