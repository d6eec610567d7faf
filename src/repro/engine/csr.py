"""CSR (compressed sparse row) index over contiguous int arrays.

:class:`ArrayProfileIndex` is the array engine's Profile Index of
PPS/PBS (Section 5.2): the profile -> sorted block-ids CSR plus the
reverse block -> profile-ids CSR the vectorized kernels gather
neighborhoods from.  It holds the arrays and the per-profile statistics
the kernels read, not the reference
:class:`~repro.metablocking.profile_index.ProfileIndex`'s per-pair API:
the array methods never ask one pair at a time.  (The LS/GS-PSN window
kernels need no position index at all - they slide the Neighbor List's
``entries`` array, see :mod:`repro.engine.similarity`.)

Also home to the CSR row helpers the substrate and kernels share.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.engine import require_numpy

require_numpy("repro.engine.csr")

import numpy as np  # noqa: E402  (guarded optional dependency)

from repro.engine.storage import (  # noqa: E402
    DEFAULT_CHUNK,
    ArrayStore,
    stable_group_scatter,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.blocking.base import BlockCollection


def multi_arange(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenation of ``arange(s, s + c)`` for each (s, c) pair.

    The standard O(total) trick for gathering many CSR rows at once
    without a Python loop: build a delta array whose cumulative sum walks
    through every requested range.
    """
    starts = np.asarray(starts, dtype=np.int64)
    counts = np.asarray(counts, dtype=np.int64)
    nonzero = counts > 0
    if not nonzero.all():
        starts, counts = starts[nonzero], counts[nonzero]
    if starts.size == 0:
        return np.empty(0, dtype=np.int64)
    ends = np.cumsum(counts)
    deltas = np.ones(int(ends[-1]), dtype=np.int64)
    deltas[0] = starts[0]
    # At each range boundary, jump from the previous range's last value
    # (starts[k-1] + counts[k-1] - 1) to the next range's first.
    deltas[ends[:-1]] = starts[1:] - (starts[:-1] + counts[:-1] - 1)
    return np.cumsum(deltas)


def _mass_cuts(sizes: np.ndarray, budget: int) -> list[int]:
    """Row-range boundaries of ~``budget`` total elements each.

    Each boundary is the first row whose cumulative size reaches the
    next budget multiple, so a slab exceeds the budget by at most one
    row's size - rows are never split.
    """
    row_count = len(sizes)
    if row_count == 0:
        return [0]
    ends = np.cumsum(sizes)
    total = int(ends[-1])
    if total == 0:
        return [0, row_count]
    cuts = (
        np.searchsorted(ends, np.arange(budget, total, budget), side="left")
        + 1
    )
    bounds = np.unique(np.concatenate([cuts, np.asarray([row_count])]))
    return [0] + bounds.tolist()


def gather_rows(
    values: np.ndarray,
    starts: np.ndarray,
    sizes: np.ndarray,
    storage: ArrayStore | None = None,
    chunk: int = DEFAULT_CHUNK,
) -> np.ndarray:
    """``values[multi_arange(starts, sizes)]``, optionally spilled.

    The CSR row gather used by the substrate's block reordering.  With
    ``storage``, rows are gathered slab by slab (~``chunk`` elements)
    into a :class:`~repro.engine.storage.SpillWriter`, so peak resident
    memory is O(chunk) instead of O(total gathered).
    """
    starts = np.asarray(starts, dtype=np.int64)
    sizes = np.asarray(sizes, dtype=np.int64)
    if storage is None:
        return values[multi_arange(starts, sizes)]
    writer = storage.writer(values.dtype)
    bounds = _mass_cuts(sizes, chunk)
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        writer.append(values[multi_arange(starts[lo:hi], sizes[lo:hi])])
    return writer.finish()


class ArrayProfileIndex:
    """CSR inverted index over a scheduled block collection.

    Same layout as :class:`~repro.metablocking.profile_index.ProfileIndex`
    (block ids are positions in the processing order; per-profile block
    lists are ascending), stored as two CSR pairs the kernels slice:

    * ``pb_indptr``/``pb_indices`` - profile -> block ids (ascending);
    * ``bp_indptr``/``bp_indices`` - block -> profile ids (block order).
    """

    __slots__ = (
        "store",
        "n_profiles",
        "block_cardinalities",
        "pb_indptr",
        "pb_indices",
        "bp_indptr",
        "bp_indices",
        "sources",
        "__weakref__",
    )

    def __init__(self, collection: "BlockCollection") -> None:
        if any(block.block_id < 0 for block in collection.blocks):
            collection.assign_block_ids()
        self.store = collection.store
        store = collection.store
        er_type = store.er_type
        blocks = collection.blocks
        n = len(store)
        self.n_profiles = n

        self.block_cardinalities = np.fromiter(
            (block.cardinality(er_type) for block in blocks),
            dtype=np.int64,
            count=len(blocks),
        )
        sizes = np.fromiter(
            (len(block.ids) for block in blocks), dtype=np.int64, count=len(blocks)
        )
        self.bp_indptr = np.zeros(len(blocks) + 1, dtype=np.int64)
        np.cumsum(sizes, out=self.bp_indptr[1:])
        if blocks:
            self.bp_indices = np.concatenate(
                [np.asarray(block.ids, dtype=np.int64) for block in blocks]
            )
        else:
            self.bp_indices = np.empty(0, dtype=np.int64)

        self._build_pb()
        self.sources = np.fromiter(
            (profile.source for profile in store), dtype=np.int64, count=n
        )

    @classmethod
    def from_csr(
        cls,
        store: object,
        bp_indptr: np.ndarray,
        bp_indices: np.ndarray,
        block_cardinalities: np.ndarray,
        sources: np.ndarray,
        storage: ArrayStore | None = None,
    ) -> "ArrayProfileIndex":
        """Build straight from block -> profile CSR arrays.

        The array-native substrate's entry point: no ``Block`` objects
        are touched.  With ``storage``, the
        profile -> blocks transpose is built out-of-core into memmap
        arrays (the inputs are expected to be memmap-backed already).
        """
        self = cls.__new__(cls)
        self.store = store  # type: ignore[assignment]
        self.n_profiles = len(store)  # type: ignore[arg-type]
        self.block_cardinalities = np.asarray(block_cardinalities, dtype=np.int64)
        self.bp_indptr = np.asarray(bp_indptr, dtype=np.int64)
        self.bp_indices = np.asarray(bp_indices, dtype=np.int64)
        self._build_pb(storage)
        self.sources = np.asarray(sources, dtype=np.int64)
        return self

    def _build_pb(self, storage: ArrayStore | None = None) -> None:
        # Transpose to the profile -> blocks CSR.  Entries are generated
        # in ascending block-id order, so a stable sort by profile keeps
        # each profile's block list ascending - the property the LeCoBI
        # merge and the weighting accumulation order both rely on.
        if storage is not None:
            # Out-of-core: the same stable grouping via counting sort,
            # with the entry -> block-id map derived chunk by chunk from
            # the indptr instead of one O(entries) np.repeat.
            bp_indptr = self.bp_indptr

            def block_of_entry(lo: int, hi: int) -> np.ndarray:
                positions = np.arange(lo, hi, dtype=np.int64)
                return (
                    np.searchsorted(bp_indptr, positions, side="right") - 1
                )

            self.pb_indptr, (self.pb_indices,) = stable_group_scatter(
                self.bp_indices,
                [block_of_entry],
                self.n_profiles,
                int(self.bp_indices.size),
                store=storage,
            )
            return
        sizes = np.diff(self.bp_indptr)
        owners = np.repeat(np.arange(len(sizes), dtype=np.int64), sizes)
        order = np.argsort(self.bp_indices, kind="stable")
        self.pb_indices = owners[order]
        counts = np.bincount(self.bp_indices, minlength=self.n_profiles)
        self.pb_indptr = np.zeros(self.n_profiles + 1, dtype=np.int64)
        np.cumsum(counts, out=self.pb_indptr[1:])

    # -- statistics ----------------------------------------------------------

    def block_count(self) -> int:
        """|B| - number of blocks in the indexed collection."""
        return len(self.block_cardinalities)

    def block_counts_per_profile(self) -> np.ndarray:
        """|B_i| for every profile id (0 for unindexed profiles)."""
        return np.diff(self.pb_indptr)

    def indexed_profiles(self) -> list[int]:
        """Profile ids that appear in at least one block, ascending."""
        return np.nonzero(np.diff(self.pb_indptr))[0].tolist()
