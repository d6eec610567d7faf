"""Where the engine's arrays live: :data:`RAM` or an :class:`ArrayStore`.

Every CSR structure in the engine is a handful of flat int64/float64
arrays, and every pass that builds one asks its store - never a mode -
for its allocator (``empty``, ``zeros``, ``materialize``, and
``writer``, the sink of a pass assembled range by range), for
``chunk``, the budget of a bounded pass (``None``, the whole axis, in
RAM), and for the one CSR ``transpose``.

:data:`RAM` hands out plain ndarrays and transposes by one sort of
packed ``(column, row)`` keys.  An :class:`ArrayStore`
(``storage="memmap"``) hands out ``np.memmap`` arrays in a private
scratch directory tied to the owning backend instance (explicit
:meth:`ArrayStore.close`, or garbage collection via ``weakref.finalize``,
as :class:`repro.parallel.pool.WorkerPool` does for its payload
tempdir), spills through a :class:`SpillWriter` and transposes with
:func:`stable_group_scatter`, an out-of-core counting sort holding
O(chunk + n_groups) elements.  Both transposes equal the stable argsort
by column bit for bit: a stable sort orders entries by ``(key, original
position)``; the scatter appends each key's entries chunk by chunk in
input order, and a CSR's entries are row-major, so the packed sort's
ascending rows are that order too.

Memory math and usage live in docs/scale.md.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import weakref
from typing import Any, Sequence

from repro.engine import require_numpy

require_numpy("array storage (repro.engine.storage)")

import numpy as np  # noqa: E402  (guarded optional dependency)

from repro.engine.segments import run_heads  # noqa: E402

#: Elements per chunk for the out-of-core passes: 1M int64 keys is an
#: 8 MB resident slice - small enough to keep peak RSS flat, large
#: enough that the per-chunk numpy dispatch overhead vanishes.
DEFAULT_CHUNK = 1 << 20


class RamStore:
    """The in-RAM store (stateless, shared as :data:`RAM`): plain
    ndarrays and whole-axis passes.  On a whole axis in RAM, the packed
    sort of :meth:`transpose` is several times faster than the counting
    scatter."""

    #: A bounded pass runs over the whole axis at once.
    chunk: int | None = None

    def empty(self, shape: Any, dtype: Any) -> np.ndarray:
        return np.empty(shape, dtype=dtype)

    def zeros(self, shape: Any, dtype: Any) -> np.ndarray:
        return np.zeros(shape, dtype=dtype)

    def materialize(self, array: Any) -> np.ndarray:
        return np.asarray(array)

    def writer(self, dtype: Any) -> "ChunkList":
        return ChunkList(dtype)

    def transpose(
        self, indptr: np.ndarray, columns: Any, width: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """The column -> rows CSR of the row -> columns CSR
        ``(indptr, columns)``, rows ascending within each column.

        ``columns`` is an array-like or a ``(lo, hi) -> chunk`` callable
        of column ids in ``[0, width)``.  One sort of the packed keys
        ``column * rows + row`` (below 2**63 for every store this engine
        builds) orders the entries as the stable argsort by column does.
        """
        rows = max(len(indptr) - 1, 1)
        keys = np.asarray(_slice(columns, 0, int(indptr[-1])), dtype=np.int64)
        counts = np.bincount(keys, minlength=width)
        packed = keys * rows
        del keys
        packed += np.repeat(
            np.arange(len(indptr) - 1, dtype=np.int64), np.diff(indptr)
        )
        packed.sort()
        packed %= rows
        out = np.zeros(width + 1, dtype=np.int64)
        np.cumsum(counts, out=out[1:])
        return out, packed


#: The shared in-RAM store, every engine structure's default.
RAM = RamStore()


class ArrayStore:
    """A scratch directory of memmap-backed arrays with one lifetime.

    Arrays are created with :meth:`empty` (shaped),
    :meth:`zeros`, :meth:`materialize` (copy of an existing array) or
    :meth:`writer` (append-only spill).  All files live in one
    lazily-created ``repro-storage-*`` temp directory which is removed
    by :meth:`close` - or, failing that, by a ``weakref.finalize`` when
    the store is garbage collected, so dropping the owning backend or
    Resolver never leaks scratch files.
    """

    #: Elements a bounded pass holds resident at a time.
    chunk: int = DEFAULT_CHUNK

    def __init__(self, dir: str | None = None) -> None:
        self._parent = dir
        self._tempdir: str | None = None
        self._counter = 0
        self._finalizer: weakref.finalize | None = None

    @property
    def path(self) -> str | None:
        """The scratch directory (``None`` until the first array)."""
        return self._tempdir

    def file_count(self) -> int:
        """Number of scratch files currently on disk (leak metric)."""
        if self._tempdir is None or not os.path.isdir(self._tempdir):
            return 0
        return len(os.listdir(self._tempdir))

    def _new_path(self, stem: str, suffix: str) -> str:
        if self._tempdir is None:
            self._tempdir = tempfile.mkdtemp(
                prefix="repro-storage-", dir=self._parent
            )
            self._finalizer = weakref.finalize(
                self, shutil.rmtree, self._tempdir, True
            )
        self._counter += 1
        return os.path.join(
            self._tempdir, f"{stem}-{self._counter:05d}{suffix}"
        )

    def empty(self, shape: Any, dtype: Any) -> np.ndarray:
        """A writable memmap array (``.npy`` format): a fresh file, so it
        reads as zeros."""
        if not isinstance(shape, tuple):
            shape = (int(shape),)
        return np.lib.format.open_memmap(
            self._new_path("array", ".npy"),
            mode="w+",
            dtype=np.dtype(dtype),
            shape=shape,
        )

    #: A fresh memmap file is all zero bytes.
    zeros = empty

    def materialize(self, array: Any) -> np.ndarray:
        """A memmap copy of ``array`` (same shape, dtype and contents)."""
        source = np.asarray(array)
        out = self.empty(source.shape, source.dtype)
        out[...] = source
        return out

    def writer(self, dtype: Any) -> "SpillWriter":
        """An append-only :class:`SpillWriter` for ``dtype`` elements."""
        return SpillWriter(self, dtype)

    def transpose(
        self, indptr: np.ndarray, columns: Any, width: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`RamStore.transpose` out-of-core: the rows grouped by
        column with :func:`stable_group_scatter` into this store, each
        entry's row derived chunk by chunk from ``indptr`` instead of
        one O(entries) ``np.repeat``."""

        def row_of_entry(lo: int, hi: int) -> np.ndarray:
            positions = np.arange(lo, hi, dtype=np.int64)
            return np.searchsorted(indptr, positions, side="right") - 1

        out, (rows,) = stable_group_scatter(
            columns,
            [row_of_entry],
            width,
            int(indptr[-1]),
            store=self,
            chunk=self.chunk,
        )
        return out, rows

    def close(self) -> None:
        """Remove the scratch directory; idempotent.

        Arrays handed out earlier become invalid (on POSIX the pages
        already mapped stay readable until the last reference dies, but
        callers must treat the owning session as finished).
        """
        finalizer, self._finalizer = self._finalizer, None
        self._tempdir = None
        if finalizer is not None:
            finalizer()


#: Either store: what every engine pass allocates from.
Store = RamStore | ArrayStore


class SpillWriter:
    """Append-only spill of same-dtype chunks, finished into one array.

    Raw little-endian element bytes go straight to an open file; a
    stream of N chunks costs O(largest chunk) resident memory.  An empty
    stream finishes into a plain empty ndarray (``np.memmap`` rejects
    zero-length files).
    """

    def __init__(self, store: ArrayStore, dtype: Any) -> None:
        self.dtype = np.dtype(dtype)
        self._path = store._new_path("spill", ".bin")
        self._handle: Any = open(self._path, "wb")
        self.count = 0

    def append(self, chunk: Any) -> None:
        """Append a 1-D chunk (coerced to the writer's dtype)."""
        array = np.ascontiguousarray(chunk, dtype=self.dtype)
        self._handle.write(array.tobytes())
        self.count += int(array.size)

    def finish(self) -> np.ndarray:
        """Close the file and return the whole stream as one array."""
        self._handle.close()
        if self.count == 0:
            return np.empty(0, dtype=self.dtype)
        return np.memmap(self._path, dtype=self.dtype, mode="r+")


class ChunkList:
    """The in-RAM twin of :class:`SpillWriter`: chunks, concatenated.

    A stream of one chunk finishes into that chunk itself - the
    whole-axis pass pays no concatenation copy - and a longer one lets
    go of its chunks, so they do not outlive the concatenation.
    """

    def __init__(self, dtype: Any) -> None:
        self.dtype = np.dtype(dtype)
        self._chunks: list[np.ndarray] = []

    def append(self, chunk: Any) -> None:
        self._chunks.append(np.asarray(chunk, dtype=self.dtype))

    def finish(self) -> np.ndarray:
        chunks, self._chunks = self._chunks, []
        if not chunks:
            return np.empty(0, dtype=self.dtype)
        if len(chunks) == 1:
            return chunks[0]
        return np.concatenate(chunks)


def _slice(source: Any, lo: int, hi: int) -> np.ndarray:
    """One chunk of an array-like or of a ``(lo, hi) -> chunk`` callable.

    Callable sources let derived streams (e.g. "the CSR owner of entry
    position p") participate in the out-of-core passes without ever
    being materialized in full.
    """
    if callable(source):
        return np.asarray(source(lo, hi))
    return np.asarray(source[lo:hi])


def group_sizes(
    keys: Any, n_groups: int, total: int, chunk: int = DEFAULT_CHUNK
) -> np.ndarray:
    """Occurrences of each key in ``[0, n_groups)``, counted chunkwise."""
    counts = np.zeros(n_groups, dtype=np.int64)
    for lo in range(0, total, chunk):
        hi = min(lo + chunk, total)
        counts += np.bincount(_slice(keys, lo, hi), minlength=n_groups)
    return counts


def stable_group_scatter(
    keys: Any,
    values: Sequence[Any],
    n_groups: int,
    total: int,
    *,
    store: Store = RAM,
    chunk: int = DEFAULT_CHUNK,
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Group ``values`` by ``keys``, input order preserved per group.

    The out-of-core equivalent of::

        order = np.argsort(keys, kind="stable")
        indptr = cumsum of per-key counts
        grouped = [np.asarray(v)[order] for v in values]

    producing bit-identical output (see the module docstring for the
    stability argument) while touching only O(chunk) elements of the
    key/value streams at a time.  ``keys`` and each entry of ``values``
    may be an array-like or a ``(lo, hi) -> chunk`` callable; value
    dtypes are probed with an empty slice, so callables must return
    typed arrays for empty ranges too.  Outputs are allocated from
    ``store``.

    Returns ``(indptr, grouped)`` with ``indptr`` of length
    ``n_groups + 1`` delimiting each key's run.
    """
    counts = group_sizes(keys, n_groups, total, chunk)
    indptr = np.zeros(n_groups + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    grouped = [store.empty(total, _slice(source, 0, 0).dtype) for source in values]
    cursor = indptr[:-1].copy()
    for lo in range(0, total, chunk):
        hi = min(lo + chunk, total)
        chunk_keys = _slice(keys, lo, hi)
        order = np.argsort(chunk_keys, kind="stable")
        sorted_keys = chunk_keys[order]
        starts = np.flatnonzero(run_heads(sorted_keys))
        run_lengths = np.diff(np.append(starts, sorted_keys.size))
        run_keys = sorted_keys[starts]
        offsets = np.arange(sorted_keys.size, dtype=np.int64) - np.repeat(
            starts, run_lengths
        )
        positions = cursor[run_keys].repeat(run_lengths) + offsets
        for out, source in zip(grouped, values):
            out[positions] = _slice(source, lo, hi)[order]
        # run_keys is unique within the chunk, so fancy-indexed += is a
        # well-defined scatter here (no np.add.at needed).
        cursor[run_keys] += run_lengths
    return indptr, grouped
