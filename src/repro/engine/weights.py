"""Vectorized Blocking Graph weighting: all five schemes in array passes.

Each scheme from :mod:`repro.metablocking.weights` (ARCS/CBS/ECBS/JS/EJS)
decomposes into a per-block *contribution* and a per-pair *finalize*
step.  Here both are arrays:

* ``block_contributions()`` - one float per block, computed once;
* ``finalize_all(i, j, raw)`` - element-wise normalization of a whole
  batch of accumulated raw weights.

:class:`ArrayBlockingGraph` holds the weighted Blocking Graph as a
per-profile CSR: for every profile, the ascending array of its valid
co-occurring neighbors and their finalized edge weights.  The rows are
a cache built on first use, by whoever reads them first: PPS (its
duplication likelihoods, Sorted-Profile-List emission and K_max top-k),
ONLINE and the pruning kernels are whole-graph consumers and read them
in the statement after construction; EJS reads their lengths (its
degrees) before it finalizes anything.  PBS reads none: it weights the
pairs of the blocks it schedules with :func:`common_block_weights`,
which probes the Profile Index directly, so under the other four
schemes a PBS run never builds the graph.

Bit-exactness with the reference implementation is a design constraint,
not an accident:

* raw accumulation uses ``np.bincount``, whose C loop adds contributions
  sequentially in input order - the same ascending-block-id order the
  Python dict accumulation follows, in the rows and in the pair probes
  alike;
* logarithm factors (ECBS/EJS) are precomputed per profile with
  :func:`math.log` on the identical integer ratios Python evaluates;
* finalize multiplications run in Python's left-to-right order.

The parity suite in ``tests/engine/`` checks all five schemes against
the reference, weight for weight.
"""

from __future__ import annotations

import math
from typing import Any

from repro.core.profiles import ERType
from repro.engine import require_numpy
from repro.engine.csr import ArrayProfileIndex, multi_arange
from repro.engine.fanout import INLINE, Fanout
from repro.engine.segments import run_heads, stable_groups
from repro.engine.storage import DEFAULT_CHUNK, ArrayStore, collector
from repro.registry import weighting_schemes

require_numpy("repro.engine.weights")

import numpy as np  # noqa: E402  (guarded optional dependency)


class ArrayWeighting:
    """Vectorized edge weighting over an :class:`ArrayProfileIndex`."""

    name: str = "abstract"

    def __init__(self, index: ArrayProfileIndex) -> None:
        self.index = index

    # -- vector interface ----------------------------------------------------

    def block_contributions(self) -> np.ndarray:
        """Per-block weight contribution (one float64 per block)."""
        raise NotImplementedError

    def prepare(self, graph: "ArrayBlockingGraph") -> None:
        """Hook run after raw rows exist, before finalization (EJS)."""

    def finalize_all(
        self, i: np.ndarray, j: np.ndarray, raw: np.ndarray
    ) -> np.ndarray:
        """Element-wise normalization of accumulated raw weights."""
        return raw


class ArrayARCS(ArrayWeighting):
    """Aggregate Reciprocal Comparisons Scheme: sum of 1/||b_k||."""

    name = "ARCS"

    def block_contributions(self) -> np.ndarray:
        cardinalities = self.index.block_cardinalities
        out = np.zeros(cardinalities.shape, dtype=np.float64)
        positive = cardinalities > 0
        np.divide(1.0, cardinalities, out=out, where=positive)
        return out


class ArrayCBS(ArrayWeighting):
    """Common Blocks Scheme: the plain count of shared blocks."""

    name = "CBS"

    def block_contributions(self) -> np.ndarray:
        return np.ones(len(self.index.block_cardinalities), dtype=np.float64)


class ArrayECBS(ArrayCBS):
    """Enhanced CBS: discounts profiles that appear in many blocks."""

    name = "ECBS"

    def __init__(self, index: ArrayProfileIndex) -> None:
        super().__init__(index)
        total = index.block_count()
        block_counts = index.block_counts_per_profile()
        # math.log on the identical int/int ratios the reference computes,
        # so the factors are bitwise equal to the per-call Python values.
        self._log_factor = np.fromiter(
            (
                math.log(total / int(count)) if count and total else 0.0
                for count in block_counts
            ),
            dtype=np.float64,
            count=len(block_counts),
        )
        self._defined = (block_counts > 0) & bool(total)

    def finalize_all(
        self, i: np.ndarray, j: np.ndarray, raw: np.ndarray
    ) -> np.ndarray:
        out = raw * self._log_factor[i] * self._log_factor[j]
        return np.where(self._defined[i] & self._defined[j], out, 0.0)


class ArrayJS(ArrayCBS):
    """Jaccard Scheme over the two profiles' block-id lists."""

    name = "JS"

    def finalize_all(
        self, i: np.ndarray, j: np.ndarray, raw: np.ndarray
    ) -> np.ndarray:
        block_counts = self.index.block_counts_per_profile()
        union = block_counts[i] + block_counts[j] - raw
        out = np.zeros(raw.shape, dtype=np.float64)
        np.divide(raw, union, out=out, where=union > 0)
        return out


class ArrayEJS(ArrayJS):
    """Enhanced JS: JS discounted by Blocking Graph node degrees.

    Degrees and |E| are whole-graph quantities (in the paper too): a
    profile's degree is its row length, and every distinct valid pair
    appears in exactly two rows.  They depend on the index alone, so the
    first graph that finalizes with this scheme supplies them - through
    its own storage and fan-out - for the scheme's lifetime.
    """

    name = "EJS"

    def __init__(self, index: ArrayProfileIndex) -> None:
        super().__init__(index)
        self._degrees: np.ndarray | None = None
        self._edge_count = 0
        self._log_degree: np.ndarray | None = None

    def prepare(self, graph: "ArrayBlockingGraph") -> None:
        if self._log_degree is not None:
            return
        degrees = np.diff(graph.indptr)
        self._degrees = degrees
        self._edge_count = int(degrees.sum()) // 2
        edge_count = self._edge_count
        self._log_degree = np.fromiter(
            (
                math.log(edge_count / int(degree)) if degree and edge_count else 0.0
                for degree in degrees
            ),
            dtype=np.float64,
            count=len(degrees),
        )

    def finalize_all(
        self, i: np.ndarray, j: np.ndarray, raw: np.ndarray
    ) -> np.ndarray:
        jaccard = super().finalize_all(i, j, raw)
        assert self._log_degree is not None and self._degrees is not None
        out = jaccard * self._log_degree[i] * self._log_degree[j]
        defined = (
            (jaccard != 0.0)
            & (self._degrees[i] > 0)
            & (self._degrees[j] > 0)
            & bool(self._edge_count)
        )
        return np.where(defined, out, 0.0)


_ARRAY_SCHEMES: dict[str, type[ArrayWeighting]] = {
    cls.name: cls for cls in (ArrayARCS, ArrayCBS, ArrayECBS, ArrayJS, ArrayEJS)
}


def make_array_scheme(name: str, index: ArrayProfileIndex) -> ArrayWeighting:
    """Instantiate a vectorized scheme by name (any spelling).

    Only the five stock schemes have array kernels; a user-registered
    scheme resolves through the shared registry but has no vectorized
    twin, so it raises with a pointer to the python backend.
    """
    canonical = weighting_schemes.canonical(name)
    try:
        cls = _ARRAY_SCHEMES[canonical]
    except KeyError:
        raise NotImplementedError(
            f"weighting scheme {canonical!r} has no numpy kernel; "
            "use backend='python' for custom schemes "
            f"(vectorized: {sorted(_ARRAY_SCHEMES)})"
        ) from None
    return cls(index)


def graph_rows(payload: dict[str, Any], shard: tuple[int, int]) -> dict[str, Any]:
    """Range kernel: the Blocking-Graph rows of the owners in ``[lo, hi)``.

    Every block incidence of every owner expands into its co-member
    events; grouping by the canonical ``owner * n + nbr`` key yields the
    range's graph rows at once.  The expansion is generated owner-major
    with blocks ascending, so the range owns a contiguous slice of the
    global event stream, an edge's owner lives in exactly one range, and
    ``np.bincount`` over the grouped ranks accumulates each edge's
    contributions in exactly the reference dict order (bit-identical
    sums).  ``first`` holds first-encounter positions local to the
    range's valid-event stream; the assembly offsets them by the
    preceding ranges' ``valid_count`` to recover the global indexes.
    """
    lo, hi = shard
    n = payload["n"]
    pb_indptr = payload["pb_indptr"]
    pb_indices = payload["pb_indices"]
    bp_indptr = payload["bp_indptr"]
    bp_indices = payload["bp_indices"]
    sources = payload["sources"]
    block_sizes = np.diff(bp_indptr)

    # Expand every (owner, block) incidence to its block members.
    row_ptr = np.asarray(pb_indptr[lo : hi + 1])
    incidence = np.asarray(pb_indices[row_ptr[0] : row_ptr[-1]])
    incidence_counts = block_sizes[incidence]
    owners = np.repeat(
        np.repeat(np.arange(lo, hi, dtype=np.int64), np.diff(row_ptr)),
        incidence_counts,
    )
    neighbors = bp_indices[multi_arange(bp_indptr[incidence], incidence_counts)]
    contribution = np.repeat(payload["contributions"][incidence], incidence_counts)

    valid = neighbors != owners
    if payload["clean_clean"]:
        valid &= sources[neighbors] != sources[owners]
    owners = owners[valid]
    neighbors = neighbors[valid]
    contribution = contribution[valid]

    # The scattered group ids feed one bincount whose C loop walks the
    # *original* event order left to right - sequential accumulation.
    keys = owners * n + neighbors
    order, sorted_keys, heads = stable_groups(keys)
    unique_keys = sorted_keys[heads]
    ranks = np.empty(keys.size, dtype=np.int64)
    ranks[order] = np.cumsum(heads) - 1
    return {
        "row_lengths": np.bincount(unique_keys // n, minlength=hi)[lo:],
        "neighbors": unique_keys % n,
        "raw": np.bincount(ranks, weights=contribution, minlength=unique_keys.size),
        "first": order[heads],
        "valid_count": int(owners.size),
    }


def common_block_weights(
    payload: dict[str, Any], i: np.ndarray, j: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``(least common block, raw weight)`` of every pair ``(i[k], j[k])``.

    The one statement of "common blocks of a pair -> raw weight" in the
    engine.  Each pair expands the (ascending) block row of whichever
    endpoint sits in fewer blocks and probes the other endpoint's row
    for every one of those blocks: ``pb_keys`` holds
    ``profile * |B| + block`` over the owner-major profile -> blocks
    CSR, ascending by construction, so membership is one
    ``searchsorted``.  Most probes miss, and a binary search is the
    expensive way to learn that: ``pb_filter`` (a boolean table with
    at least ``FILTER_SLOTS`` slots per key) rejects about nine misses
    in ten first, and the exact search confirms the rest.  The hits of a pair are its
    common blocks in ascending order: the first is the least common
    block (``-1`` when no block is shared - the LeCoBI test of PBS is
    ``least == current block``), and ``np.bincount`` adds their
    contributions left to right, the very sequence :func:`graph_rows`
    sums for the same edge (bit-identical raw weights).  No graph row
    is read.
    """
    pb_indptr = payload["pb_indptr"]
    pb_keys = payload["pb_keys"]
    pb_filter = payload["pb_filter"]
    count_i = pb_indptr[i + 1] - pb_indptr[i]
    count_j = pb_indptr[j + 1] - pb_indptr[j]
    expanded = np.where(count_j < count_i, j, i)
    counts = np.minimum(count_i, count_j)
    blocks = payload["pb_indices"][multi_arange(pb_indptr[expanded], counts)]
    block_count = payload["cardinalities"].size
    probes = np.repeat((i + j - expanded) * block_count, counts)
    probes += blocks
    maybe = np.nonzero(pb_filter[probes & (pb_filter.size - 1)])[0]
    probes = probes[maybe]
    # The trailing sentinel of pb_keys keeps every slot in bounds.
    hits = maybe[pb_keys[np.searchsorted(pb_keys, probes)] == probes]
    common = blocks[hits]
    owner = np.searchsorted(np.cumsum(counts), hits, side="right")
    least = np.full(i.size, -1, dtype=np.int64)
    heads = run_heads(owner)
    least[owner[heads]] = common[heads]
    raw = np.bincount(
        owner, weights=payload["contributions"][common], minlength=i.size
    )
    return least, raw


class ArrayBlockingGraph:
    """The weighted Blocking Graph in per-profile CSR form, rows on demand.

    ``indptr``/``neighbors`` give each profile's valid co-occurring
    neighbors ascending; ``raw``/``weights`` the accumulated and
    finalized edge weights; ``first_event_index`` the global event-stream
    index at which each edge was *first encountered*.  Events stream
    owner-major with blocks ascending - the dict-insertion order the
    reference implementation iterates - so sorting a profile's edges by
    ``first_event_index`` replays that order, which PPS's likelihood
    sums and tie-breaks rely on.

    Construction only records what the rows are built from.  The rows
    are a cache filled by the first read of any of those attributes
    (``weights`` on top of the other four): the whole-graph consumers -
    PPS, ONLINE, the pruning kernels, EJS's degrees - read them in
    their next statement, while PBS weights the pairs of the blocks it
    schedules through :meth:`finalize` and never builds a row.

    ``payload`` is what the CSR-reading range kernels
    (:func:`graph_rows`, :func:`repro.engine.equality.new_block_pairs`)
    read; it lives on the graph so that a method running both (PBS
    under EJS) hands a pooled fan-out the same object twice and ships
    it once.
    """

    __slots__ = (
        "index",
        "scheme",
        "storage",
        "fanout",
        "payload",
        "indptr",
        "neighbors",
        "raw",
        "weights",
        "first_event_index",
        "_edge_keys",
        "_edge_weights",
    )

    #: Co-occurrence events expanded per range when the rows spill to
    #: disk; caps the transient expansion arrays at a few tens of MB
    #: regardless of n.
    EVENT_BUDGET = 1 << 21

    #: Slots of the membership pre-filter per profile -> block incidence
    #: (rounded up to a power of two in total): at most one missed probe
    #: in this many passes it, for a byte per slot.
    FILTER_SLOTS = 8

    def __init__(
        self,
        index: ArrayProfileIndex,
        scheme: ArrayWeighting | str,
        storage: ArrayStore | None = None,
        fanout: Fanout = INLINE,
    ) -> None:
        self.index = index
        self.scheme = (
            make_array_scheme(scheme, index)
            if isinstance(scheme, str)
            else scheme
        )
        self.storage = storage
        self.fanout = fanout
        pb_keys, pb_filter = self._incidence_keys()
        self.payload: dict[str, Any] = {
            "n": index.n_profiles,
            "clean_clean": index.store.er_type is ERType.CLEAN_CLEAN,
            "sources": index.sources,
            "pb_indptr": index.pb_indptr,
            "pb_indices": index.pb_indices,
            "pb_keys": pb_keys,
            "pb_filter": pb_filter,
            "bp_indptr": index.bp_indptr,
            "bp_indices": index.bp_indices,
            "cardinalities": index.block_cardinalities,
            "contributions": self.scheme.block_contributions(),
        }
        self._edge_keys: np.ndarray | None = None
        self._edge_weights: np.ndarray | None = None

    def __getattr__(self, name: str) -> Any:
        # Reached only while a slot is still empty: the first read of a
        # row attribute builds the rows.
        if name == "weights":
            self._finalize_rows()
        elif name in ("indptr", "neighbors", "raw", "first_event_index"):
            self._build_rows()
        else:
            raise AttributeError(name)
        return getattr(self, name)

    # -- construction --------------------------------------------------------

    def _incidence_keys(self) -> tuple[np.ndarray, np.ndarray]:
        """What :func:`common_block_weights` probes: ``(pb_keys, pb_filter)``.

        ``profile * |B| + block`` of every profile -> block incidence -
        the CSR is owner-major with ascending rows, so the keys ascend -
        closed by a sentinel above every possible probe, and the boolean
        table marking each key's slot.
        """
        index = self.index
        block_count = index.block_count()
        counts = np.diff(index.pb_indptr)
        budget = None if self.storage is None else DEFAULT_CHUNK
        keys = collector(self.storage, np.int64)
        # A power-of-two size: the slot of a key is its low bits.
        slots = 1 << (self.FILTER_SLOTS * int(index.pb_indptr[-1])).bit_length()
        if self.storage is None:
            table = np.zeros(slots, dtype=bool)
        else:
            table = self.storage.empty(slots, bool)
            table[:] = False
        for lo, hi in INLINE.ranges(index.n_profiles, counts, budget):
            start, stop = int(index.pb_indptr[lo]), int(index.pb_indptr[hi])
            owners = np.repeat(np.arange(lo, hi, dtype=np.int64), counts[lo:hi])
            chunk = owners * block_count + np.asarray(index.pb_indices[start:stop])
            table[chunk & (table.size - 1)] = True
            keys.append(chunk)
        keys.append(np.asarray([index.n_profiles * block_count]))
        return keys.finish(), table

    def _owner_event_mass(self) -> np.ndarray:
        """Co-occurrence events each owner expands into: every (owner,
        block) incidence contributes that block's size."""
        index = self.index
        incidence_events = np.diff(index.bp_indptr)[np.asarray(index.pb_indices)]
        cumulative = np.zeros(incidence_events.size + 1, dtype=np.int64)
        np.cumsum(incidence_events, out=cumulative[1:])
        return cumulative[index.pb_indptr[1:]] - cumulative[index.pb_indptr[:-1]]

    def _build_rows(self) -> None:
        """Assemble the raw rows from :func:`graph_rows` over owner ranges.

        In RAM the fan-out's ranges are balanced on incidence counts
        (the inline fan-out returns the whole axis); with storage they
        are cut by event mass - sized so one range's expansion stays a
        few tens of MB - and each range's rows spill before the next is
        built.  Finalization needs the *whole* graph (EJS degrees) and
        runs afterwards, elementwise over the assembled rows.
        """
        index = self.index
        fanout = self.fanout
        n = index.n_profiles
        if self.storage is None:
            ranges = fanout.ranges(n, np.diff(index.pb_indptr))
        else:
            ranges = fanout.ranges(n, self._owner_event_mass(), self.EVENT_BUDGET)
        neighbors = collector(self.storage, np.int64)
        raw = collector(self.storage, np.float64)
        first = collector(self.storage, np.int64)
        indptr = np.zeros(n + 1, dtype=np.int64)
        offset = 0
        rows = fanout.run(graph_rows, self.payload, ranges)
        for (lo, hi), result in zip(ranges, rows):
            indptr[lo + 1 : hi + 1] = result["row_lengths"]
            neighbors.append(result["neighbors"])
            raw.append(result["raw"])
            first.append(result["first"] + offset if offset else result["first"])
            offset += result["valid_count"]
        np.cumsum(indptr, out=indptr)
        self.indptr = indptr
        self.neighbors = neighbors.finish()
        self.raw = raw.finish()
        self.first_event_index = first.finish()

    def _finalize_rows(self) -> None:
        """Elementwise normalization of the raw rows, owner range by
        owner range (one range in RAM, ~``DEFAULT_CHUNK`` edges each
        when the weights spill)."""
        row_lengths = np.diff(self.indptr)
        budget = None if self.storage is None else DEFAULT_CHUNK
        weights = collector(self.storage, np.float64)
        for lo, hi in INLINE.ranges(self.index.n_profiles, row_lengths, budget):
            start, stop = int(self.indptr[lo]), int(self.indptr[hi])
            owners = np.repeat(np.arange(lo, hi, dtype=np.int64), row_lengths[lo:hi])
            weights.append(
                self.finalize(
                    owners,
                    np.asarray(self.neighbors[start:stop]),
                    np.asarray(self.raw[start:stop]),
                )
            )
        self.weights = weights.finish()

    def finalize(self, i: np.ndarray, j: np.ndarray, raw: np.ndarray) -> np.ndarray:
        """Finalized weights of the pairs ``(i, j)`` with raw weights ``raw``.

        Always inline: the scheme's state (log factors, EJS degrees)
        lives in this process.  The scheme is prepared first, so under
        EJS - and only under EJS - the first call builds the rows.
        """
        self.scheme.prepare(self)
        return self.scheme.finalize_all(i, j, raw)

    # -- row access ----------------------------------------------------------

    def row(self, profile_id: int) -> tuple[np.ndarray, np.ndarray]:
        """(neighbors ascending, finalized weights) of one profile."""
        start, end = self.indptr[profile_id], self.indptr[profile_id + 1]
        return self.neighbors[start:end], self.weights[start:end]

    # -- pair lookup ---------------------------------------------------------

    def _ensure_edge_lookup(self) -> None:
        if self._edge_keys is not None:
            return
        n = self.index.n_profiles
        owners = np.repeat(np.arange(n, dtype=np.int64), np.diff(self.indptr))
        upper = self.neighbors > owners  # each edge once, from its min side
        self._edge_keys = owners[upper] * n + self.neighbors[upper]
        self._edge_weights = self.weights[upper]

    def edges(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every distinct valid pair once (``i < j``) with its weight.

        Derived from the cached edge lookup, so a graph serving both
        whole-graph emission and per-pair queries builds the extraction
        only once.  Keys are row-major over ascending rows, hence sorted.
        """
        self._ensure_edge_lookup()
        assert self._edge_keys is not None and self._edge_weights is not None
        n = self.index.n_profiles
        return self._edge_keys // n, self._edge_keys % n, self._edge_weights

    def weight(self, i: int, j: int) -> float:
        """Edge weight of one pair, 0.0 when no block is shared (scalar
        compatibility: a one-pair :func:`common_block_weights`)."""
        pair_i = np.asarray([i], dtype=np.int64)
        pair_j = np.asarray([j], dtype=np.int64)
        least, raw = common_block_weights(self.payload, pair_i, pair_j)
        if least[0] < 0:
            return 0.0
        return float(self.finalize(pair_i, pair_j, raw)[0])
