"""Vectorized Blocking Graph weighting: all five schemes in array passes.

Each scheme from :mod:`repro.metablocking.weights` (ARCS/CBS/ECBS/JS/EJS)
decomposes into a per-block *contribution* and a per-pair *finalize*
step.  Here both are arrays:

* ``block_contributions()`` - one float per block, computed once;
* ``finalize_all(i, j, raw)`` - element-wise normalization of a whole
  batch of accumulated raw weights.

:class:`ArrayBlockingGraph` materializes the entire weighted Blocking
Graph as a per-profile CSR: for every profile, the ascending array of its
valid co-occurring neighbors and their finalized edge weights.  One
build pays for the whole run - PPS reads rows for its duplication
likelihoods, its Sorted-Profile-List emission and its K_max top-k; PBS
resolves every block's pair weights with one ``searchsorted``.

Bit-exactness with the reference implementation is a design constraint,
not an accident:

* raw accumulation uses ``np.bincount``, whose C loop adds contributions
  sequentially in input order - the same ascending-block-id order the
  Python dict accumulation follows;
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
from repro.engine.segments import stable_groups
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

    # -- scalar compatibility (mirrors WeightingScheme.weight) ---------------

    def weight(self, i: int, j: int) -> float:
        """Edge weight of one pair, 0.0 when no block is shared."""
        common = np.intersect1d(
            self.index.blocks_of(i), self.index.blocks_of(j), assume_unique=True
        )
        if common.size == 0:
            return 0.0
        contributions = self.block_contributions()[common]
        # Sequential left-to-right sum, matching the reference sum().
        raw = np.cumsum(contributions)[-1:]
        out = self.finalize_all(
            np.asarray([i], dtype=np.int64), np.asarray([j], dtype=np.int64), raw
        )
        return float(out[0])


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

    Degrees and |E| come for free from the materialized graph: a
    profile's degree is its row length, and every distinct valid pair
    appears in exactly two rows.
    """

    name = "EJS"

    def __init__(self, index: ArrayProfileIndex) -> None:
        super().__init__(index)
        self._degrees: np.ndarray | None = None
        self._edge_count = 0
        self._log_degree: np.ndarray | None = None

    def prepare(self, graph: "ArrayBlockingGraph") -> None:
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

    def _ensure_prepared(self) -> None:
        """Self-prepare when used standalone (via the backend seam).

        Degrees depend only on the graph's row *structure*, which is the
        same for every contribution scheme, so a throwaway CBS-weighted
        graph over the same index supplies them.  A graph built *with*
        this instance calls :meth:`prepare` explicitly instead.
        """
        if self._log_degree is None:
            self.prepare(ArrayBlockingGraph(self.index, ArrayCBS(self.index)))

    def finalize_all(
        self, i: np.ndarray, j: np.ndarray, raw: np.ndarray
    ) -> np.ndarray:
        jaccard = super().finalize_all(i, j, raw)
        self._ensure_prepared()
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


class ArrayBlockingGraph:
    """The full weighted Blocking Graph in per-profile CSR form.

    ``indptr``/``neighbors`` give each profile's valid co-occurring
    neighbors ascending; ``raw``/``weights`` the accumulated and
    finalized edge weights; ``first_event_index`` the global event-stream
    index at which each edge was *first encountered*.  Events stream
    owner-major with blocks ascending - the dict-insertion order the
    reference implementation iterates - so sorting a profile's edges by
    ``first_event_index`` replays that order, which PPS's likelihood
    sums and tie-breaks rely on.

    ``payload`` is what the CSR-reading range kernels
    (:func:`graph_rows`, :func:`repro.engine.equality.block_pairs`)
    read; it lives on the graph so that a method running both (PBS)
    hands a pooled fan-out the same object twice and ships it once.
    """

    __slots__ = (
        "index",
        "scheme",
        "storage",
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
        self.payload: dict[str, Any] = {
            "n": index.n_profiles,
            "clean_clean": index.store.er_type is ERType.CLEAN_CLEAN,
            "sources": index.sources,
            "pb_indptr": index.pb_indptr,
            "pb_indices": index.pb_indices,
            "bp_indptr": index.bp_indptr,
            "bp_indices": index.bp_indices,
            "cardinalities": index.block_cardinalities,
            "contributions": self.scheme.block_contributions(),
        }
        self._build_rows(fanout)
        self.scheme.prepare(self)
        self._finalize_rows()
        self._edge_keys: np.ndarray | None = None
        self._edge_weights: np.ndarray | None = None

    # -- construction --------------------------------------------------------

    def _owner_event_mass(self) -> np.ndarray:
        """Co-occurrence events each owner expands into: every (owner,
        block) incidence contributes that block's size."""
        index = self.index
        incidence_events = np.diff(index.bp_indptr)[np.asarray(index.pb_indices)]
        cumulative = np.zeros(incidence_events.size + 1, dtype=np.int64)
        np.cumsum(incidence_events, out=cumulative[1:])
        return cumulative[index.pb_indptr[1:]] - cumulative[index.pb_indptr[:-1]]

    def _build_rows(self, fanout: Fanout) -> None:
        """Assemble the raw rows from :func:`graph_rows` over owner ranges.

        In RAM the fan-out's ranges are balanced on incidence counts
        (the inline fan-out returns the whole axis); with storage they
        are cut by event mass - sized so one range's expansion stays a
        few tens of MB - and each range's rows spill before the next is
        built.  Preparation (EJS degrees) and finalization need the
        *whole* graph and run afterwards, elementwise over the
        assembled rows.
        """
        index = self.index
        n = index.n_profiles
        if self.storage is None:
            ranges = fanout.ranges(n, np.diff(index.pb_indptr))
        else:
            ranges = fanout.ranges(n, self._owner_event_mass(), self.EVENT_BUDGET)
        neighbors = collector(self.storage, np.int64)
        raw = collector(self.storage, np.float64)
        first = collector(self.storage, np.int64)
        self.indptr = np.zeros(n + 1, dtype=np.int64)
        offset = 0
        rows = fanout.run(graph_rows, self.payload, ranges)
        for (lo, hi), result in zip(ranges, rows):
            self.indptr[lo + 1 : hi + 1] = result["row_lengths"]
            neighbors.append(result["neighbors"])
            raw.append(result["raw"])
            first.append(result["first"] + offset if offset else result["first"])
            offset += result["valid_count"]
        np.cumsum(self.indptr, out=self.indptr)
        self.neighbors = neighbors.finish()
        self.raw = raw.finish()
        self.first_event_index = first.finish()

    def _finalize_rows(self) -> None:
        """Elementwise normalization of the raw rows, owner range by
        owner range (one range in RAM, ~``DEFAULT_CHUNK`` edges each
        when the weights spill).  Always inline: the scheme's state
        (log factors, EJS degrees) lives in this process."""
        row_lengths = np.diff(self.indptr)
        budget = None if self.storage is None else DEFAULT_CHUNK
        weights = collector(self.storage, np.float64)
        for lo, hi in INLINE.ranges(self.index.n_profiles, row_lengths, budget):
            start, stop = int(self.indptr[lo]), int(self.indptr[hi])
            owners = np.repeat(np.arange(lo, hi, dtype=np.int64), row_lengths[lo:hi])
            weights.append(
                self.scheme.finalize_all(
                    owners,
                    np.asarray(self.neighbors[start:stop]),
                    np.asarray(self.raw[start:stop]),
                )
            )
        self.weights = weights.finish()

    # -- row access ----------------------------------------------------------

    def row(self, profile_id: int) -> tuple[np.ndarray, np.ndarray]:
        """(neighbors ascending, finalized weights) of one profile."""
        start, end = self.indptr[profile_id], self.indptr[profile_id + 1]
        return self.neighbors[start:end], self.weights[start:end]

    def degree(self, profile_id: int) -> int:
        """Number of distinct valid co-occurring neighbors."""
        return int(self.indptr[profile_id + 1] - self.indptr[profile_id])

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

    def edge_weights_for(self, pair_keys: np.ndarray) -> np.ndarray:
        """Weights for canonical pair keys ``i * n + j`` (0.0 if absent).

        Keys built row-major from ascending rows are already sorted, so
        the lookup is a single ``searchsorted``.
        """
        self._ensure_edge_lookup()
        assert self._edge_keys is not None and self._edge_weights is not None
        positions = np.searchsorted(self._edge_keys, pair_keys)
        out = np.zeros(pair_keys.shape, dtype=np.float64)
        in_range = positions < self._edge_keys.size
        hit = np.zeros(pair_keys.shape, dtype=bool)
        hit[in_range] = self._edge_keys[positions[in_range]] == pair_keys[in_range]
        out[hit] = self._edge_weights[positions[hit]]
        return out

    def weight(self, i: int, j: int) -> float:
        """Edge weight of one pair (scalar compatibility shim)."""
        neighbors, weights = self.row(i)
        position = int(np.searchsorted(neighbors, j))
        if position < neighbors.size and neighbors[position] == j:
            return float(weights[position])
        return 0.0
