"""Array window kernels for the similarity-based methods (LS/GS-PSN).

The reference implementation scans the Neighbor List profile by profile,
position by position (Algorithm 1 lines 8-16).  The array core slides
the *whole list at once*: for window distance ``w`` the co-occurrence
events are exactly the aligned pairs ``(entries[:-w], entries[w:])``, so
one shifted comparison plus a grouped count replaces the per-profile
Position Index probing.  Weighting (RCF or CF) is one element-wise
expression over the grouped counts.

Event-counting equivalence: the reference counts each positional pair
once - from the larger id's side for Dirty ER (the ``j < i`` check),
from the source-0 side for Clean-clean - which is precisely "every
aligned pair at distance w whose two profiles form a valid comparison".
Weights are exact integer-ratio arithmetic, so streams match the
reference bit for bit; emission order is the shared ``(-weight, i, j)``.

Custom :class:`~repro.neighborlist.rcf.NeighborWeighting` strategies
still work: frequencies are computed vectorized, then the strategy is
applied pair-by-pair with the core itself as its index (it answers
``appearance_count`` from the counts RCF reads).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Sequence

from repro.core.comparisons import Comparison
from repro.core.profiles import ERType, ProfileStore
from repro.engine import require_numpy
from repro.engine.fanout import INLINE, Fanout
from repro.engine.topk import iter_comparisons, rank_pairs
from repro.neighborlist.rcf import CFWeighting, NeighborWeighting, RCFWeighting

require_numpy("repro.engine.similarity")

import numpy as np  # noqa: E402  (guarded optional dependency)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.neighborlist.neighbor_list import NeighborList


def window_counts(
    payload: dict[str, Any], shard: tuple[int, int, tuple[int, ...]]
) -> tuple[np.ndarray, np.ndarray]:
    """Range kernel: grouped co-occurrence counts of positions ``[lo, hi)``.

    For window distance ``d`` the events are the aligned pairs
    ``(entries[p], entries[p + d])``; the range owns positions ``p`` in
    ``[lo, hi)``, across every requested distance.  Returns the valid
    pairs' canonical keys (sorted, unique) with their counts.  Counts
    are integers over per-pair disjoint events, so summing the ranges'
    groupings equals one ``np.unique`` over the whole list.
    """
    lo, hi, distances = shard
    entries = payload["entries"]
    sources = payload["sources"]
    size = entries.shape[0]
    key_chunks: list[np.ndarray] = []
    for distance in distances:
        if distance < 1 or distance >= size:
            continue
        stop = min(hi, size - distance)
        if lo >= stop:
            continue
        a = np.asarray(entries[lo:stop])
        b = np.asarray(entries[lo + distance : stop + distance])
        if payload["clean_clean"]:
            valid = sources[a] != sources[b]
        else:
            valid = a != b
        low = np.minimum(a[valid], b[valid])
        high = np.maximum(a[valid], b[valid])
        key_chunks.append(low * payload["n_profiles"] + high)
    if not key_chunks:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    keys = key_chunks[0] if len(key_chunks) == 1 else np.concatenate(key_chunks)
    return np.unique(keys, return_counts=True)


class ArrayPSNCore:
    """Vectorized window scoring over one Neighbor List.

    Parameters
    ----------
    neighbor_list:
        The (already built) Neighbor List; only ``entries`` is read.
    store:
        Task shape provider (Dirty vs Clean-clean validity).
    weighting:
        A :class:`NeighborWeighting` strategy instance.  RCF and CF run
        fully vectorized; any other strategy gets vectorized frequencies
        and a per-pair Python fallback for the weights.
    fanout:
        The ranges the counting and ranking kernels run over, and who
        runs them.
    """

    __slots__ = (
        "entries",
        "weighting",
        "fanout",
        "n_profiles",
        "_payload",
        "_appearances",
    )

    def __init__(
        self,
        neighbor_list: "NeighborList",
        store: ProfileStore,
        weighting: NeighborWeighting,
        fanout: Fanout = INLINE,
    ) -> None:
        self.entries = np.asarray(neighbor_list.entries, dtype=np.int64)
        self.weighting = weighting
        self.fanout = fanout
        self.n_profiles = len(store)
        # One payload object for the whole core: a pooled fan-out ships
        # it once and every window of an LS-PSN run reuses it.
        self._payload: dict[str, Any] = {
            "entries": self.entries,
            "sources": np.fromiter(
                (profile.source for profile in store),
                dtype=np.int64,
                count=self.n_profiles,
            ),
            "clean_clean": store.er_type is ERType.CLEAN_CLEAN,
            "n_profiles": self.n_profiles,
        }
        self._appearances = np.bincount(self.entries, minlength=self.n_profiles)

    def appearance_count(self, profile_id: int) -> int:
        """|PI[i]| - how many blocking keys the profile contributed."""
        return int(self._appearances[profile_id])

    # -- frequency counting --------------------------------------------------

    def pair_frequencies(
        self, distances: Sequence[int]
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(i, j, frequency) for every valid pair co-occurring at any of
        the given window distances (frequencies accumulate across them).

        Pairs come back canonical (i < j) and key-sorted; the caller
        re-sorts by weight for emission anyway.
        """
        windows = tuple(int(distance) for distance in distances)
        shards = [
            (lo, hi, windows)
            for lo, hi in self.fanout.ranges(int(self.entries.size))
        ]
        keys, frequencies = self.fanout.merge_counts(
            list(self.fanout.run(window_counts, self._payload, shards))
        )
        return keys // self.n_profiles, keys % self.n_profiles, frequencies

    # -- weighting -----------------------------------------------------------

    def _vector_weights(
        self, i: np.ndarray, j: np.ndarray, frequencies: np.ndarray
    ) -> np.ndarray:
        if isinstance(self.weighting, RCFWeighting):
            appearances = self._appearances[i] + self._appearances[j]
            denominator = appearances - frequencies
            out = frequencies.astype(np.float64)
            positive = denominator > 0
            np.divide(frequencies, denominator, out=out, where=positive)
            return out
        if isinstance(self.weighting, CFWeighting):
            return frequencies.astype(np.float64)
        # Custom strategy: vectorized counting, per-pair weighting.
        return np.fromiter(
            (
                self.weighting.weight(int(freq), int(pi), int(pj), self)
                for pi, pj, freq in zip(i, j, frequencies, strict=True)
            ),
            dtype=np.float64,
            count=i.size,
        )

    # -- emission ------------------------------------------------------------

    def window_arrays(
        self, distances: Sequence[int]
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(i, j, weight) of one window range, in emission order."""
        i, j, frequencies = self.pair_frequencies(distances)
        weights = self._vector_weights(i, j, frequencies)
        return rank_pairs(i, j, weights)

    def window_comparisons(self, distances: Sequence[int]) -> list[Comparison]:
        """Weighted comparisons of one window range, best first."""
        return list(iter_comparisons(*self.window_arrays(distances)))
