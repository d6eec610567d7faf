"""Comparisons and the Comparison List.

A *comparison* c_ij is a candidate pair of profiles handed to the match
function.  Progressive methods emit comparisons in non-increasing estimated
matching likelihood; the paper's methods buffer the current batch of best
comparisons in a *Comparison List* (Section 5) that is refilled whenever it
runs empty.
"""

from __future__ import annotations

import gc
import heapq
import threading
from contextlib import contextmanager
from itertools import islice, repeat
from typing import Any, Iterable, Iterator, NamedTuple

from repro.core.ground_truth import normalize_pair

#: The most comparisons a method hands its consumer at a time (a chunk,
#: in emission order); also how far a ``seconds`` budget can overshoot.
#: A chunk is built with the cyclic collector paused, so this also sets
#: how many comparisons one collection is deferred over: shrinking it
#: brings collections back.
CHUNK_SIZE = 1 << 12

#: Makes reading and setting the collector's state one step across threads.
_PAUSES = threading.RLock()


class Comparison(NamedTuple):
    """A candidate pair with its estimated matching likelihood.

    ``i < j`` always holds (pairs are unordered); ``weight`` is the score
    assigned by the emitting method, higher meaning more likely to match.
    """

    i: int
    j: int
    weight: float = 0.0

    @classmethod
    def make(cls, i: int, j: int, weight: float = 0.0) -> "Comparison":
        """Build a comparison with the pair in canonical order."""
        a, b = normalize_pair(i, j)
        return cls(a, b, weight)

    @property
    def pair(self) -> tuple[int, int]:
        """The canonical (min, max) profile-id pair."""
        return (self.i, self.j)


@contextmanager
def _collector_paused() -> Iterator[None]:
    """Build a batch of comparisons with the cyclic collector off.

    CPython never untracks a tuple subclass, so a burst of ``Comparison``
    objects fires young collections, and the ones a consumer keeps are
    promoted until full collections walk the whole heap, again and
    again.  Paused, a burst fires one young collection after it ends;
    refcounting still frees all else, so only cyclic garbage waits.

    A caller that disabled the collector keeps it disabled.  Pauses that
    overlap in several threads end with it enabled (a thread finding it
    re-enabled partway only builds slower).  The one case not honoured
    is another thread calling ``gc.disable()`` during a pause: the
    pause's end enables the collector again.
    """
    with _PAUSES:
        enabled = gc.isenabled()
        gc.disable()
    try:
        yield
    finally:
        if enabled:
            with _PAUSES:
                gc.enable()


def chunked(comparisons: Iterable[Comparison]) -> Iterator[list[Comparison]]:
    """``comparisons`` in consecutive chunks of at most :data:`CHUNK_SIZE`,
    each built with the collector paused."""
    iterator = iter(comparisons)
    while True:
        with _collector_paused():
            chunk = list(islice(iterator, CHUNK_SIZE))
        if not chunk:
            return
        yield chunk


def to_comparisons(i: Any, j: Any, weights: Any, ids: Any) -> list[Comparison]:
    """Comparisons from parallel ``(i, j, weight)`` arrays, in one
    C-level pass (``tuple.__new__`` skips the class's Python ``__new__``)
    with the collector paused.

    They share their fields, so a held comparison costs its tuple alone:
    ids are read from ``ids``, the session's object array of every
    profile id, and equal weights (by bit pattern, so ``-0.0`` and NaN
    payloads stay as they are) are one ``float`` within the chunk.
    """
    import numpy as np  # the array engine's callers already loaded it

    bits, inverse = np.unique(weights.view(np.int64), return_inverse=True)
    with _collector_paused():
        shared = bits.view(weights.dtype).astype(object)[inverse]
        rows = zip(ids[i].tolist(), ids[j].tolist(), shared.tolist())
        return list(map(tuple.__new__, repeat(Comparison), rows))


def comparison_chunks(
    i: Any, j: Any, weights: Any, ids: Any
) -> Iterator[list[Comparison]]:
    """Ranked parallel arrays as chunks, each built when asked for."""
    for lo in range(0, len(weights), CHUNK_SIZE):
        hi = lo + CHUNK_SIZE
        yield to_comparisons(i[lo:hi], j[lo:hi], weights[lo:hi], ids)


class ComparisonList:
    """A buffer of comparisons sorted in non-increasing weight.

    This is the paper's Comparison List: the initialization phase (and each
    refill during emission) bulk-loads a batch of weighted comparisons; the
    emission phase pops them from the best to the worst.  Bulk loading plus
    one sort is cheaper than maintaining a heap when the whole batch is
    known up front, which is exactly the access pattern of LS-PSN, GS-PSN,
    PBS and PPS.

    Ties are broken deterministically by ascending pair so that runs are
    reproducible.
    """

    __slots__ = ("_items", "_sorted")

    def __init__(self, comparisons: Iterable[Comparison] = ()) -> None:
        self._items: list[Comparison] = list(comparisons)
        self._sorted = False

    def add(self, comparison: Comparison) -> None:
        """Append a comparison (invalidates the current ordering)."""
        self._items.append(comparison)
        self._sorted = False

    def extend(self, comparisons: Iterable[Comparison]) -> None:
        """Append many comparisons (invalidates the current ordering)."""
        self._items.extend(comparisons)
        self._sorted = False

    def _ensure_sorted(self) -> None:
        if not self._sorted:
            # Highest weight first; ties by ascending (i, j) for determinism.
            self._items.sort(key=lambda c: (-c.weight, c.i, c.j))
            self._sorted = True

    def drain(self) -> Iterator[Comparison]:
        """Yield all comparisons from best to worst, emptying the list."""
        self._ensure_sorted()
        items, self._items = self._items, []
        yield from items

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator[Comparison]:
        self._ensure_sorted()
        return iter(list(self._items))


class SortedStack:
    """Bounded min-heap keeping the K_max highest-weighted comparisons.

    The paper's PPS emission phase (Section 5.2.2) uses a "SortedStack"
    whose head is always the *lowest*-weighted comparison so that it can be
    discarded in O(1) when the stack exceeds K_max.  A binary heap gives the
    same contract with O(log n) push/pop, which is what the constant-factor
    "sorted" structure amounts to in practice.
    """

    __slots__ = ("_heap",)

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, int, Comparison]] = []

    def push(self, comparison: Comparison) -> None:
        """Insert a comparison, keeping the lowest weight on top."""
        # (weight, -i, -j) ordering: on weight ties the *larger* pair is
        # considered lower priority, matching ComparisonList's tie-break.
        heapq.heappush(
            self._heap,
            (comparison.weight, -comparison.i, -comparison.j, comparison),
        )

    def pop(self) -> Comparison:
        """Remove and return the lowest-weighted comparison."""
        if not self._heap:
            raise IndexError("SortedStack is empty")
        return heapq.heappop(self._heap)[3]

    def __len__(self) -> int:
        return len(self._heap)

    def drain_descending(self) -> list[Comparison]:
        """Empty the stack, returning comparisons from best to worst."""
        ascending = [heapq.heappop(self._heap)[3] for _ in range(len(self._heap))]
        ascending.reverse()
        return ascending
