"""GS-PSN - Global Schema-Agnostic Progressive Sorted Neighborhood (§5.1.2).

GS-PSN removes LS-PSN's repeated emissions by computing one *global*
execution order for all windows in [1, w_max]: co-occurrence frequencies
are accumulated over the whole window range and every distinct pair is
scored exactly once.  The emission phase then simply drains the global
Comparison List (constant time, no refills).

The trade-off (Table 1): space grows with w_max because all comparisons of
the window range live in memory at once - the reason the paper capped
GS-PSN's comparisons on freebase.

Faithfulness note: the paper describes converting Algorithm 1's line 1
into a loop over window sizes placed around lines 8-19.  Taken literally
that would add one comparison per (neighbor, window) pair, contradicting
the stated goal of eliminating repeats; we accumulate frequencies over the
full range and weight each distinct neighbor once, matching the stated
semantics (see DESIGN.md).

Backends: ``backend="python"`` (default) accumulates per-profile dicts;
``backend="numpy"`` counts the whole window range with shifted-array
events and one grouped pass (:mod:`repro.engine.similarity`), holding
the global order as three flat arrays instead of an object list.  Same
stream either way.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from repro.core.comparisons import Comparison, ComparisonList, comparison_chunks
from repro.core.profiles import ProfileStore
from repro.neighborlist.rcf import NeighborWeighting
from repro.progressive.base import register_method
from repro.progressive.ls_psn import _SimilarityBase

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.contracts import BlockingSubstrate


@register_method("GSPSN")
class GSPSN(_SimilarityBase):
    """Global schema-agnostic PSN over the window range [1, w_max].

    Parameters
    ----------
    store:
        The profiles to resolve.
    max_window:
        w_max - the window range bound.  The paper uses 20 for the
        structured datasets and 200 for the large heterogeneous ones.
    weighting:
        Co-occurrence weighting scheme name or instance (default RCF).
    tie_order, seed:
        Order inside equal-token runs.
    backend:
        Execution backend: ``"python"`` (reference) or ``"numpy"``
        (array window kernels, requires the ``repro[speed]`` extra).
    substrate:
        A pre-built session :class:`~repro.contracts.BlockingSubstrate`
        serving the Neighbor List from its cached tokenization sweep.
    """

    name = "GS-PSN"

    def __init__(
        self,
        store: ProfileStore,
        max_window: int = 20,
        weighting: str | NeighborWeighting = "RCF",
        tie_order: str = "random",
        seed: int | None = 0,
        backend: str = "python",
        substrate: "BlockingSubstrate | None" = None,
    ) -> None:
        if max_window < 1:
            raise ValueError("max_window must be positive")
        super().__init__(store, weighting, tie_order, seed, backend, substrate)
        self.max_window = max_window
        self._comparisons: ComparisonList | None = None
        self._window_arrays: tuple | None = None

    def _setup(self) -> None:
        self._build_structures()
        assert self.neighbor_list is not None
        window_range = range(1, min(self.max_window, len(self.neighbor_list)) + 1)
        distances = tuple(window_range)
        if self._core is not None:
            # The global order as flat (i, j, weight) arrays - the whole
            # initialization phase is one grouped array pass.
            self._window_arrays = self._core.window_arrays(distances)
            return
        comparisons = ComparisonList()
        for profile_id in self._scan_ids:
            frequency = self._neighbor_frequencies(profile_id, distances)
            comparisons.extend(self._score_neighbors(profile_id, frequency))
        self._comparisons = comparisons

    def _chunks(self) -> Iterator[list[Comparison]]:
        if self._core is None:
            return super()._chunks()
        # Consume the arrays on first emission, mirroring the python
        # path's destructive ComparisonList.drain: a second iteration
        # yields nothing on either backend.
        arrays, self._window_arrays = self._window_arrays, None
        if arrays is None:
            return iter(())
        return comparison_chunks(*arrays, self._core.ids)

    def _emit(self) -> Iterator[Comparison]:
        assert self._comparisons is not None
        yield from self._comparisons.drain()
