"""LS-PSN - Local Schema-Agnostic Progressive Sorted Neighborhood (§5.1.1).

LS-PSN replaces SA-PSN's blind window scan with a *weighted* Neighbor
List: for the current window size w, every pair co-occurring at distance w
is scored with a co-occurrence weighting scheme (RCF by default) and the
window's comparisons are emitted from the highest weight to the lowest
(Algorithms 1 and 2 of the paper).  The order is *local* to each window:
when a window's Comparison List drains, the window grows by one and the
weighting repeats - so a pair co-occurring at several distances can be
re-emitted in later windows (the drawback GS-PSN removes).

Backends: ``backend="python"`` (default) probes the Position Index
profile by profile; ``backend="numpy"`` slides the whole Neighbor List
at once - window w's events are the aligned pairs
``(entries[:-w], entries[w:])`` - and scores them in one grouped array
pass (:mod:`repro.engine.similarity`).  Same stream either way.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, Sequence

from repro.blocking.substrate import method_substrate
from repro.core.comparisons import Comparison, ComparisonList
from repro.core.profiles import ERType, ProfileStore
from repro.core.tokenization import DEFAULT_TOKENIZER, Tokenizer
from repro.neighborlist.neighbor_list import NeighborList
from repro.neighborlist.position_index import PositionIndex
from repro.engine import get_backend
from repro.neighborlist.rcf import NeighborWeighting, make_neighbor_weighting
from repro.progressive.base import ProgressiveMethod, register_method

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.contracts import BlockingSubstrate
    from repro.engine import Backend
    from repro.engine.similarity import ArrayPSNCore


class _SimilarityBase(ProgressiveMethod):
    """Shared machinery of LS-PSN and GS-PSN: NL, Position Index, scoring."""

    def __init__(
        self,
        store: ProfileStore,
        tokenizer: Tokenizer = DEFAULT_TOKENIZER,
        weighting: str | NeighborWeighting = "RCF",
        tie_order: str = "random",
        seed: int | None = 0,
        backend: "str | Backend" = "python",
        substrate: "BlockingSubstrate | None" = None,
    ) -> None:
        super().__init__(store)
        self.tokenizer = tokenizer
        self.weighting = (
            weighting
            if isinstance(weighting, NeighborWeighting)
            else make_neighbor_weighting(weighting)
        )
        self.backend = get_backend(backend).require()
        self.tie_order = tie_order
        self.seed = seed
        # The Neighbor List comes from the substrate's cached tokenization
        # sweep (by design it sees the unpurged, unfiltered pair stream -
        # the substrate's ratios never apply to it).
        self._substrate = method_substrate(self.backend, store, substrate, tokenizer)
        self.neighbor_list: NeighborList | None = None
        self.position_index: PositionIndex | None = None
        self._scan_ids: list[int] = []
        self._core: "ArrayPSNCore | None" = None

    def _build_structures(self) -> None:
        self.neighbor_list = self._substrate.neighbor_list(self.tie_order, self.seed)
        if self.backend.vectorized:
            self._core = self.backend.psn_core(
                self.neighbor_list, self.store, self.weighting
            )
            return
        self.position_index = PositionIndex(self.neighbor_list)
        # Dirty ER counts each pair from the larger id's side (the paper's
        # "j < i" check); Clean-clean iterates source-0 profiles and admits
        # source-1 neighbors only.
        if self.store.er_type is ERType.CLEAN_CLEAN:
            self._scan_ids = [
                pid
                for pid in self.position_index.indexed_profiles()
                if self.store.source_of(pid) == 0
            ]
        else:
            self._scan_ids = self.position_index.indexed_profiles()

    def _valid_neighbor(self, i: int, j: int) -> bool:
        if self.store.er_type is ERType.CLEAN_CLEAN:
            return self.store.source_of(j) == 1
        return j < i

    def _neighbor_frequencies(
        self, profile_id: int, distances: Sequence[int]
    ) -> dict[int, int]:
        """Co-occurrence counts of ``profile_id``'s valid neighbors.

        Looks ``distance`` positions left and right of every position of
        the profile, for each distance - Algorithm 1 lines 8-16.
        """
        assert self.neighbor_list is not None and self.position_index is not None
        entries = self.neighbor_list.entries
        size = len(entries)
        frequency: dict[int, int] = {}
        for position in self.position_index.positions_of(profile_id):
            for distance in distances:
                after = position + distance
                if after < size:
                    neighbor = entries[after]
                    if self._valid_neighbor(profile_id, neighbor):
                        frequency[neighbor] = frequency.get(neighbor, 0) + 1
                before = position - distance
                if before >= 0:
                    neighbor = entries[before]
                    if self._valid_neighbor(profile_id, neighbor):
                        frequency[neighbor] = frequency.get(neighbor, 0) + 1
        return frequency

    def _score_neighbors(
        self, profile_id: int, frequency: dict[int, int]
    ) -> Iterator[Comparison]:
        assert self.position_index is not None
        for neighbor, count in frequency.items():
            weight = self.weighting.weight(
                count, profile_id, neighbor, self.position_index
            )
            yield Comparison.make(profile_id, neighbor, weight)


@register_method("LSPSN")
class LSPSN(_SimilarityBase):
    """Local schema-agnostic PSN: per-window weighting and emission.

    Parameters
    ----------
    store:
        The profiles to resolve.
    tokenizer:
        Attribute-value tokenizer providing the blocking keys.
    weighting:
        Co-occurrence weighting scheme name or instance (default RCF).
    tie_order, seed:
        Order inside equal-token runs.
    max_window:
        Optional window cap (positive); None grows the window to the
        list size (Algorithm 2's termination condition).
    backend:
        Execution backend: ``"python"`` (reference) or ``"numpy"``
        (array window kernels, requires the ``repro[speed]`` extra).
    substrate:
        A pre-built session :class:`~repro.contracts.BlockingSubstrate`
        serving the Neighbor List from its cached tokenization sweep.
    """

    name = "LS-PSN"

    def __init__(
        self,
        store: ProfileStore,
        tokenizer: Tokenizer = DEFAULT_TOKENIZER,
        weighting: str | NeighborWeighting = "RCF",
        tie_order: str = "random",
        seed: int | None = 0,
        max_window: int | None = None,
        backend: str = "python",
        substrate: "BlockingSubstrate | None" = None,
    ) -> None:
        if max_window is not None and max_window < 1:
            raise ValueError("max_window must be positive")
        super().__init__(
            store, tokenizer, weighting, tie_order, seed, backend, substrate
        )
        self.max_window = max_window

    def _setup(self) -> None:
        self._build_structures()

    def window_comparisons(self, window: int) -> ComparisonList:
        """All weighted comparisons of one window size (Alg. 1 lines 5-20)."""
        if self._core is not None:
            return ComparisonList(self._core.window_comparisons((window,)))
        comparisons = ComparisonList()
        for profile_id in self._scan_ids:
            frequency = self._neighbor_frequencies(profile_id, (window,))
            comparisons.extend(self._score_neighbors(profile_id, frequency))
        return comparisons

    def _emit(self) -> Iterator[Comparison]:
        assert self.neighbor_list is not None
        size = len(self.neighbor_list)
        limit = size if self.max_window is None else min(size, self.max_window + 1)
        if self._core is not None:
            for window in range(1, limit):
                yield from self._core.window_comparisons((window,))
            return
        for window in range(1, limit):
            yield from self.window_comparisons(window).drain()
