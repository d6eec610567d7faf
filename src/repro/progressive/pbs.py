"""PBS - Progressive Block Scheduling (§5.2.1, Algorithms 3-4).

Equality-based: blocks from the Token Blocking workflow are scheduled in
non-decreasing cardinality (small, distinctive blocks first - block weight
1/||b||); inside every block, the non-repeated comparisons are ordered by
their Blocking Graph edge weight.  Repeats are detected with the **LeCoBI**
condition on the Profile Index: a comparison is new in block b_k iff k is
the least common block id of its two profiles.

Backends: ``backend="python"`` (default) runs the reference per-pair
merges; ``backend="numpy"`` does the same thing a range of scheduled
blocks at a time - enumerate the range's pairs, probe the Profile Index
for each pair's common blocks (the first is the LeCoBI test, their
contributions the weight), order, stream (:mod:`repro.engine.equality`).
Both weight a block when it is scheduled: neither builds the Blocking
Graph, and a run that stops early never pays for the blocks it did not
reach.  Same stream, measured multiples faster.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from repro.blocking.base import BlockCollection
from repro.blocking.scheduling import block_scheduling
from repro.blocking.substrate import method_substrate
from repro.core.comparisons import Comparison, ComparisonList
from repro.core.profiles import ProfileStore
from repro.engine import get_backend
from repro.errors import ConfigError
from repro.metablocking.profile_index import ProfileIndex
from repro.metablocking.weights import WeightingScheme, make_scheme
from repro.progressive.base import ProgressiveMethod, register_method

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.contracts import BlockingSubstrate
    from repro.engine import Backend
    from repro.engine.equality import ArrayPBSCore


@register_method("PBS")
class PBS(ProgressiveMethod):
    """Progressive Block Scheduling.

    Parameters
    ----------
    store:
        The profiles to resolve.
    weighting:
        Blocking Graph edge weighting scheme (paper default: ARCS).
    blocks:
        Pre-built redundancy-positive blocks; when None the paper's Token
        Blocking workflow (purging 10%, filtering 80%) is applied.
    purge_ratio, filter_ratio:
        Workflow knobs exposed for the ablation benches.
    substrate:
        A pre-built session :class:`~repro.contracts.BlockingSubstrate`
        (the Resolver injects its shared one so the whole session
        tokenizes the store exactly once); it must come from the same
        kind of backend (``ConfigError`` otherwise).  Ignored when
        ``blocks`` is given.
    backend:
        Execution backend: ``"python"`` (reference) or ``"numpy"`` (CSR
        engine, requires the ``repro[speed]`` extra); same stream either
        way.
    """

    name = "PBS"

    def __init__(
        self,
        store: ProfileStore,
        weighting: str = "ARCS",
        blocks: BlockCollection | None = None,
        purge_ratio: float | None = 0.1,
        filter_ratio: float | None = 0.8,
        backend: "str | Backend" = "python",
        substrate: "BlockingSubstrate | None" = None,
    ) -> None:
        super().__init__(store)
        self.weighting_name = weighting
        self.backend = get_backend(backend).require()
        self._input_blocks = blocks
        self._substrate = (
            None
            if blocks is not None
            else method_substrate(
                self.backend, store, substrate, purge_ratio, filter_ratio
            )
        )
        self.purge_ratio = purge_ratio
        self.filter_ratio = filter_ratio
        self.scheduled: BlockCollection | None = None
        self.profile_index: ProfileIndex | None = None
        self.scheme: WeightingScheme | None = None
        self._core: "ArrayPBSCore | None" = None

    def _setup(self) -> None:
        substrate = self._substrate
        if substrate is None:
            assert self._input_blocks is not None
            self.scheduled = block_scheduling(self._input_blocks)
        if self.backend.vectorized:
            # From a substrate the CSR index comes straight from its
            # postings: no Block objects, and ``self.scheduled`` stays
            # None (the emission runs off the core).
            self._setup_core(self.scheduled if substrate is None else substrate)
            return
        if substrate is not None:
            # Scheduled index served (and cached) by the substrate -
            # shared with every other consumer of the session.
            self.profile_index = substrate.profile_index("schedule")
            self.scheduled = self.profile_index.collection
        else:
            self.profile_index = ProfileIndex(self.scheduled)
        self.scheme = make_scheme(self.weighting_name, self.profile_index)

    def _setup_core(self, scheduled: "BlockCollection | BlockingSubstrate") -> None:
        """The vectorized structures over scheduled blocks or a substrate.

        The graph is obtained through ``backend.blocking_graph`` - the
        seam is the weight authority - but the core never reads its
        rows, so none are built (EJS's degrees excepted).
        """
        index = self.backend.profile_index(scheduled)
        graph = self.backend.blocking_graph(index, self.weighting_name)
        self._core = self.backend.pbs_core(index, graph)
        self.profile_index = index
        self.scheme = graph

    def block_comparisons(self, block_id: int) -> ComparisonList:
        """New (non-repeated) weighted comparisons of one block.

        Algorithm 3 lines 4-12: LeCoBI filters repeats; survivors get the
        Blocking Graph edge weight of their pair.  ``block_id`` is a
        position in the schedule; anything outside it raises
        ``IndexError``.  A step of the reference emission, so
        ``backend="python"`` only (an array backend weights a range of
        blocks at a time).
        """
        if self._core is not None:
            raise ConfigError(
                "block_comparisons is a step of the reference emission: "
                'use backend="python"'
            )
        assert self.profile_index is not None and self.scheme is not None
        block_count = self.profile_index.block_count()
        if not 0 <= block_id < block_count:
            raise IndexError(
                f"block id {block_id} out of range: the schedule holds "
                f"blocks 0 <= id < {block_count}"
            )
        assert self.scheduled is not None
        block = self.scheduled[block_id]
        er_type = self.store.er_type
        comparisons = ComparisonList()
        for candidate in block.comparisons(er_type):
            if not self.profile_index.is_first_encounter(
                candidate.i, candidate.j, block.block_id
            ):
                continue
            weight = self.scheme.weight(candidate.i, candidate.j)
            comparisons.add(Comparison(candidate.i, candidate.j, weight))
        return comparisons

    def _chunks(self) -> Iterator[list[Comparison]]:
        if self._core is None:
            return super()._chunks()
        return self._core.chunks()

    def _emit(self) -> Iterator[Comparison]:
        assert self.scheduled is not None
        for block_id in range(len(self.scheduled)):
            yield from self.block_comparisons(block_id).drain()
