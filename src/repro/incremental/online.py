"""ONLINE - globally ranked weighted emission (the incremental anchor).

The paper's progressive methods interleave scheduling heuristics with
emission; an *online* session needs a simpler, stable contract: every
candidate comparison of the corpus, ranked best-first by the configured
Blocking Graph weighting scheme under the system-wide total order
``(-weight, i, j)``.  That is what this method emits - and what the
incremental path (:class:`~repro.incremental.resolver.IncrementalResolver`)
reproduces chunk by chunk:

* ingesting a dataset in any number of chunks emits exactly this
  method's comparison *set* (each pair surfaces when its later profile
  arrives), and
* a full re-ranking of the final state (``stream()``) replays this
  method's comparison *order*, bit-identically, on both backends.

To make that parity exact, blocks are indexed in deterministic
alphabetical key order (Token Blocking's native order) rather than by
cardinality scheduling: per-pair weight accumulation then follows
ascending alphabetical block ids - the same order the live index
scores in - so floating-point sums agree to the last bit.

The emission materializes all candidate pairs before ranking (a global
sort is the point); for budgeted exploratory runs on large corpora
prefer PPS/PBS, which schedule without materializing the full graph.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from repro.blocking.base import BlockCollection
from repro.blocking.substrate import method_substrate
from repro.core.comparisons import Comparison, comparison_chunks
from repro.core.profiles import ProfileStore
from repro.engine import get_backend
from repro.metablocking.profile_index import ProfileIndex
from repro.metablocking.weights import WeightingScheme, make_scheme
from repro.progressive.base import ProgressiveMethod
from repro.registry import progressive_methods

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.contracts import BlockingSubstrate
    from repro.engine.weights import ArrayBlockingGraph


class OnlineRanked(ProgressiveMethod):
    """Global weighted ranking of all candidate comparisons.

    Parameters
    ----------
    store:
        The profiles to resolve.
    weighting:
        Blocking Graph edge weighting scheme (paper default: ARCS).
    blocks:
        Pre-built redundancy-positive blocks; when None the Token
        Blocking workflow builds them (``purge_ratio``/``filter_ratio``
        knobs below).
    purge_ratio, filter_ratio:
        Workflow knobs (ignored when ``blocks`` or ``substrate`` is given).
    substrate:
        A pre-built session :class:`~repro.contracts.BlockingSubstrate`
        (the Resolver injects its shared one so the whole session
        tokenizes the store exactly once); it must come from the same
        kind of backend (``ConfigError`` otherwise).  Ignored when
        ``blocks`` is given.
    backend:
        ``"python"`` (reference) or ``"numpy"`` (CSR engine: one
        :class:`~repro.engine.weights.ArrayBlockingGraph` build plus one
        ``lexsort``); identical stream either way.
    """

    name = "ONLINE"

    def __init__(
        self,
        store: ProfileStore,
        weighting: str = "ARCS",
        blocks: BlockCollection | None = None,
        purge_ratio: float | None = 0.1,
        filter_ratio: float | None = 0.8,
        backend: str = "python",
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
        self.profile_index: ProfileIndex | None = None
        self.scheme: WeightingScheme | None = None
        self._graph: "ArrayBlockingGraph | None" = None

    # -- initialization phase -------------------------------------------------

    def _setup(self) -> None:
        # Alphabetical key order, not cardinality scheduling: block ids
        # must match the live index's accumulation order.
        if self._substrate is not None:
            # Served (and cached) by the substrate; the postings are
            # already in key order, so the array path never materializes
            # Block objects.
            index = self._substrate.profile_index("alpha")
        else:
            assert self._input_blocks is not None
            ordered = BlockCollection(
                sorted(self._input_blocks.blocks, key=lambda block: block.key),
                self.store,
            )
            ordered.assign_block_ids()
            index = (
                self.backend.profile_index(ordered)
                if self.backend.vectorized
                else ProfileIndex(ordered)
            )
        self.profile_index = index
        if self.backend.vectorized:
            self._graph = self.backend.blocking_graph(index, self.weighting_name)
            self.scheme = self._graph  # type: ignore[assignment]
        else:
            self.scheme = make_scheme(self.weighting_name, index)

    # -- emission phase -------------------------------------------------------

    def _chunks(self) -> Iterator[list[Comparison]]:
        if self._graph is None:
            return super()._chunks()
        from repro.engine.topk import rank_pairs

        ranked = rank_pairs(*self._graph.edges())
        return comparison_chunks(*ranked, self._graph.index.ids)

    def _emit(self) -> Iterator[Comparison]:
        assert self.profile_index is not None and self.scheme is not None
        index = self.profile_index
        scheme = self.scheme
        store = self.store
        ranked: list[Comparison] = []
        for profile_id in index.indexed_profiles():
            # Each pair is owned by its smaller id; contributions
            # accumulate over the owner's blocks ascending - the same
            # per-pair order as from the other side.
            weights: dict[int, float] = {}
            for block_id in index.blocks_of(profile_id):
                contribution = scheme.contribution(block_id)
                for neighbor in index.collection[block_id].ids:
                    if neighbor <= profile_id:
                        continue
                    if not store.valid_comparison(profile_id, neighbor):
                        continue
                    weights[neighbor] = weights.get(neighbor, 0.0) + contribution
            ranked.extend(
                Comparison(
                    profile_id,
                    neighbor,
                    scheme.finalize(profile_id, neighbor, raw),
                )
                for neighbor, raw in weights.items()
            )
        ranked.sort(key=lambda c: (-c.weight, c.i, c.j))
        yield from ranked


progressive_methods.register(
    "ONLINE", OnlineRanked, aliases=("incremental", "ranked", "online-ranked")
)
