"""PPS - Progressive Profile Scheduling (§5.2.2, Algorithms 5-6).

Entity-centric equality-based method built on the *duplication likelihood*
of individual profiles: the average Blocking Graph edge weight of a
profile's neighborhood.  The initialization phase (Algorithm 5) computes,
in one pass over the Profile Index,

* each profile's duplication likelihood -> the **Sorted Profile List**, and
* each profile's single best comparison -> the initial Comparison List
  (deduplicated via a set).

The emission phase (Algorithm 6) drains the Comparison List; when empty it
pops the next profile from the Sorted Profile List and gathers that
profile's K_max best comparisons into a bounded :class:`SortedStack`,
skipping neighbors already processed (``checkedEntities``) - their most
important comparisons were already emitted, so the remaining ones are
known to be weak.

Faithfulness notes (see DESIGN.md): ``checkedEntities`` persists across
emission calls (required by the paper's Figure 8 walk-through), and K_max
is not specified in the paper - we default to 10 and expose it.  The
optional ``exhaustive`` flag appends a tail phase draining every remaining
distinct comparison so that eventual quality equals batch quality.

Backends: ``backend="python"`` (default) runs the reference dict/heap
implementation; ``backend="numpy"`` runs the same two phases on the CSR
engine (:mod:`repro.engine.equality`) - per-neighborhood array passes and
``argpartition`` top-k - emitting a bit-identical comparison stream.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from repro.blocking.base import BlockCollection
from repro.blocking.scheduling import block_scheduling
from repro.blocking.substrate import method_substrate
from repro.core.comparisons import Comparison, ComparisonList, SortedStack
from repro.core.profiles import ProfileStore
from repro.engine import get_backend
from repro.errors import ConfigError
from repro.metablocking.profile_index import ProfileIndex
from repro.metablocking.weights import WeightingScheme, make_scheme
from repro.progressive.base import ProgressiveMethod, register_method

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.contracts import BlockingSubstrate
    from repro.engine import Backend
    from repro.engine.equality import ArrayPPSCore


@register_method("PPS")
class PPS(ProgressiveMethod):
    """Progressive Profile Scheduling.

    Parameters
    ----------
    store:
        The profiles to resolve.
    weighting:
        Blocking Graph edge weighting scheme (paper default: ARCS).
    k_max:
        Comparisons gathered per scheduled profile during emission.  The
        paper leaves K_max unspecified; the default (None) adapts it to
        the block collection - the average number of block comparisons
        per profile, floored at 10 - so that datasets with large
        equivalence clusters (e.g. cora) are not recall-capped while 1:1
        datasets keep a tight per-profile budget.
    blocks:
        Pre-built redundancy-positive blocks; when None the paper's Token
        Blocking workflow (purging 10%, filtering 80%) is applied via the
        backend's blocking substrate (one tokenization sweep).
    purge_ratio, filter_ratio:
        Workflow knobs (ignored when ``blocks`` or ``substrate`` is given).
    substrate:
        A pre-built session :class:`~repro.contracts.BlockingSubstrate`
        (the :class:`~repro.pipeline.resolver.Resolver` injects its
        shared one so the whole session tokenizes the store exactly
        once); it must come from the same kind of backend
        (``ConfigError`` otherwise).  Ignored when ``blocks`` is given.
    exhaustive:
        Append a tail draining all remaining distinct comparisons, making
        the eventual output identical to batch ER on the same blocks.
    backend:
        Execution backend: ``"python"`` (reference), ``"numpy"`` (CSR
        engine, requires the ``repro[speed]`` extra) or
        ``"numpy-parallel"`` (the CSR engine sharded across worker
        processes; also accepts a configured
        :class:`~repro.parallel.backend.ParallelBackend` instance);
        same stream every way.
    """

    name = "PPS"

    def __init__(
        self,
        store: ProfileStore,
        weighting: str = "ARCS",
        k_max: int | None = None,
        blocks: BlockCollection | None = None,
        purge_ratio: float | None = 0.1,
        filter_ratio: float | None = 0.8,
        exhaustive: bool = False,
        backend: "str | Backend" = "python",
        substrate: "BlockingSubstrate | None" = None,
    ) -> None:
        if k_max is not None and k_max < 1:
            raise ValueError("k_max must be positive")
        super().__init__(store)
        self.weighting_name = weighting
        self.backend = get_backend(backend).require()
        self.k_max = k_max
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
        self.exhaustive = exhaustive
        self.profile_index: ProfileIndex | None = None
        self.scheme: WeightingScheme | None = None
        self._profile_list: list[tuple[int, float]] = []
        self._initial_comparisons: ComparisonList | None = None
        self._core: "ArrayPPSCore | None" = None

    @property
    def sorted_profile_list(self) -> list[tuple[int, float]]:
        """The Sorted Profile List: ``(profile id, duplication
        likelihood)``, best first.  On an array backend it is built on
        read from the core's two arrays, so no resolve builds it."""
        if self._core is None:
            return self._profile_list
        return self._core.sorted_profile_list()

    # -- shared neighborhood scan ---------------------------------------------

    def _neighborhood_weights(
        self, profile_id: int, skip: set[int] | None = None
    ) -> dict[int, float]:
        """Raw accumulated edge weights of a profile's valid neighbors."""
        assert self.profile_index is not None and self.scheme is not None
        index = self.profile_index
        scheme = self.scheme
        weights: dict[int, float] = {}
        for block_id in index.blocks_of(profile_id):
            contribution = scheme.contribution(block_id)
            for neighbor in index.collection[block_id].ids:
                if neighbor == profile_id:
                    continue
                if skip is not None and neighbor in skip:
                    continue
                if not self.store.valid_comparison(profile_id, neighbor):
                    continue
                weights[neighbor] = weights.get(neighbor, 0.0) + contribution
        return weights

    # -- initialization phase (Algorithm 5) --------------------------------------

    def _setup(self) -> None:
        substrate = self._substrate
        if substrate is not None:
            if self.backend.vectorized:
                # The seam builds the CSR index straight from the array
                # substrate's postings: no Block objects.
                self._setup_array(substrate)
                return
            # Scheduled index served (and cached) by the substrate -
            # shared with every other consumer of the session.
            self.profile_index = substrate.profile_index("schedule")
        else:
            # Scheduling keeps block ids aligned with PBS (and LeCoBI
            # usable by the exhaustive tail); PPS itself only needs
            # cardinalities.
            assert self._input_blocks is not None
            scheduled = block_scheduling(self._input_blocks)
            if self.backend.vectorized:
                self._setup_array(scheduled)
                return
            self.profile_index = ProfileIndex(scheduled)
        self.scheme = make_scheme(self.weighting_name, self.profile_index)
        if self.k_max is None:
            # Adaptive K_max: average block comparisons per profile (each
            # comparison touches two profiles), clamped to [10, 50].  The
            # lower bound keeps sparse datasets covered; the upper bound
            # stops huge neighborhoods from flooding the emission stream
            # with their low-weight tails.
            population = max(1, len(self.profile_index.indexed_profiles()))
            aggregate = sum(self.profile_index.block_cardinalities)
            self.k_max = max(10, min(50, round(2 * aggregate / population)))

        top_comparisons: dict[tuple[int, int], float] = {}
        profile_list: list[tuple[int, float]] = []
        for profile_id in self.profile_index.indexed_profiles():
            raw_weights = self._neighborhood_weights(profile_id)
            if not raw_weights:
                continue
            best_pair: tuple[int, int] | None = None
            best_weight = float("-inf")
            likelihood = 0.0
            for neighbor, raw in raw_weights.items():
                weight = self.scheme.finalize(profile_id, neighbor, raw)
                likelihood += weight
                if weight > best_weight:
                    best_weight = weight
                    best_pair = Comparison.make(profile_id, neighbor).pair
            likelihood /= len(raw_weights)
            profile_list.append((profile_id, likelihood))
            if best_pair is not None:
                existing = top_comparisons.get(best_pair)
                if existing is None or best_weight > existing:
                    top_comparisons[best_pair] = best_weight

        # Highest duplication likelihood first; ties by id for determinism.
        profile_list.sort(key=lambda item: (-item[1], item[0]))
        self._profile_list = profile_list

        initial = ComparisonList()
        initial.extend(
            Comparison(i, j, weight) for (i, j), weight in top_comparisons.items()
        )
        self._initial_comparisons = initial

    def _setup_array(
        self, scheduled: "BlockCollection | BlockingSubstrate"
    ) -> None:
        """Initialization on the CSR engine (same phases, array passes).

        The core comes through the backend seam - which accepts either a
        scheduled block collection or an array substrate - and hands
        it the backend's fan-out, so ``numpy`` (one inline range) and
        ``numpy-parallel`` (shards over workers) run the same kernels
        and the same emission machinery.
        """
        core = self.backend.pps_core(scheduled, self.weighting_name, self.k_max)
        self._core = core
        self.k_max = core.k_max
        # Introspection: the CSR index and the graph (whose scalar
        # ``weight`` stays) take the reference structures' slots.
        self.profile_index = core.index  # type: ignore[assignment]
        self.scheme = core.graph  # type: ignore[assignment]
        core.init_lists()

    # -- emission phase (Algorithm 6) ---------------------------------------------

    def profile_comparisons(
        self, profile_id: int, checked: set[int]
    ) -> list[Comparison]:
        """The K_max best comparisons of one scheduled profile: a step
        of the reference emission, so ``backend="python"`` only (an
        array backend ranks the schedule a range at a time)."""
        if self._core is not None:
            raise ConfigError(
                "profile_comparisons is a step of the reference emission: "
                'use backend="python"'
            )
        assert self.k_max is not None and self.scheme is not None
        raw_weights = self._neighborhood_weights(profile_id, skip=checked)
        stack = SortedStack()
        for neighbor, raw in raw_weights.items():
            weight = self.scheme.finalize(profile_id, neighbor, raw)
            stack.push(Comparison.make(profile_id, neighbor, weight))
            if len(stack) > self.k_max:
                stack.pop()
        return stack.drain_descending()

    def _chunks(self) -> Iterator[list[Comparison]]:
        if self._core is None:
            return super()._chunks()
        # The schedule ranked a range of the Sorted Profile List at a
        # time, when a pull reaches it; identical stream to the
        # per-profile loop of _emit (parity-tested).
        assert self.k_max is not None
        return self._core.chunks(self.k_max, self.exhaustive)

    def _emit(self) -> Iterator[Comparison]:
        assert self._initial_comparisons is not None
        emitted: set[tuple[int, int]] | None = set() if self.exhaustive else None

        for comparison in self._initial_comparisons.drain():
            if emitted is not None:
                emitted.add(comparison.pair)
            yield comparison

        checked: set[int] = set()
        for profile_id, _likelihood in self.sorted_profile_list:
            checked.add(profile_id)
            for comparison in self.profile_comparisons(profile_id, checked):
                if emitted is not None:
                    emitted.add(comparison.pair)
                yield comparison

        if emitted is not None:
            yield from self._exhaustive_tail(emitted)

    def _exhaustive_tail(
        self, emitted: set[tuple[int, int]]
    ) -> Iterator[Comparison]:
        """Drain every remaining distinct comparison of the blocks."""
        assert self.profile_index is not None and self.scheme is not None
        index = self.profile_index
        er_type = self.store.er_type
        for block in index.collection.blocks:
            for candidate in block.comparisons(er_type):
                if candidate.pair in emitted:
                    continue
                if not index.is_first_encounter(
                    candidate.i, candidate.j, block.block_id
                ):
                    continue
                emitted.add(candidate.pair)
                yield Comparison(
                    candidate.i,
                    candidate.j,
                    self.scheme.weight(candidate.i, candidate.j),
                )
