"""Typed contracts for the backend seam.

The parity invariant - ``python``, ``numpy`` and ``numpy-parallel``
emit *bit-identical* comparison streams - rests on every backend
implementing the same structural seam.  This module states that seam
once, as :class:`typing.Protocol` types, so two independent tools can
enforce it:

* ``mypy --strict`` checks the conformance assertions in
  :mod:`repro.engine` and :mod:`repro.parallel.backend` (a backend that
  drops or mistypes a seam method fails type checking);
* the ``backend-contract`` rule of ``tools/repro_analyze`` checks the
  *live registry* (``repro.registry.backends``), so a backend
  registered from anywhere - including user extensions - is validated
  against :data:`BACKEND_SEAM` at lint time.

Adding a method to the seam therefore means: add it here first, then
implement it on every registered backend; both checkers fail until the
implementations exist.

The module is dependency-free by design (no numpy import, no repro
imports outside :mod:`typing`), so contracts stay importable on every
environment the reference backend supports.
"""

from __future__ import annotations

from typing import Any, Iterator, Protocol, runtime_checkable

#: The backend seam: every registered backend must provide these
#: callables.  Single source of truth - ``tools/repro_analyze`` reads
#: this tuple, so extending it without implementing the new method on
#: all registered backends fails the ``backend-contract`` rule.
BACKEND_SEAM: tuple[str, ...] = (
    "blocking_substrate",
    "profile_index",
    "weighting",
    "position_index",
    "blocking_graph",
    "pps_core",
    "pbs_core",
    "psn_core",
    "ranked_edges",
    "pruned_edges",
)

#: Seam method -> number of arguments after ``self``.  The
#: ``backend-contract`` rule binds this many positional arguments
#: against each implementation's signature, so an override that renames
#: parameters still conforms but one that changes arity does not.
BACKEND_SEAM_ARITY: dict[str, int] = {
    "blocking_substrate": 2,
    "profile_index": 1,
    "weighting": 2,
    "position_index": 1,
    "blocking_graph": 2,
    "pps_core": 3,
    "pbs_core": 2,
    "psn_core": 3,
    "ranked_edges": 1,
    "pruned_edges": 3,
}

#: The ``(i, j, weight)`` array triple every ranked-edge producer
#: returns, ordered by ``(-weight, i, j)``.  ``Any`` because the
#: contract layer never imports numpy; the concrete aliases live in
#: :mod:`repro.engine.pruning`.
EdgeArrays = tuple[Any, Any, Any]


@runtime_checkable
class Backend(Protocol):
    """Structural type of one execution backend.

    Satisfied by :class:`repro.engine.PythonBackend`,
    :class:`repro.engine.NumpyBackend` and
    :class:`repro.parallel.backend.ParallelBackend`; the conformance
    assertions next to each class make mypy prove it.  The structure
    factories are ``Any``-typed on purpose: the seam is *schema
    agnostic* - the python backend returns dict-of-lists reference
    structures, the numpy backends CSR arrays - and the progressive
    methods only rely on the shared public API of whichever family
    they received.
    """

    name: str

    @property
    def available(self) -> bool:
        """Whether this backend can run in the current environment."""

    @property
    def vectorized(self) -> bool:
        """Whether methods should use the array emission cores."""

    def require(self) -> "Backend":
        """Validate availability (raises when unusable); returns self."""

    # -- structure factories -----------------------------------------------

    def blocking_substrate(self, store: Any, spec: Any) -> Any:
        """A session blocking front end over one tokenization sweep.

        The returned object satisfies :class:`BlockingSubstrate`: it
        serves the blocked collection, the profile index and the
        Neighbor List of one ``ProfileStore`` from a single cached
        token sweep (the single-build guarantee).
        """

    def profile_index(self, collection: Any) -> Any:
        """A profile -> block-ids inverted index over scheduled blocks.

        ``collection`` is either a scheduled block collection or a
        :class:`BlockingSubstrate`; vectorized backends build the CSR
        index straight from a substrate's postings when given one.
        """

    def weighting(self, name: str, index: Any) -> Any:
        """A weighting scheme instance bound to a profile index."""

    def position_index(self, neighbor_list: Any) -> Any:
        """A profile -> Neighbor List positions inverted index."""

    # -- core factories (vectorized backends) ------------------------------

    def blocking_graph(self, index: Any, weighting: str) -> Any:
        """The weighted Blocking Graph over ``index`` (rows on demand)."""

    def pps_core(self, scheduled: Any, weighting: str, k_max: int | None) -> Any:
        """The PPS initialization/emission core over scheduled blocks."""

    def pbs_core(self, index: Any, graph: Any) -> Any:
        """The PBS core: weights and emits a range of scheduled blocks
        at a time; ``graph`` is its weight authority, never its rows."""

    def psn_core(self, neighbor_list: Any, store: Any, weighting: Any) -> Any:
        """The LS/GS-PSN window-scoring core over one Neighbor List."""

    def ranked_edges(self, graph: Any) -> EdgeArrays:
        """Every distinct graph edge ranked by ``(-weight, i, j)``."""

    def pruned_edges(self, graph: Any, algorithm: str, k: int | None) -> EdgeArrays:
        """The retained edges of the pruned Blocking Graph, ranked."""


@runtime_checkable
class BlockingSubstrate(Protocol):
    """Structural type of a backend's blocking front end.

    Built once per resolution session by
    :meth:`Backend.blocking_substrate`; every structure below is served
    from the same cached tokenization sweep, so a session never
    tokenizes the store twice.  ``sweeps`` counts the sweeps actually
    performed - the single-build regression test asserts it stays 1.
    """

    sweeps: int
    #: Whether the served structures are the CSR/array versions (a
    #: vectorized backend may consume them directly) or the reference
    #: ones (vectorized consumers fall back to materialized blocks).
    vectorized: bool

    def blocks(self) -> Any:
        """The blocked collection after purging/filtering (workflow order)."""

    def profile_index(self, order: str) -> Any:
        """The profile index over the final blocks in processing ``order``
        (``"schedule"`` for PPS/PBS, ``"alpha"`` for ONLINE)."""

    def neighbor_list(self, tie_order: str, seed: int) -> Any:
        """The schema-agnostic Neighbor List (unpurged, unfiltered)."""


@runtime_checkable
class EmissionCore(Protocol):
    """Common contract of the vectorized emission cores.

    Every core is built by a backend seam method and must emit
    comparisons in the canonical sequential-accumulation order with
    ``(-weight, i, j)`` tie-breaking - that ordering is behavioural and
    enforced by the parity suite plus the ``determinism`` lint rule;
    the structural members live on the per-family refinements below
    (:class:`PPSCore`, :class:`PBSCore`, :class:`PSNCore`), because the
    three method families consume disjoint emission APIs.
    """


@runtime_checkable
class PPSCore(EmissionCore, Protocol):
    """Emission core consumed by Progressive Profile Scheduling."""

    def init_lists(self) -> tuple[list[tuple[int, float]], Any]:
        """The duplication-likelihood list and the comparison list."""

    def sync_checked(self, checked: Any) -> None:
        """Mirror externally-checked pairs into the core's bookkeeping."""

    def profile_topk(self, profile_id: int, k: int) -> list[Any]:
        """The best ``k`` unchecked comparisons of one profile."""

    def emit_schedule(self, *args: Any, **kwargs: Any) -> Any:
        """The full ranked emission schedule (arrays)."""

    def exhaustive_tail(self, emitted: Any) -> Iterator[Any]:
        """Every block comparison not yet emitted, weighted (the
        optional tail that makes PPS's output equal batch ER's)."""


@runtime_checkable
class PBSCore(EmissionCore, Protocol):
    """Emission core consumed by Progressive Block Scheduling."""

    def block_comparisons(self, block_id: int) -> list[Any]:
        """The ranked fresh comparisons of one block."""

    def emit(self) -> Iterator[Any]:
        """Comparisons in block-schedule order, deduplicated."""


@runtime_checkable
class PSNCore(EmissionCore, Protocol):
    """Emission core consumed by the sorted-neighborhood methods."""

    def pair_frequencies(self, *args: Any, **kwargs: Any) -> Any:
        """Co-occurrence frequencies of the pairs inside one window."""

    def window_arrays(self, *args: Any, **kwargs: Any) -> Any:
        """The weighted ``(i, j, weight)`` arrays of one window."""

    def window_comparisons(self, distances: Any) -> list[Any]:
        """The ranked comparisons of one window."""

    def emit_window(self, distances: Any) -> Iterator[Any]:
        """Window comparisons as a stream."""


class PruningKernel(Protocol):
    """A Meta-blocking pruning entry point of one backend.

    ``algorithm`` is the canonical registry name (``"WEP"``...),
    ``k`` the optional cardinality budget; the return triple is ranked
    by ``(-weight, i, j)`` like every other edge producer.
    """

    def __call__(self, graph: Any, algorithm: str, k: int | None) -> EdgeArrays:
        """Retained edges of ``graph`` under ``algorithm``."""


__all__ = [
    "BACKEND_SEAM",
    "BACKEND_SEAM_ARITY",
    "EdgeArrays",
    "Backend",
    "BlockingSubstrate",
    "EmissionCore",
    "PPSCore",
    "PBSCore",
    "PSNCore",
    "PruningKernel",
]
