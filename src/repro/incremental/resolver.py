"""The :class:`IncrementalResolver`: an online progressive-ER session.

``ERPipeline().incremental().fit(data)`` returns this
:class:`~repro.pipeline.resolver.Resolver` subclass.  The batch Resolver
contract (streaming, budgets, recall bookkeeping, ``evaluate()``) keeps
working; on top of it profiles can be *ingested* after ``fit``:

* :meth:`add_profiles` appends a batch to the (mutable) store, delta-
  updates the token index, and emits the comparisons *introduced by the
  batch* - only pairs involving a new profile - ranked best-first by the
  configured weighting scheme;
* :meth:`resolve_one` is the single-record form; with ``ingest=False``
  it is a read-only probe that scores a record against the corpus with
  exact as-if-ingested statistics and rolls the index back;
* :meth:`stream` (inherited) re-ranks the *current* corpus: it lazily
  rebuilds the ONLINE method over a snapshot of the live index whenever
  a previous ingestion made the last build stale - on the numpy backend
  this is where the CSR arrays are re-materialized.

Arrivals and probes are scored by the pure-Python
:class:`~repro.incremental.weights.IncrementalWeighter` on every
backend (a per-arrival candidate list never amortized an array refresh;
measurements in docs/incremental.md); only the full re-ranking runs on
the configured engine.

The parity contract with batch resolution (property-tested per backend
and ER type): ingesting a dataset in any chunking emits exactly the
pair set of one batch ONLINE fit over the union, and a final
``stream()`` replays the batch emission order bit-identically.

Incremental sessions use the ONLINE emission model; the configured
progressive method (``.method(...)``) only applies to batch sessions.
Block Filtering - a batch-global re-ranking - is likewise batch-only;
Block Purging is available as a query-time bound via
``.incremental(purge=...)``.
"""

from __future__ import annotations

import threading
import time
from typing import TYPE_CHECKING, Callable, Iterable, Mapping, Sequence

from repro.core.comparisons import Comparison
from repro.core.ground_truth import GroundTruth
from repro.core.profiles import EntityProfile, ProfileStore
from repro.core.tokenization import DEFAULT_TOKENIZER
from repro.incremental.index import IncrementalTokenIndex
from repro.incremental.store import MutableProfileStore
from repro.incremental.weights import IncrementalWeighter
from repro.pipeline.resolver import DecisionRecord, Resolver
from repro.progressive.base import ProgressiveMethod

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.pipeline.config import PipelineConfig


def score_probe(
    index: IncrementalTokenIndex,
    weighter: IncrementalWeighter,
    probe: EntityProfile,
) -> list[Comparison]:
    """Score one read-only probe with exact as-if-ingested statistics.

    The shared body of :meth:`IncrementalResolver.resolve_one`
    (``ingest=False``) and :meth:`IncrementalResolver.resolve_many`: the
    index is temporarily updated and rolled back, so corpus statistics
    see the probe while it is scored and forget it afterwards.  Mutates
    (and restores) the given index/weighter - callers hold the session
    lock.
    """
    weighter.size_offset = 1  # as-if corpus size for purging
    journal = index.probe_enter(probe)
    weighter.invalidate()  # stats must see the probe...
    try:
        candidates = index.probe_pairs(
            probe.profile_id, probe.source, weighter.purge_limit()
        )
        return weighter.score(candidates)
    finally:
        index.probe_exit(probe, journal)
        weighter.invalidate()  # ...and forget it afterwards
        weighter.size_offset = 0


class IncrementalResolver(Resolver):
    """A progressive ER session whose corpus can grow after ``fit``.

    Built by :meth:`repro.pipeline.ERPipeline.fit` when the pipeline has
    an ``.incremental()`` stage; not usually constructed directly.  The
    profile store is upgraded to a :class:`MutableProfileStore` and every
    derived structure subscribes to its ingestion feed.
    """

    def __init__(
        self,
        config: "PipelineConfig",
        store: ProfileStore,
        ground_truth: GroundTruth | None = None,
        dataset_name: str = "",
        psn_key: Callable | None = None,
        index: IncrementalTokenIndex | None = None,
    ) -> None:
        store = MutableProfileStore.from_store(store)
        if index is not None and index.store is not store:
            # A pre-built index (the snapshot-restore path) must already
            # be bound to the exact mutable store this session will
            # ingest into, or the two drift apart on the first arrival.
            raise ValueError(
                "a pre-built index must share the session's mutable store"
            )
        super().__init__(
            config,
            store,
            ground_truth=ground_truth,
            dataset_name=dataset_name,
            psn_key=psn_key,
        )
        spec = config.incremental
        assert spec is not None, "IncrementalResolver requires .incremental()"
        # What a live session refuses (other blocking schemes, methods,
        # pruning) was settled when the spec was constructed:
        # repro.pipeline.config.check_live_stage.
        # Purging precedence: the session knob, else the blocking
        # stage's ratio (applied query-time against the live corpus
        # size).  Filtering is batch-global and has no counterpart.
        purge_ratio = (
            spec.purge_ratio
            if spec.purge_ratio is not None
            else config.blocking.purge_ratio
        )
        #: Serializes index mutation - ingest, probes (which temporarily
        #: mutate and roll back the shared index) and close.
        #: An RLock because resolve_one(ingest=True) nests add_profiles.
        self._lock = threading.RLock()
        self._index = (
            index
            if index is not None
            else IncrementalTokenIndex(store, tokenizer=DEFAULT_TOKENIZER)
        )
        self._weighter = IncrementalWeighter(
            self._index,
            weighting=config.meta.weighting,
            purge_ratio=purge_ratio,
        )
        self._stream_generation = -1
        store.subscribe(self._on_ingest)

    # -- ingestion feed -------------------------------------------------------

    def _on_ingest(self, profiles: Sequence[EntityProfile]) -> None:
        """Store listener: keep every derived structure consistent."""
        self._index.add_profiles(profiles)
        # A drained stream is no longer drained: the arrivals add
        # comparisons, and the next stream()/next_batch() re-ranks.
        self._exhausted = False

    # -- online resolution ----------------------------------------------------

    def add_profiles(
        self,
        items: Iterable[
            "EntityProfile | Mapping[str, object] | Iterable[tuple[str, object]]"
        ],
        sources: Iterable[int] | None = None,
    ) -> list[Comparison]:
        """Ingest a batch and emit its new comparisons, ranked best-first.

        Only comparisons involving at least one profile of the batch are
        emitted (pairs between pre-existing profiles were emitted when
        the later of the two arrived).  Emissions run through the
        session's budget and recall bookkeeping exactly like streamed
        ones; an empty batch emits nothing.
        """
        with self._lock:
            self._check_open()
            store: MutableProfileStore = self.store  # type: ignore[assignment]
            profiles = store.add_profiles(items, sources=sources)
            if not profiles:
                return []
            candidates = self._index.candidate_pairs(
                [profile.profile_id for profile in profiles],
                self._weighter.purge_limit(),
            )
            return self._emit_ranked(self._weighter.score(candidates))

    def resolve_one(
        self,
        item: "EntityProfile | Mapping[str, object] | Iterable[tuple[str, object]]",
        source: int | None = None,
        ingest: bool = True,
        decide: bool = False,
    ) -> "list[Comparison] | list[DecisionRecord]":
        """Resolve a single record against the current corpus.

        With ``ingest=True`` (default) the record joins the corpus and
        its ranked comparisons are emitted - the singleton form of
        :meth:`add_profiles`.  With ``ingest=False`` the call is a
        read-only probe: the record is scored with exact as-if-ingested
        statistics (the index is temporarily updated and rolled back),
        nothing is stored, emitted or counted against budgets.

        ``decide=True`` additionally routes every returned comparison
        through the session's matching cascade and returns
        :class:`~repro.pipeline.resolver.DecisionRecord` tuples instead
        of bare comparisons (requires a ``.match(...)`` or
        ``.matcher(...)`` stage).  Ingested decisions join the session's
        confirmed matches; probe decisions stay read-only (only the
        cascade's tier counters advance).  In a served session a spent
        expensive-tier call budget raises
        :class:`~repro.errors.BudgetExceeded` (reason
        ``"expensive-calls"``).
        """
        cascade = self._decision_cascade() if decide else None
        if ingest:
            emitted = self.add_profiles(
                [item], sources=None if source is None else [source]
            )
            if not decide:
                return emitted
            with self._lock:
                return self._decide(emitted, cascade)
        with self._lock:
            self._check_open()
            probe = self._coerce_probe(item, source)
            scored = score_probe(self._index, self._weighter, probe)
            if not decide:
                return scored
            return self._decide_probe(scored, probe, cascade)

    def _decide_probe(
        self, scored: list[Comparison], probe: EntityProfile, cascade
    ) -> list[DecisionRecord]:
        """Decide probe pairs read-only (the probe is not in the store)."""
        probe_id = probe.profile_id
        return self._decide(
            scored,
            cascade,
            profile_of=lambda pid: probe if pid == probe_id else self.store[pid],
            record=False,
        )

    def resolve_many(
        self,
        items: Iterable[
            "EntityProfile | Mapping[str, object] | Iterable[tuple[str, object]]"
        ],
        sources: Iterable[int] | None = None,
        decide: bool = False,
    ) -> "list[list[Comparison]] | list[list[DecisionRecord]]":
        """Read-only probes for a whole batch, under one lock hold.

        Equivalent to ``[resolve_one(item, ingest=False) for item in
        items]``: every item is scored against the *current* corpus with
        exact as-if-ingested statistics, nothing is stored, emitted or
        counted against budgets - the bulk query path for serving
        lookups against a live index.  The whole batch is validated
        before the first probe is scored, and no ingest can interleave.

        ``decide=True`` routes every scored pair through the session's
        matching cascade and returns lists of
        :class:`~repro.pipeline.resolver.DecisionRecord`.
        """
        source_list = None if sources is None else list(sources)
        item_list = list(items)
        if source_list is not None and len(source_list) != len(item_list):
            raise ValueError(
                f"sources has {len(source_list)} entries for "
                f"{len(item_list)} items"
            )
        with self._lock:
            self._check_open()
            cascade = self._decision_cascade() if decide else None
            probes = [
                self._coerce_probe(
                    item, None if source_list is None else source_list[position]
                )
                for position, item in enumerate(item_list)
            ]
            scored_lists = [
                score_probe(self._index, self._weighter, probe)
                for probe in probes
            ]
            if not decide:
                return scored_lists
            return [
                self._decide_probe(scored, probe, cascade)
                for scored, probe in zip(scored_lists, probes)
            ]

    def _coerce_probe(
        self,
        item: "EntityProfile | Mapping[str, object] | Iterable[tuple[str, object]]",
        source: int | None,
    ) -> EntityProfile:
        # The store's ingestion coercion (id re-assignment, source
        # override, source validation) with the id a real ingest would
        # get, so probe and ingest accept exactly the same input.
        store: MutableProfileStore = self.store  # type: ignore[assignment]
        return store._coerce(len(store), item, source)

    def _emit_ranked(self, ranked: list[Comparison]) -> list[Comparison]:
        """Run ingestion emissions through the shared session bookkeeping."""
        if self._started_at is None:
            self._started_at = time.perf_counter()
        if self.matcher is None and self.config.matcher is not None:
            self.matcher = self._build_matcher()
        emitted: list[Comparison] = []
        for comparison in ranked:
            if self._budget_reached():
                break
            self._emitted += 1
            self._record(comparison)
            emitted.append(comparison)
        return emitted

    # -- full re-ranking (the batch bridge) -----------------------------------

    @property
    def blocks(self):
        """A batch view of the live index (rebuilt on access)."""
        return self._index.snapshot_blocks(self._weighter.purge_limit())

    def build_method(self) -> ProgressiveMethod:
        """The ONLINE method over a snapshot of the live index.

        Incremental sessions always emit in the ONLINE (globally ranked)
        model; the configured ``.method(...)`` applies to batch sessions
        only.  On the numpy backend this build is where the CSR arrays
        are (re-)materialized from the current postings.
        """
        from repro.incremental.online import OnlineRanked

        return OnlineRanked(
            self.store,
            weighting=self.config.meta.weighting,
            blocks=self.blocks,
            backend=self._method_backend(),
        )

    def initialize(self) -> "IncrementalResolver":
        """(Re)build the streaming emitter when ingestion made it stale."""
        if (
            self.method is not None
            and self._stream_generation != self._index.generation
        ):
            self.method = None
            self._emitter = None
        if self.method is None:
            self._stream_generation = self._index.generation
        super().initialize()
        return self

    def reset(self) -> "IncrementalResolver":
        """Restart emission over the current corpus.

        Marks the method the base ``reset`` rebuilds as fresh for the
        current index generation, so the next ``stream()`` does not
        discard it and rebuild a second time.
        """
        with self._lock:
            self._check_open()
            self._stream_generation = self._index.generation
            super().reset()
        return self

    def next_batch(self, n: int) -> list[Comparison]:
        """The next ``n`` comparisons of the globally ranked stream.

        Serialized under the session lock like every other operation:
        the shared emitter generator and the emission bookkeeping
        (``_emitted``, matched pairs) must not be driven from two
        threads at once, nor interleave with an ingest rebuilding the
        live index mid-batch.
        """
        with self._lock:
            self._check_open()
            return super().next_batch(n)

    # -- teardown / persistence -----------------------------------------------

    def close(self) -> None:
        """Tear the session down; idempotent and probe-safe.

        Takes the session lock, so probes or ingests already executing
        finish before the backend instance (worker pool, memmap scratch
        directory) is released; late arrivals then fail with
        :class:`~repro.errors.SessionClosed` instead of touching
        invalidated arrays.  Closing an already-closed session is a
        no-op.
        """
        with self._lock:
            super().close()

    def save(self, path: str) -> str:
        """Persist the session state under the directory ``path``.

        Writes profiles, config and the delta-maintained token index
        (as ``.npy`` CSR arrays) so that :meth:`load` rebuilds a session
        that streams bit-identically without re-tokenizing the corpus.
        Emission-side state (budgets consumed, the position of a
        half-drained stream) is deliberately *not* captured: a restored
        session starts a fresh stream over the saved corpus, exactly
        like the saved session's own ``reset()``.  Returns ``path``.
        """
        from repro.service.snapshot import save_session

        with self._lock:
            self._check_open()
            return save_session(self, path)

    @classmethod
    def load(cls, path: str) -> "IncrementalResolver":
        """Rebuild a saved session from :meth:`save`'s directory.

        The postings come back from the snapshot arrays (no
        re-tokenization); the restored session's ``stream()`` is
        bit-identical to a fresh ``stream()`` of the saved one, and it
        accepts further ingests/probes exactly like the original.
        """
        from repro.service.snapshot import load_session

        return load_session(path)

    # -- incremental structures (introspection) -------------------------------

    @property
    def index(self) -> IncrementalTokenIndex:
        """The live delta-maintained token index."""
        return self._index

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"IncrementalResolver(|P|={len(self.store)}, "
            f"emitted={self._emitted}, generation={self._index.generation})"
        )
