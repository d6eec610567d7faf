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
  it is a read-only probe (:meth:`resolve_many` for a batch): an ingest
  that is rolled back - exact as-if-ingested statistics, nothing kept;
* with a ``.match(...)`` stage every ingest and probe is decided and
  returns :class:`~repro.pipeline.resolver.DecisionRecord` tuples; an
  ingest's matches join the session's confirmed pairs;
* :meth:`stream` (inherited) re-ranks the *current* corpus: it lazily
  rebuilds the ONLINE method over a snapshot of the live index whenever
  a previous ingestion made the last build stale - on the numpy backend
  this is where the CSR arrays are re-materialized.

Arrivals and probes are scored in pure Python by the live
:class:`~repro.incremental.index.IncrementalTokenIndex` on every
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
the ``.blocking(purge=...)`` ratio applies as a query-time bound
against the live corpus size.
"""

from __future__ import annotations

import threading
import time
from typing import TYPE_CHECKING, Callable, Iterable, Mapping, TypeAlias

from repro.core.comparisons import Comparison
from repro.core.ground_truth import GroundTruth
from repro.core.profiles import EntityProfile, ProfileStore
from repro.incremental.index import IncrementalTokenIndex
from repro.incremental.store import MutableProfileStore
from repro.pipeline.resolver import DecisionRecord, Resolver
from repro.progressive.base import ProgressiveMethod

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.pipeline.config import PipelineConfig

#: What an ingest or a probe returns: its ranked comparisons, or with a
#: ``.match(...)`` stage their decision records.
Resolved: TypeAlias = "list[Comparison] | list[DecisionRecord]"


class IncrementalResolver(Resolver):
    """A progressive ER session whose corpus can grow after ``fit``.

    Built by :meth:`repro.pipeline.ERPipeline.fit` when the pipeline has
    an ``.incremental()`` stage; not usually constructed directly.  The
    profile store is upgraded to a :class:`MutableProfileStore`; every
    ingest goes through the session, which indexes what it appended.
    """

    def __init__(
        self,
        config: "PipelineConfig",
        store: ProfileStore,
        ground_truth: GroundTruth | None = None,
        dataset_name: str = "",
        psn_key: Callable | None = None,
    ) -> None:
        store = MutableProfileStore.from_store(store)
        super().__init__(
            config,
            store,
            ground_truth=ground_truth,
            dataset_name=dataset_name,
            psn_key=psn_key,
        )
        assert config.incremental is not None, (
            "IncrementalResolver requires .incremental()"
        )
        # What a live session refuses (other blocking schemes, methods,
        # pruning) was settled when the spec was constructed:
        # repro.pipeline.config.check_live_stage.
        #: Serializes store and index mutation - ingest, probes (which
        #: hold and roll back a profile in both) and close.
        self._lock = threading.Lock()
        # Purging applies query-time against the live corpus size; Block
        # Filtering is batch-global and has no counterpart.
        self._index = IncrementalTokenIndex(
            store, config.meta.weighting, config.blocking.purge_ratio
        )
        self._stream_generation = -1
        #: Stored profiles, never counting a probe in flight: the count
        #: a reader without the session lock may rely on.
        self.corpus_size = len(store)

    # -- online resolution ----------------------------------------------------

    def add_profiles(
        self,
        items: Iterable[
            "EntityProfile | Mapping[str, object] | Iterable[tuple[str, object]]"
        ],
        sources: Iterable[int] | None = None,
    ) -> Resolved:
        """Ingest a batch and emit its new comparisons, ranked best-first.

        Only comparisons involving at least one profile of the batch are
        emitted (pairs between pre-existing profiles were emitted when
        the later of the two arrived).  Emissions run through the
        session's budget and recall bookkeeping exactly like streamed
        ones; an empty batch emits nothing.  A ``.match(...)`` stage
        decides every emission and keeps its matches.
        """
        with self._lock:
            self._check_open()
            store: MutableProfileStore = self.store  # type: ignore[assignment]
            profiles = store.add_profiles(items, sources=sources)
            if not profiles:
                return []
            self.corpus_size = len(store)
            self._index.add_profiles(profiles)
            # A drained stream is no longer drained: the arrivals add
            # comparisons, and the next stream()/next_batch() re-ranks.
            self._exhausted = False
            if self._started_at is None:
                self._started_at = time.perf_counter()
            return self._resolve([p.profile_id for p in profiles], commit=True)

    def resolve_one(
        self,
        item: "EntityProfile | Mapping[str, object] | Iterable[tuple[str, object]]",
        source: int | None = None,
        ingest: bool = True,
    ) -> Resolved:
        """Resolve a single record against the current corpus.

        With ``ingest=True`` (default) the record joins the corpus: the
        singleton form of :meth:`add_profiles`.  With ``ingest=False``
        the call is a read-only probe, the singleton form of
        :meth:`resolve_many`.
        """
        sources = None if source is None else [source]
        if ingest:
            return self.add_profiles([item], sources=sources)
        return self.resolve_many([item], sources=sources)[0]

    def resolve_many(
        self,
        items: Iterable[
            "EntityProfile | Mapping[str, object] | Iterable[tuple[str, object]]"
        ],
        sources: Iterable[int] | None = None,
        *,
        limit: int | None = None,
    ) -> list[Resolved]:
        """Read-only probes for a whole batch, under one lock hold.

        Each probe is a rolled-back ingest: for its scoring the record
        is a stored and indexed profile like any other - exact
        as-if-ingested statistics - then the store and the index are
        restored exactly, on an exception too.  Nothing is kept, emitted
        or counted against budgets - the bulk query path for serving
        lookups against a live index.  The whole batch is validated
        (the ingest's coercion, with the id an ingest would assign)
        before the first probe is scored, and no ingest can interleave.

        ``limit`` keeps only the best ``limit`` pairs of each probe.
        With a ``.match(...)`` stage the kept pairs are decided and
        returned as :class:`~repro.pipeline.resolver.DecisionRecord`
        lists; only the cascade's tier counters advance.
        """
        item_list = list(items)
        source_list: list[int | None] = [None] * len(item_list)
        if sources is not None:
            source_list = list(sources)
        if len(source_list) != len(item_list):
            raise ValueError(
                f"sources has {len(source_list)} entries for "
                f"{len(item_list)} items"
            )
        with self._lock:
            self._check_open()
            store: MutableProfileStore = self.store  # type: ignore[assignment]
            probes = [
                store._coerce(len(store), item, source)
                for item, source in zip(item_list, source_list)
            ]
            results: list[Resolved] = []
            for probe in probes:
                with self._index.holding(probe):
                    results.append(
                        self._resolve([probe.profile_id], commit=False, limit=limit)
                    )
            return results

    def _resolve(
        self, ids: list[int], *, commit: bool, limit: int | None = None
    ) -> Resolved:
        """Rank the pairs the stored profiles ``ids`` introduce and, with
        a match stage, decide them: the one path of ingests and probes.

        A commit (an ingest) is admitted and booked by the budgets and
        its decisions count towards the session; otherwise (a probe,
        which the caller rolls back) the best ``limit`` pairs are kept
        and only the cascade's tier counters advance.  Callers hold the
        session lock.
        """
        ranked = self._index.score(self._index.candidate_pairs(ids))
        kept = self._admit(ranked) if commit else ranked[:limit]
        if self.config.match is None:
            return kept
        return self._decide(kept, self._decision_cascade(), record=commit)

    # -- full re-ranking (the batch bridge) -----------------------------------

    @property
    def blocks(self):
        """A batch view of the live index (rebuilt on access)."""
        return self._index.snapshot_blocks()

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
        discard it and rebuild a second time.  The confirmed matches and
        the decided count stay, as a ``save``/``load`` keeps them: they
        are what the session's ingests decided, which no stream
        re-derives.
        """
        with self._lock:
            self._check_open()
            self._stream_generation = self._index.generation
            matches, decided = set(self._matched_pairs), self._decided
            super().reset()
            self._matched_pairs.update(matches)
            self._decided = decided
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

        Writes the profiles, the pipeline spec and the decisions (the
        decided count and the confirmed matches) so that :meth:`load`
        rebuilds a session that streams bit-identically (the token index
        is re-derived from the profiles) and keeps its matches.
        Emission-side state (budgets consumed, the position of a
        half-drained stream) is deliberately *not* captured: a restored
        session starts a fresh stream over the saved corpus.  Returns
        ``path``.
        """
        from repro.service.snapshot import save_session

        with self._lock:
            self._check_open()
            return save_session(self, path)

    @classmethod
    def load(cls, path: str) -> "IncrementalResolver":
        """Rebuild a saved session from :meth:`save`'s directory.

        The token index is rebuilt from the profiles, as ``fit`` builds
        it, and keeps the saved generation; the restored ``stream()`` is
        bit-identical to a fresh ``stream()`` of the saved one, its
        :attr:`matches` are the saved ones, and it accepts further
        ingests/probes exactly like the original.
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
