"""The :class:`Resolver`: a live progressive-resolution session.

``ERPipeline.fit(data)`` returns a Resolver that owns the configured
stages end to end: it builds the blocks, instantiates the progressive
method and the decision cascade, and exposes the emission stream with
budget control.

The method hands its emission over a ranked chunk at a time; the
session slices the pending chunk for ``next_batch(n)``, hands it out
item by item for ``stream()``, and books a comparison only when it is
handed out - so streaming is *pausable by construction*: consumers
interleave, stop and resume without losing or repeating a comparison;
``reset()`` restarts emission from the top (rebuilding the method, so it
costs about one initialization).  Budgets hold across all consumers:
``comparisons`` and ``target_recall`` stop exactly, ``seconds`` is read
before each hand-out of at most one chunk, so it overshoots by one chunk
at most.
"""

from __future__ import annotations

import copy
import dataclasses
import math
import time
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, NamedTuple

from repro.blocking.base import BlockCollection
from repro.blocking.workflow import blocking_workflow
from repro.core.comparisons import Comparison
from repro.core.ground_truth import GroundTruth, clusters_of
from repro.core.profiles import ProfileStore
from repro.errors import ConfigError, SessionClosed
from repro.evaluation.metrics import DecisionQuality, decision_quality
from repro.evaluation.progressive_recall import RecallCurve
from repro.matching.cascade import MatcherCascade, TierDecision
from repro.pipeline.config import BudgetConfig
from repro.progressive.base import ProgressiveMethod
from repro.registry import normalize, progressive_methods

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.datasets.base import ChunkedProfileStore
    from repro.pipeline.config import PipelineConfig

# An oracle hook: pair -> is-match decision, used for recall bookkeeping
# and target-recall early stopping.
OracleHook = Callable[[int, int], bool]

#: Decide-mode chunk: large enough to amortize the vectorized tier pass,
#: small enough to keep the stream responsive.
DECISION_BATCH = 1024


class DecisionRecord(NamedTuple):
    """One decided comparison from :meth:`Resolver.resolve_stream`."""

    comparison: Comparison
    decision: bool
    tier: str
    similarity: float


@dataclass
class _Built:
    """What a session builds at most once.  Its forks hold the same
    instance, so what a fork builds is the session's too: one sweep."""

    backend: "object | None" = None
    substrate: "object | None" = None
    blocks: BlockCollection | None = None
    pruned: list[Comparison] | None = None


@dataclass
class ResolverProgress:
    """Snapshot of a session's emission state."""

    emitted: int
    matches_confirmed: int
    true_matches_found: int
    total_matches: int | None
    exhausted: bool
    elapsed_seconds: float | None

    @property
    def recall(self) -> float | None:
        """Ground-truth recall so far (None without a ground truth)."""
        if not self.total_matches:
            return None
        return self.true_matches_found / self.total_matches


class Resolver:
    """A progressive ER session over one profile store.

    Built by :meth:`repro.pipeline.ERPipeline.fit`; not usually
    constructed directly.

    Parameters
    ----------
    config:
        The frozen pipeline spec driving every stage.
    store:
        The profiles to resolve.
    ground_truth:
        Optional oracle for recall bookkeeping, target-recall stopping
        and :meth:`evaluate`.
    dataset_name:
        Provenance recorded on produced :class:`RecallCurve` objects.
    psn_key:
        Schema-based blocking key, injected into methods that require a
        ``key_function`` (the PSN baseline) when the user did not supply
        one - this is how ``fit(dataset)`` makes PSN work out of the box.

    Examples
    --------
    Streaming and batch pulls share one emitter and one budget:

    >>> from repro import ERPipeline
    >>> resolver = (
    ...     ERPipeline()
    ...     .blocking("token", purge=None)
    ...     .method("ONLINE")
    ...     .budget(comparisons=2)
    ...     .fit([
    ...         {"name": "Carl White", "city": "NY"},
    ...         {"name": "Karl White", "city": "NY"},
    ...         {"name": "Ellen White", "city": "ML"},
    ...     ])
    ... )
    >>> [c.pair for c in resolver.next_batch(1)]
    [(0, 1)]
    >>> [c.pair for c in resolver.stream()]  # resumes, stops at budget
    [(0, 2)]
    >>> progress = resolver.progress()
    >>> progress.emitted, progress.exhausted
    (2, False)
    """

    def __init__(
        self,
        config: "PipelineConfig",
        store: "ProfileStore | ChunkedProfileStore",
        ground_truth: GroundTruth | None = None,
        dataset_name: str = "",
        psn_key: Callable[..., Any] | None = None,
    ) -> None:
        if (
            config.budget.target_recall is not None
            and ground_truth is None
        ):
            raise ValueError(
                "target_recall budget requires a ground truth (oracle) at fit time"
            )
        self.config = config
        self.store = store
        self.ground_truth = ground_truth
        self.dataset_name = dataset_name
        self._psn_key = psn_key
        self._built = _Built()
        self.method: ProgressiveMethod | None = None
        self.cascade: MatcherCascade | None = None
        self._closed = False
        self._restart()

    def _restart(self) -> None:
        """Set the emission state to a fresh session's: nothing emitted,
        decided or found, no pending chunk or record, no emitter (the
        next :meth:`initialize` makes one from the method)."""
        self._emitter: Iterator[list[Comparison]] | None = None
        #: The pending chunk and the offset of its next comparison.
        self._chunk: list[Comparison] = []
        self._offset = 0
        #: Decided records ``resolve_stream(decide=True)`` has not handed out.
        self._records: deque[DecisionRecord] = deque()
        self._batcher: "Any | None" = None
        self._batcher_built = False
        self._decided = 0
        self._emitted = 0
        self._exhausted = False
        self._started_at: float | None = None
        self._matched_pairs: set[tuple[int, int]] = set()
        self._true_found: set[tuple[int, int]] = set()
        self._hit_positions: list[int] = []

    def _fork(self, ground_truth: GroundTruth | None, **stages: Any) -> "Resolver":
        """A restarted copy of this session with ``stages`` of its spec
        replaced, for a run that must not touch this one.

        The fork shares what the session builds once - its backend
        instance, substrate, blocks and pruned edges, and a live
        session's index and lock - and builds its own method, cascade
        and emission state.  It never closes what it shares and books
        nothing on this session.
        """
        fork = copy.copy(self)
        fork.config = dataclasses.replace(self.config, **stages)
        fork.ground_truth = ground_truth
        fork.method = fork.cascade = None
        fork._restart()
        return fork

    # -- construction of the staged components -------------------------------

    def _method_wants_blocks(self) -> bool:
        return progressive_methods.accepts(self.config.method.name, "blocks")

    def _storage_kwargs(self) -> "dict[str, Any]":
        """Constructor kwargs carrying the spec's storage stage, if any."""
        stage = self.config.storage
        if stage is None or stage.mode == "ram":
            return {}
        return {"storage": stage.mode, "storage_dir": stage.dir}

    def _method_backend(self) -> "str | object":
        """What to hand a method's ``backend=``: the spec's name, or - for
        a configured parallel and/or storage stage - a live
        :class:`~repro.engine.NumpyBackend` /
        :class:`~repro.parallel.backend.ParallelBackend` carrying the
        ``workers``/``shards``/``storage`` knobs (methods accept
        backend instances as well as registry names).

        The instance is built once per session and cached, so every
        consumer - method builds, reset rebuilds, graph pruning - shares
        one backend and therefore one worker pool, shipped payload and
        scratch store.  Registry singletons are never configured or
        closed; only session-built instances are.  The python reference
        backend has no array structures, so a storage stage leaves it
        untouched (same stream either way).
        """
        built = self._built
        if built.backend is not None:
            return built.backend
        spec = self.config.parallel
        storage_kwargs = self._storage_kwargs()
        if self.config.backend == "numpy-parallel" and (
            spec is not None or storage_kwargs
        ):
            from repro.parallel.backend import ParallelBackend

            # The stage's fields are the backend's knobs, name for name.
            knobs = {} if spec is None else spec.to_dict()
            built.backend = ParallelBackend(**knobs, **storage_kwargs)
            return built.backend
        if self.config.backend == "numpy" and storage_kwargs:
            from repro.engine import NumpyBackend

            built.backend = NumpyBackend(**storage_kwargs)
            return built.backend
        return self.config.backend

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` tore this session down."""
        return self._closed

    def _check_open(self) -> None:
        if self._closed:
            raise SessionClosed(
                f"this {type(self).__name__} session is closed; open a "
                "fresh session with ERPipeline.fit(...)"
            )

    def close(self) -> None:
        """Release the session's runtime resources now (idempotent).

        Tears down the session-built backend instance, if any: its
        worker pool and its ``storage="memmap"`` scratch directory.
        Garbage collection does the same eventually; ``close`` (or using
        the resolver as a context manager) makes it deterministic.
        Structures already handed out against a memmap store become
        invalid.  Registry-singleton backends are never touched.

        Closing twice (or more) is a no-op; any *other* use of the
        session afterwards raises
        :class:`~repro.errors.SessionClosed`.
        """
        self._closed = True
        backend, self._built.backend = self._built.backend, None
        if backend is not None:
            backend.close()  # type: ignore[attr-defined]
        self._built.substrate = None
        self._batcher = None

    def __enter__(self) -> "Resolver":
        return self

    def __exit__(self, *exc_info: "Any") -> None:
        self.close()

    def _substrate_spec(self) -> "Any | None":
        """The shared-substrate spec of this session's blocking stage.

        ``None`` when the stage is not the plain Token Blocking workflow
        (custom schemes or scheme params build their own blocks and
        bypass the substrate entirely).
        """
        blocking = self.config.blocking
        if normalize(blocking.scheme) != "TOKEN" or blocking.params:
            return None
        from repro.blocking.substrate import SubstrateSpec

        return SubstrateSpec(
            purge_ratio=blocking.purge_ratio,
            filter_ratio=blocking.filter_ratio,
        )

    def _session_substrate(self) -> "Any | None":
        """The session's shared blocking substrate, built lazily (once).

        One tokenization sweep serves the method build, graph pruning
        and block introspection; ``None`` when the blocking stage cannot
        be expressed as a substrate spec.
        """
        spec = self._substrate_spec()
        if spec is None:
            return None
        if self._built.substrate is None:
            from repro.engine import get_backend

            backend = get_backend(self._method_backend()).require()
            self._built.substrate = backend.blocking_substrate(self.store, spec)
        return self._built.substrate

    def _ensure_blocks(self) -> BlockCollection:
        """Build (once) and return the blocking-stage output."""
        built = self._built
        if built.blocks is None:
            substrate = self._session_substrate()
            if substrate is not None:
                built.blocks = substrate.blocks()
            else:
                blocking = self.config.blocking
                built.blocks = blocking_workflow(
                    self.store,
                    scheme=blocking.scheme,
                    purge_ratio=blocking.purge_ratio,
                    filter_ratio=blocking.filter_ratio,
                    **blocking.params,
                )
        return built.blocks

    @property
    def blocks(self) -> BlockCollection | None:
        """The blocking-stage output (None for methods that do not consume
        redundancy-positive blocks).

        Built on first access.  On the default token workflow the blocks
        materialize from the session's shared blocking substrate, so
        reading this property costs no extra tokenization sweep."""
        if self._built.blocks is None and self._method_wants_blocks():
            self._ensure_blocks()
        return self._built.blocks

    def pruned_comparisons(self) -> "list[Comparison] | None":
        """The retained edges of the pruned Blocking Graph, ranked.

        ``None`` without a ``.meta(pruning=...)`` stage.  Computed once
        per session on the configured backend (reference, CSR kernels or
        sharded kernels - bit-identical either way) and cached; the
        emission stream is then restricted to exactly these pairs.
        """
        meta = self.config.meta
        if meta.pruning is None:
            return None
        if self._built.pruned is None:
            from repro.metablocking.pruning import prune

            self._built.pruned = prune(
                self._ensure_blocks(),
                algorithm=meta.pruning,
                scheme_name=meta.weighting,
                backend=self._method_backend(),
            )
        return self._built.pruned

    def _emitter_for(self, method: ProgressiveMethod) -> Iterator[list[Comparison]]:
        """The method's chunks, pruned when the spec asks for it.

        With a pruning stage, the method's ranking is restricted to the
        retained edges: comparisons outside the pruned graph are dropped,
        order is otherwise untouched - so ONLINE emits exactly the
        ranked retained stream, and PPS/PBS emit their usual schedule
        filtered to surviving edges (a chunk may come out empty).
        """
        chunks = method.chunks()
        retained = self.pruned_comparisons()
        if retained is None:
            return chunks
        kept = {comparison.pair for comparison in retained}
        return ([c for c in chunk if c.pair in kept] for chunk in chunks)

    def build_method(self) -> ProgressiveMethod:
        """A fresh, uninitialized method instance wired from the spec.

        The blocking and weighting stages only apply to the
        blocking-graph (equality-based) methods; Neighbor-List methods
        build their own substrate and take their knobs via method params.
        When the blocking spec is the method's own token workflow, its
        knobs are passed through instead of pre-building, so block
        construction stays inside the method's (timed) initialization
        phase, exactly as in the paper's protocol.
        """
        name = self.config.method.name
        kwargs = dict(self.config.method.params)
        if self._method_wants_blocks():
            blocking = self.config.blocking
            if "blocks" not in kwargs:
                if (
                    normalize(blocking.scheme) == "TOKEN"
                    and not blocking.params
                    and progressive_methods.accepts(name, "purge_ratio")
                    and progressive_methods.accepts(name, "filter_ratio")
                ):
                    kwargs.setdefault("purge_ratio", blocking.purge_ratio)
                    kwargs.setdefault("filter_ratio", blocking.filter_ratio)
                else:
                    kwargs["blocks"] = self.blocks
            # applies regardless of where the blocks came from, so a
            # bring-your-own-blocks call still honors the .meta() stage
            if progressive_methods.accepts(name, "weighting"):
                kwargs.setdefault("weighting", self.config.meta.weighting)
        # the session substrate: methods that accept one share this
        # session's single tokenization sweep.  User-supplied workflow
        # knobs or backend in the method params opt the method out - its
        # private build must honor them, and the shared substrate would not.
        if progressive_methods.accepts(name, "substrate") and not (
            {"substrate", "blocks", "backend", "purge_ratio", "filter_ratio"}
            & set(self.config.method.params)
        ):
            substrate = self._session_substrate()
            if substrate is not None:
                kwargs["substrate"] = substrate
        # the backend seam: only methods that declare it get the engine
        # selection; the rest (PSN, SA-PSN, SA-PSAB) stay backend-free
        if progressive_methods.accepts(name, "backend"):
            kwargs.setdefault("backend", self._method_backend())
        if (
            self._psn_key is not None
            and progressive_methods.accepts(name, "key_function")
        ):
            kwargs.setdefault("key_function", self._psn_key)
        return progressive_methods.build(name, self.store, **kwargs)

    def _build_cascade(self) -> MatcherCascade | None:
        """The configured decision cascade, or ``None`` without a stage."""
        spec = self.config.match
        if spec is None:
            return None
        cascade: MatcherCascade = spec.build(ground_truth=self.ground_truth)
        return cascade

    # -- lifecycle -----------------------------------------------------------

    def initialize(self) -> "Resolver":
        """Build blocks, method and cascade; run the method's
        initialization phase (idempotent)."""
        self._check_open()
        if self.method is None:
            self.method = self.build_method()
            if self.cascade is None:
                self.cascade = self._build_cascade()
        self.method.initialize()
        if self._emitter is None:
            self._emitter = self._emitter_for(self.method)
            self._chunk, self._offset = [], 0
        return self

    def reset(self) -> "Resolver":
        """Restart emission and all budget/recall bookkeeping.

        Several methods consume their internal structures while emitting
        (e.g. PPS drains its Comparison List), so an already-initialized
        session rebuilds and re-initializes the method here - block
        building and weighting run again, making reset comparable in
        cost to the original initialization.
        """
        if self.method is not None:
            self.method = self.build_method()
            self.method.initialize()
            self.cascade = self._build_cascade()
        self._restart()
        return self

    # -- budget control --------------------------------------------------------

    def _recall(self) -> float | None:
        if self.ground_truth is None or len(self.ground_truth) == 0:
            return None
        return len(self._true_found) / len(self.ground_truth)

    def _budget_reached(self) -> bool:
        budget = self.config.budget
        if budget.comparisons is not None and self._emitted >= budget.comparisons:
            return True
        if (
            budget.seconds is not None
            and self._started_at is not None
            and time.perf_counter() - self._started_at >= budget.seconds
        ):
            return True
        if budget.target_recall is not None:
            recall = self._recall()
            if recall is not None and recall >= budget.target_recall:
                return True
        return False

    # -- emission ------------------------------------------------------------

    def _admit(self, piece: list[Comparison]) -> list[Comparison]:
        """The prefix of ``piece``, the session's next comparisons, the
        budgets admit (cut at the cap or after the hit reaching the target
        recall), booked - item by item only for a ground truth."""
        if self._budget_reached():
            return []
        budget = self.config.budget
        if budget.comparisons is not None:
            piece = piece[: budget.comparisons - self._emitted]
        start = self._emitted
        truth = self.ground_truth
        if truth is not None:
            found, target = self._true_found, budget.target_recall
            for position, (i, j, _weight) in enumerate(piece, start + 1):
                if (i, j) in found or not truth.is_match(i, j):
                    continue
                found.add((i, j))
                self._hit_positions.append(position)
                if self.config.match is None:
                    self._matched_pairs.add((i, j))
                if target is not None and len(found) / len(truth) >= target:
                    piece = piece[: position - start]
                    break
        self._emitted = start + len(piece)
        return piece

    def _take(self, n: int) -> list[Comparison]:
        """Up to ``n`` admitted comparisons sliced off the pending chunk,
        the next one fetched when it is spent (``[]`` at a budget or the end)."""
        assert self._emitter is not None
        if self._started_at is None:
            self._started_at = time.perf_counter()
        if self._offset == len(self._chunk):
            if self._budget_reached():  # compute no chunk nothing would admit
                return []
            chunk = next(filter(None, self._emitter), None)
            if chunk is None:
                self._exhausted = True
                return []
            self._chunk, self._offset = chunk, 0
        piece = self._admit(self._chunk[self._offset : self._offset + n])
        self._offset += len(piece)
        return piece

    def stream(self) -> Iterator[Comparison]:
        """Yield comparisons best-first until a budget stops the session.

        All ``stream()`` generators and ``next_batch`` calls share one
        pending chunk and one budget, and a comparison is booked only
        when it is yielded, so consumption can pause and resume freely
        across call sites.
        """
        self.initialize()
        while piece := self._take(1):
            yield piece[0]

    def next_batch(self, n: int) -> list[Comparison]:
        """The next ``n`` comparisons (fewer at budget/stream end)."""
        self._check_open()
        if n < 0:
            raise ValueError(f"batch size must be >= 0, got {n!r}")
        batch: list[Comparison] = []
        if n == 0:
            return batch
        self.initialize()
        while len(batch) < n and (piece := self._take(n - len(batch))):
            batch += piece
        return batch

    # -- the decision layer --------------------------------------------------

    def _decision_cascade(self) -> MatcherCascade:
        """The session's live cascade (building it on first use).

        Built without touching the method (probe-style consumers must
        not pay a method rebuild); :meth:`initialize` later adopts this
        instance instead of rebuilding it.
        """
        self._check_open()
        if self.cascade is None:
            self.cascade = self._build_cascade()
        if self.cascade is None:
            raise ConfigError(
                "deciding comparisons needs a decision stage; configure "
                ".match(...) on the pipeline (one matcher is the one-tier "
                "cascade .match('<name>'))"
            )
        return self.cascade

    def _batch_matcher(self) -> "Any | None":
        """The engine's vectorized tier-0/tier-1 evaluator, if usable.

        Requires a vectorized session substrate (the numpy /
        numpy-parallel token workflow) and a cascade whose leading tiers
        are the stock batchable implementations; everything else decides
        through the pure-Python tier loop.  The batch path runs over the
        substrate's fan-out - the session backend's - so it follows the
        ``.parallel(...)`` stage.
        """
        if self._batcher_built:
            return self._batcher
        self._batcher_built = True
        cascade = self.cascade
        if cascade is None or cascade.batchable_prefix() < 1:
            return None
        substrate = self._session_substrate()
        if substrate is None or not getattr(substrate, "vectorized", False):
            return None
        from repro.engine.matching import CascadeBatchMatcher

        batcher = CascadeBatchMatcher(
            substrate,
            cascade,
            self.store,  # type: ignore[arg-type]
        )
        self._batcher = batcher if batcher.eligible else None
        return self._batcher

    def _decide(
        self,
        comparisons: list[Comparison],
        cascade: MatcherCascade,
        *,
        record: bool = True,
        batcher: "Any | None" = None,
    ) -> list[DecisionRecord]:
        """Decide each comparison - the one decide loop of every session.

        With ``record`` the decisions count towards the session and
        matches join its confirmed pairs; without it only the cascade's
        own tier counters advance.  A ``batcher`` evaluates the cheap
        tiers of the whole list at once.
        """
        verdicts: Iterable[TierDecision]
        if batcher is not None:
            verdicts = batcher.decide_batch(comparisons)
        else:
            store = self.store
            verdicts = (cascade.decide(store[c.i], store[c.j]) for c in comparisons)
        records: list[DecisionRecord] = []
        for comparison, verdict in zip(comparisons, verdicts):
            if record:
                self._decided += 1
                if verdict.is_match:
                    self._matched_pairs.add(comparison.pair)
            records.append(
                DecisionRecord(
                    comparison, verdict.is_match, verdict.tier,
                    verdict.similarity,
                )
            )
        return records

    def resolve_stream(
        self, decide: bool = False, batch_size: int = DECISION_BATCH
    ) -> "Iterator[Comparison | DecisionRecord]":
        """The session stream, optionally decided by the cascade.

        ``decide=False`` is exactly :meth:`stream` - the ranked
        comparisons, untouched.  ``decide=True`` routes the same stream
        through the decision layer and yields
        :class:`DecisionRecord` tuples ``(comparison, decision, tier,
        similarity)``; on a vectorized backend the cheap tiers are
        evaluated in batches of ``batch_size`` straight off the session
        substrate's interned token postings.  Budgets, pausability and
        bookkeeping are shared with every other consumer of the session;
        decided records not yet yielded stay pending for the next call:

        >>> import itertools
        >>> from repro import ERPipeline
        >>> records = [{"n": "alpha beta"}, {"n": "alpha gamma"}, {"n": "beta gamma"}]
        >>> resolver = ERPipeline().blocking("token", purge=None).match().fit(records)
        >>> first = list(itertools.islice(resolver.resolve_stream(decide=True), 1))
        >>> rest = list(resolver.resolve_stream(decide=True))
        >>> len(first + rest), resolver.progress().emitted
        (5, 5)
        """
        if not decide:
            yield from self.stream()
            return
        cascade = self._decision_cascade()
        batcher = self._batch_matcher()
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size!r}")
        records = self._records
        while True:
            while records:
                yield records.popleft()
            batch = self.next_batch(batch_size)
            if not batch:
                return
            records.extend(self._decide(batch, cascade, batcher=batcher))

    def decisions(self) -> Iterator[DecisionRecord]:
        """Decided comparisons, best-first (see :meth:`resolve_stream`)."""
        for record in self.resolve_stream(decide=True):
            yield record  # type: ignore[misc]

    def clusters(self, include_singletons: bool = False) -> list[list[int]]:
        """Transitively-closed entity clusters over the confirmed matches.

        Union-find over every pair in :attr:`matches` (so consume the
        stream - e.g. drain :meth:`decisions` - first).  Returns sorted
        id lists, sorted by their smallest member;
        ``include_singletons`` appends one-profile clusters for every
        store profile no match touched.
        """
        result = [list(cluster) for cluster in clusters_of(self._matched_pairs)]
        if include_singletons:
            members = {pid for cluster in result for pid in cluster}
            result.extend(
                [pid] for pid in range(len(self.store)) if pid not in members
            )
        return sorted(result)

    def cascade_stats(self) -> "dict[str, Any] | None":
        """JSON-able per-tier cascade counters (None without a cascade)."""
        return None if self.cascade is None else self.cascade.stats()

    def decision_quality(
        self, ground_truth: GroundTruth | None = None
    ) -> DecisionQuality:
        """Precision/recall/F1 of the matches confirmed *so far*.

        Grades this session's current :attr:`matches` against the ground
        truth - consume the decision stream first.  For the
        fresh-run protocol use :meth:`evaluate_decisions`.
        """
        truth = ground_truth if ground_truth is not None else self.ground_truth
        if truth is None:
            raise ValueError("decision_quality requires a ground truth")
        return decision_quality(
            self._matched_pairs,
            truth,
            decided=self._decided if self._decided else None,
            by_tier=_by_tier(self.cascade),
        )

    def evaluate_decisions(
        self, ground_truth: GroundTruth | None = None
    ) -> DecisionQuality:
        """Decision-based precision/recall/F1 on a fresh emission run.

        Mirrors :meth:`evaluate`'s protocol: a fork of this session -
        its own method and cascade, this session's substrate - decides
        its whole (pruned) stream under the spec's comparison budget
        and is graded by :meth:`decision_quality`.  This session's
        emitter, counters and matches are left untouched.
        """
        truth = ground_truth if ground_truth is not None else self.ground_truth
        if truth is None:
            raise ValueError("evaluate_decisions requires a ground truth")
        budget = BudgetConfig(comparisons=self.config.budget.comparisons)
        fork = self._fork(self.ground_truth, budget=budget)
        for _ in fork.decisions():
            pass
        return fork.decision_quality(truth)

    # -- results ------------------------------------------------------------

    @property
    def matches(self) -> set[tuple[int, int]]:
        """Distinct pairs confirmed so far (by the cascade, else the oracle)."""
        return set(self._matched_pairs)

    def progress(self) -> ResolverProgress:
        """Current emission/recall snapshot."""
        return ResolverProgress(
            emitted=self._emitted,
            matches_confirmed=len(self._matched_pairs),
            true_matches_found=len(self._true_found),
            total_matches=(
                None if self.ground_truth is None else len(self.ground_truth)
            ),
            exhausted=self._exhausted,
            elapsed_seconds=(
                None
                if self._started_at is None
                else time.perf_counter() - self._started_at
            ),
        )

    def partial_curve(self) -> RecallCurve:
        """Recall curve of the comparisons streamed so far.

        Requires a ground truth; positions refer to this session's
        emission counter.  Labelled with the built method's name (a live
        session streams ``"ONLINE"``), the spec's before the first build.
        """
        if self.ground_truth is None:
            raise ValueError("partial_curve requires a ground truth")
        method = self.config.method.name if self.method is None else self.method.name
        return RecallCurve(
            method=method,
            total_matches=len(self.ground_truth),
            hit_positions=list(self._hit_positions),
            emitted=self._emitted,
            exhausted=self._exhausted,
            dataset=self.dataset_name,
        )

    def evaluate(
        self, ground_truth: GroundTruth | None = None, max_ec_star: float = 30.0
    ) -> RecallCurve:
        """The paper's progressiveness protocol on a fresh emission run.

        A fork of this session (emission in several methods consumes
        internal structures, so reusing the session's stream would bias
        the curve) streams under a budget of ``max_ec_star * |D(P)|``
        comparisons and a target recall of 1 - the run ends at full
        recall, where the curve goes flat - booking ground-truth hits;
        its :meth:`partial_curve` is the result.  This session is left
        untouched; :meth:`evaluate_decisions` is the decision
        counterpart.
        """
        truth = ground_truth if ground_truth is not None else self.ground_truth
        if truth is None:
            raise ValueError("evaluate requires a ground truth")
        budget = BudgetConfig(
            comparisons=math.ceil(max_ec_star * len(truth)), target_recall=1.0
        )
        fork = self._fork(truth, budget=budget, match=None)
        while fork.next_batch(DECISION_BATCH):
            pass
        return fork.partial_curve()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        initialized = self.method is not None and self.method._initialized
        state = "initialized" if initialized else "fresh"
        return (
            f"Resolver({self.config.method.name}, {state}, "
            f"|P|={len(self.store)}, emitted={self._emitted})"
        )


def _by_tier(cascade: MatcherCascade | None) -> dict[str, int]:
    """Comparisons decided per tier, from a cascade's counters."""
    if cascade is None:
        return {}
    return {stats["name"]: stats["decided"] for stats in cascade.stats()["tiers"]}
