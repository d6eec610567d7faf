"""The :class:`Resolver`: a live progressive-resolution session.

``ERPipeline.fit(data)`` returns a Resolver that owns the configured
stages end to end: it builds the blocks, instantiates the progressive
method and the match function, and exposes the emission stream with
budget control.

Streaming is *pausable by construction*: ``stream()`` and
``next_batch(n)`` pull from one shared emitter, so a consumer can
interleave batches, stop at any point, and resume later; ``reset()``
restarts emission from the top (rebuilding the method, so it costs about
one initialization).  Budgets (comparison count, wall-clock, target
recall) are enforced across all consumers of the session, not per call.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, NamedTuple

from repro.blocking.base import BlockCollection
from repro.blocking.workflow import blocking_workflow
from repro.core.comparisons import Comparison
from repro.core.ground_truth import GroundTruth
from repro.core.profiles import EntityProfile, ProfileStore
from repro.errors import ConfigError, SessionClosed
from repro.evaluation.metrics import DecisionQuality, decision_quality
from repro.evaluation.progressive_recall import RecallCurve, _drive_progressive
from repro.matching.cascade import MatcherCascade, TierDecision
from repro.matching.match_functions import MatchFunction
from repro.progressive.base import ProgressiveMethod
from repro.registry import matchers, normalize, progressive_methods

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


class EvaluationReport(NamedTuple):
    """The ranking curve and the decision quality of one evaluation run."""

    curve: RecallCurve
    quality: DecisionQuality


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
        self._blocks: BlockCollection | None = None
        self._substrate: "object | None" = None
        self._pruned: list[Comparison] | None = None
        self._backend_instance: "object | None" = None
        self.method: ProgressiveMethod | None = None
        self.matcher: MatchFunction | None = None
        self.cascade: MatcherCascade | None = None
        self._batcher: "Any | None" = None
        self._batcher_built = False
        self._decided = 0
        self._emitter: Iterator[Comparison] | None = None
        self._emitted = 0
        self._exhausted = False
        self._closed = False
        self._started_at: float | None = None
        self._matched_pairs: set[tuple[int, int]] = set()
        self._true_found: set[tuple[int, int]] = set()
        self._hit_positions: list[int] = []

    # -- construction of the staged components -------------------------------

    def _method_wants_blocks(self) -> bool:
        return progressive_methods.accepts(self.config.method.name, "blocks")

    def _storage_kwargs(self) -> "dict[str, Any]":
        """Constructor kwargs carrying the spec's storage stage, if any."""
        storage = self.config.storage
        if storage is None or storage.mode == "ram":
            return {}
        return {"storage": storage.mode, "storage_dir": storage.dir}

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
        if self._backend_instance is not None:
            return self._backend_instance
        spec = self.config.parallel
        storage_kwargs = self._storage_kwargs()
        if self.config.backend == "numpy-parallel" and (
            spec is not None or storage_kwargs
        ):
            from repro.parallel.backend import ParallelBackend

            # The stage's fields are the backend's knobs, name for name.
            knobs = {} if spec is None else spec.to_dict()
            self._backend_instance = ParallelBackend(**knobs, **storage_kwargs)
            return self._backend_instance
        if self.config.backend == "numpy" and storage_kwargs:
            from repro.engine import NumpyBackend

            self._backend_instance = NumpyBackend(**storage_kwargs)
            return self._backend_instance
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
        backend, self._backend_instance = self._backend_instance, None
        if backend is not None:
            backend.close()  # type: ignore[attr-defined]
        self._substrate = None
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
        if self._substrate is None:
            from repro.engine import get_backend

            backend = get_backend(self._method_backend()).require()
            self._substrate = backend.blocking_substrate(self.store, spec)
        return self._substrate

    def _ensure_blocks(self) -> BlockCollection:
        """Build (once) and return the blocking-stage output."""
        if self._blocks is None:
            substrate = self._session_substrate()
            if substrate is not None:
                self._blocks = substrate.blocks()
            else:
                blocking = self.config.blocking
                self._blocks = blocking_workflow(
                    self.store,
                    scheme=blocking.scheme,
                    purge_ratio=blocking.purge_ratio,
                    filter_ratio=blocking.filter_ratio,
                    **blocking.params,
                )
        return self._blocks

    @property
    def blocks(self) -> BlockCollection | None:
        """The blocking-stage output (None for methods that do not consume
        redundancy-positive blocks).

        Built on first access.  On the default token workflow the blocks
        materialize from the session's shared blocking substrate, so
        reading this property costs no extra tokenization sweep."""
        if self._blocks is None and self._method_wants_blocks():
            self._ensure_blocks()
        return self._blocks

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
        if self._pruned is None:
            from repro.metablocking.pruning import prune

            self._pruned = prune(
                self._ensure_blocks(),
                algorithm=meta.pruning,
                scheme_name=meta.weighting,
                backend=self._method_backend(),
                **meta.params,
            )
        return self._pruned

    def _emitter_for(self, method: ProgressiveMethod) -> Iterator[Comparison]:
        """The method's emission stream, pruned when the spec asks for it.

        With a pruning stage, the method's ranking is restricted to the
        retained edges: comparisons outside the pruned graph are dropped,
        order is otherwise untouched - so ONLINE emits exactly the
        ranked retained stream, and PPS/PBS emit their usual schedule
        filtered to surviving edges.
        """
        emitter = iter(method)
        retained = self.pruned_comparisons()
        if retained is None:
            return emitter
        kept = {comparison.pair for comparison in retained}
        return (c for c in emitter if c.pair in kept)

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
            {"substrate", "blocks", "backend", "tokenizer", "purge_ratio", "filter_ratio"}
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
    def _build_matcher(self) -> MatchFunction | None:
        spec = self.config.matcher
        if spec is None:
            return None
        kwargs = dict(spec.params)
        if normalize(spec.name) == "ORACLE" and self.ground_truth is not None:
            kwargs.setdefault("ground_truth", self.ground_truth)
        return matchers.build(spec.name, **kwargs)

    def _build_cascade(self) -> MatcherCascade | None:
        """The configured decision cascade, or ``None`` without a stage.

        A served session gets the strict expensive-budget mode: a spent
        call budget *rejects* (``BudgetExceeded`` reason
        ``"expensive-calls"``) instead of deciding at the previous
        tier - the admission-control contract of :mod:`repro.service`.
        """
        spec = self.config.match
        if spec is None:
            return None
        exhausted = "error" if self.config.service is not None else "fallback"
        cascade: MatcherCascade = spec.build(
            ground_truth=self.ground_truth, exhausted=exhausted
        )
        return cascade

    # -- lifecycle -----------------------------------------------------------

    @property
    def initialized(self) -> bool:
        return self.method is not None and self.method._initialized

    def initialize(self) -> "Resolver":
        """Build blocks, method and matcher; run the method's
        initialization phase (idempotent)."""
        self._check_open()
        if self.method is None:
            self.method = self.build_method()
            self.matcher = self._build_matcher()
            if self.cascade is None:
                self.cascade = self._build_cascade()
        self.method.initialize()
        if self._emitter is None:
            self._emitter = self._emitter_for(self.method)
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
            self._emitter = self._emitter_for(self.method)
        self._batcher = None
        self._batcher_built = False
        self._decided = 0
        self._emitted = 0
        self._exhausted = False
        self._started_at = None
        self._matched_pairs.clear()
        self._true_found.clear()
        self._hit_positions.clear()
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

    def _record(self, comparison: Comparison) -> None:
        pair = comparison.pair
        if self.matcher is not None:
            a, b = self.store[comparison.i], self.store[comparison.j]
            if self.matcher(a, b):
                self._matched_pairs.add(pair)
        if self.ground_truth is not None and pair not in self._true_found:
            if self.ground_truth.is_match(*pair):
                self._true_found.add(pair)
                self._hit_positions.append(self._emitted)
                if self.matcher is None and self.config.match is None:
                    self._matched_pairs.add(pair)

    def stream(self) -> Iterator[Comparison]:
        """Yield comparisons best-first until a budget stops the session.

        All ``stream()`` generators and ``next_batch`` calls share one
        underlying emitter and one budget, so consumption can pause and
        resume freely across call sites.
        """
        self.initialize()
        assert self._emitter is not None
        if self._started_at is None:
            self._started_at = time.perf_counter()
        while not self._budget_reached():
            comparison = next(self._emitter, None)
            if comparison is None:
                self._exhausted = True
                return
            self._emitted += 1
            self._record(comparison)
            yield comparison

    def __iter__(self) -> Iterator[Comparison]:
        return self.stream()

    def next_batch(self, n: int) -> list[Comparison]:
        """The next ``n`` comparisons (fewer at budget/stream end)."""
        if n < 0:
            raise ValueError(f"batch size must be >= 0, got {n!r}")
        batch: list[Comparison] = []
        if n == 0:
            return batch
        for comparison in self.stream():
            batch.append(comparison)
            if len(batch) >= n:
                break
        return batch

    # -- the decision layer --------------------------------------------------

    def _decision_cascade(self) -> MatcherCascade:
        """The session's live cascade (building it on first use).

        Built without touching the method (probe-style consumers must
        not pay a method rebuild); :meth:`initialize` later adopts this
        instance instead of rebuilding it.  A plain ``.matcher(...)``
        stage keeps working: it is wrapped as a single-tier cascade
        deciding at the matcher's own threshold.
        """
        self._check_open()
        if self.cascade is None:
            self.cascade = self._build_cascade()
        if self.cascade is not None:
            return self.cascade
        if self.matcher is None:
            self.matcher = self._build_matcher()
        if self.matcher is not None:
            self.cascade = MatcherCascade.from_matcher(self.matcher)
            return self.cascade
        raise ConfigError(
            "deciding comparisons needs a decision stage; configure "
            ".match(...) (or a single-matcher .matcher(...) stage) on the "
            "pipeline"
        )

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
        profile_of: "Callable[[int], EntityProfile] | None" = None,
        record: bool = True,
        batcher: "Any | None" = None,
    ) -> list[DecisionRecord]:
        """Decide each comparison - the one decide loop of every session.

        ``profile_of`` resolves a pair's ids to profiles (default: the
        store; a read-only probe substitutes its unstored profile).
        With ``record`` the decisions count towards the session and
        matches join its confirmed pairs; without it only the cascade's
        own tier counters advance.  A ``batcher`` evaluates the cheap
        tiers of the whole list at once.
        """
        verdicts: Iterable[TierDecision]
        if batcher is not None:
            verdicts = batcher.decide_batch(comparisons)
        else:
            if profile_of is None:
                profile_of = self.store.__getitem__
            # Lazy: a cascade that raises mid-list (a spent expensive-tier
            # budget in a served session) keeps the decisions before it.
            verdicts = (
                cascade.decide(profile_of(c.i), profile_of(c.j))
                for c in comparisons
            )
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
        bookkeeping are shared with every other consumer of the session.
        """
        if not decide:
            yield from self.stream()
            return
        cascade = self._decision_cascade()
        batcher = self._batch_matcher()
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size!r}")
        buffer: list[Comparison] = []
        for comparison in self.stream():
            buffer.append(comparison)
            if len(buffer) >= batch_size:
                yield from self._decide(buffer, cascade, batcher=batcher)
                buffer = []
        if buffer:
            yield from self._decide(buffer, cascade, batcher=batcher)

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
        parent: dict[int, int] = {}

        def find(node: int) -> int:
            root = node
            while parent.get(root, root) != root:
                root = parent[root]
            while parent.get(node, node) != node:
                parent[node], node = root, parent[node]
            return root

        members: set[int] = set()
        for i, j in sorted(self._matched_pairs):
            members.update((i, j))
            root_i, root_j = find(i), find(j)
            if root_i != root_j:
                parent[max(root_i, root_j)] = min(root_i, root_j)
        groups: dict[int, list[int]] = {}
        for node in sorted(members):
            groups.setdefault(find(node), []).append(node)
        result = [sorted(group) for group in groups.values()]
        if include_singletons:
            result.extend(
                [pid]
                for pid in range(len(self.store))
                if pid not in members
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

        Mirrors :meth:`evaluate`'s protocol: a new method instance and a
        new cascade are built from the same spec and the full (pruned,
        comparison-budgeted) stream is decided through the pure-Python
        tier loop - this session's own emitter and counters are left
        untouched.
        """
        truth = ground_truth if ground_truth is not None else self.ground_truth
        if truth is None:
            raise ValueError("evaluate_decisions requires a ground truth")
        cascade = self._build_cascade()
        if cascade is None:
            matcher = self._build_matcher()
            if matcher is None:
                raise ConfigError(
                    "evaluate_decisions needs a decision stage; configure "
                    ".match(...) or .matcher(...) on the pipeline"
                )
            cascade = MatcherCascade.from_matcher(matcher)
        method = self.build_method()
        method.initialize()
        stream = itertools.islice(
            self._emitter_for(method), self.config.budget.comparisons
        )
        records = self._decide(list(stream), cascade, record=False)
        return decision_quality(
            {record.comparison.pair for record in records if record.decision},
            truth,
            decided=len(records),
            by_tier=_by_tier(cascade),
        )

    # -- results ------------------------------------------------------------

    @property
    def matches(self) -> set[tuple[int, int]]:
        """Distinct pairs confirmed so far (by the matcher, else oracle)."""
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
        emission counter.
        """
        if self.ground_truth is None:
            raise ValueError("partial_curve requires a ground truth")
        return RecallCurve(
            method=self.config.method.name,
            total_matches=len(self.ground_truth),
            hit_positions=list(self._hit_positions),
            emitted=self._emitted,
            exhausted=self._exhausted,
            dataset=self.dataset_name,
        )

    def evaluate(
        self,
        ground_truth: GroundTruth | None = None,
        max_ec_star: float = 30.0,
        stop_at_full_recall: bool = True,
        decisions: bool = False,
    ) -> "RecallCurve | EvaluationReport":
        """The paper's progressiveness protocol on a fresh emission run.

        A new method instance is built from the same config (emission in
        several methods consumes internal structures, so reusing the
        session's stream would bias the curve), then driven with
        ground-truth decisions up to ``max_ec_star * |D(P)|`` emissions.

        ``decisions=True`` additionally runs the decision protocol
        (:meth:`evaluate_decisions`) and returns an
        :class:`EvaluationReport` pairing the :class:`RecallCurve`
        (PC/PQ-style ranking quality) with the cascade's
        precision/recall/F1.
        """
        truth = ground_truth if ground_truth is not None else self.ground_truth
        if truth is None:
            raise ValueError("evaluate requires a ground truth")
        method = self.build_method()
        stream = method
        if self.config.meta.pruning is not None:
            # the protocol drives the *pruned* emission, as stream() does
            stream = _PrunedMethodView(method, self._emitter_for(method))
        curve = _drive_progressive(
            stream,
            truth,
            max_ec_star=max_ec_star,
            stop_at_full_recall=stop_at_full_recall,
            dataset=self.dataset_name,
        )
        if not decisions:
            return curve
        return EvaluationReport(
            curve=curve, quality=self.evaluate_decisions(truth)
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "initialized" if self.initialized else "fresh"
        return (
            f"Resolver({self.config.method.name}, {state}, "
            f"|P|={len(self.store)}, emitted={self._emitted})"
        )


def _by_tier(cascade: MatcherCascade | None) -> dict[str, int]:
    """Comparisons decided per tier, from a cascade's counters."""
    if cascade is None:
        return {}
    return {stats["name"]: stats["decided"] for stats in cascade.stats()["tiers"]}


class _PrunedMethodView:
    """A method stream restricted to the pruned graph, for the
    evaluation protocol (which only reads ``name`` and iterates)."""

    def __init__(
        self, method: ProgressiveMethod, emitter: Iterator[Comparison]
    ) -> None:
        self.name = method.name
        self._emitter = emitter

    def __iter__(self) -> Iterator[Comparison]:
        return self._emitter
