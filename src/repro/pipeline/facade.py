"""The quickstart path: ``resolve()`` in one call.

Wraps :class:`~repro.pipeline.ERPipeline` for the common case - pick a
method, optionally cap the work, get the ranked pairs and (when a ground
truth is available) the recall curve::

    from repro import resolve

    result = resolve("cora", method="PPS", budget=5_000)
    print(result.recall, result.curve.normalized_auc_at(1.0))
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.core.comparisons import Comparison
from repro.core.ground_truth import GroundTruth
from repro.errors import ConfigError
from repro.evaluation.metrics import DecisionQuality
from repro.evaluation.progressive_recall import RecallCurve
from repro.pipeline.builder import ERPipeline
from repro.pipeline.resolver import DecisionRecord, Resolver


@dataclass
class ResolutionResult:
    """What one :func:`resolve` call produced.

    With a matching cascade (``match=...``), ``decisions`` holds the
    per-comparison :class:`~repro.pipeline.resolver.DecisionRecord`
    stream, ``clusters`` the transitively-closed entities, ``quality``
    the decision precision/recall/F1 (ground truth permitting) and
    ``cascade_stats`` the per-tier counters.
    """

    pairs: list[Comparison] = field(default_factory=list)
    matches: set[tuple[int, int]] = field(default_factory=set)
    emitted: int = 0
    recall: float | None = None
    curve: RecallCurve | None = None
    resolver: Resolver | None = None
    decisions: list[DecisionRecord] = field(default_factory=list)
    clusters: list[list[int]] = field(default_factory=list)
    quality: DecisionQuality | None = None
    cascade_stats: "dict[str, Any] | None" = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        recall = "n/a" if self.recall is None else f"{self.recall:.3f}"
        return (
            f"ResolutionResult(emitted={self.emitted}, "
            f"matches={len(self.matches)}, recall={recall})"
        )


def resolve(
    data: Any,
    method: str = "PPS",
    *,
    budget: int | None = None,
    seconds: float | None = None,
    target_recall: float | None = None,
    match: Any = None,
    match_thresholds: dict[str, Any] | None = None,
    blocking: str = "token",
    purge: bool | float | None = True,
    filter_ratio: bool | float | None = 0.8,
    weighting: str = "ARCS",
    pruning: str | None = None,
    backend: str | None = None,
    workers: int | None = None,
    shards: int | None = None,
    storage: str | None = None,
    storage_dir: str | None = None,
    ground_truth: GroundTruth | None = None,
    **method_params: Any,
) -> ResolutionResult:
    """Run progressive ER end to end with one call.

    Parameters
    ----------
    data:
        Anything :meth:`ERPipeline.fit` accepts: a ProfileStore, a
        Dataset, a bundled dataset name, or parsed records.
    method:
        Progressive method acronym, any spelling ("PPS", "sa-psn", ...).
    budget, seconds, target_recall:
        Optional stopping rules (comparison count / wall clock / recall).
    match, match_thresholds:
        Optional matching *cascade* (see :meth:`ERPipeline.match`):
        ``match=True`` configures the stock
        exact -> jaccard -> edit-distance tiers, a name or sequence of
        names picks the tiers explicitly (one name is a single
        matcher).  The stream is then *decided* tier by tier: the result
        carries ``decisions``, ``clusters``, ``quality`` (with a ground
        truth) and ``cascade_stats``.  Without a cascade, match
        bookkeeping falls back to the ground truth when available.
    blocking, purge, filter_ratio, weighting:
        Substrate knobs for the equality-based methods.
    pruning:
        Optional Meta-blocking graph pruning (``"WNP"``/``"CNP"``/
        ``"RWNP"``/``"RCNP"``): emission is restricted to the retained
        edges of the pruned Blocking Graph.
    backend:
        Execution backend for backend-aware methods: ``"python"``
        (the default, reference), ``"numpy"`` (CSR/array engine,
        ``repro[speed]`` extra) or ``"numpy-parallel"`` (the CSR engine
        sharded across worker processes) - e.g. ``resolve(data,
        method="PPS", backend="numpy-parallel", workers=4)``.  An
        explicit non-parallel backend conflicts with ``workers``/
        ``shards`` and raises.
    workers, shards:
        Fan-out knobs for the parallel backend (see
        :meth:`ERPipeline.parallel`); passing either implies
        ``backend="numpy-parallel"``.  ``workers=0`` runs the shard
        code inline - same stream, no processes.
    storage, storage_dir:
        ``storage="memmap"`` serves the numpy backends' CSR structures
        from disk-backed scratch arrays in ``storage_dir`` (default:
        the system temp dir) - the identical stream under a bounded RAM
        footprint (see :meth:`ERPipeline.storage` and docs/scale.md).
        Close the returned ``result.resolver`` to reclaim the scratch
        space deterministically.
    method_params:
        Forwarded to the method constructor (e.g. ``k_max=20``).

    Returns
    -------
    ResolutionResult
        Emitted pairs in order, confirmed matches, recall and curve
        (when a ground truth is known), plus the live resolver for
        continued streaming or :meth:`Resolver.evaluate`.

    Examples
    --------
    Plain records in, ranked pairs out - the duplicate pair surfaces
    first, which is the point of progressive ER:

    >>> from repro import resolve
    >>> result = resolve(
    ...     [
    ...         {"name": "Carl White", "profession": "Tailor", "city": "NY"},
    ...         {"about": "Carl_White", "livesIn": "NY", "workAs": "Tailor"},
    ...         {"name": "Ellen White", "profession": "Teacher", "city": "ML"},
    ...     ],
    ...     method="PPS",
    ...     purge=None,
    ... )
    >>> result.pairs[0].pair
    (0, 1)
    >>> result.emitted >= 1
    True
    """
    pipeline = (
        ERPipeline()
        .blocking(blocking, purge=purge, filter_ratio=filter_ratio)
        .meta(weighting, pruning=pruning)
        .method(method, **method_params)
        .budget(
            comparisons=budget, seconds=seconds, target_recall=target_recall
        )
    )
    if backend is not None:
        # explicit choice: a conflicting workers/shards request raises
        # in .parallel() instead of silently overriding it
        pipeline.backend(backend)
    if (
        workers is not None
        or shards is not None
        or pipeline.config.backend == "numpy-parallel"
    ):
        pipeline.parallel(workers, shards)
    if storage is not None:
        pipeline.storage(storage, dir=storage_dir)
    elif storage_dir is not None:
        raise ConfigError(
            "storage_dir given without a storage mode; pass storage='memmap'"
        )
    if match is not None and match is not False:
        pipeline.match(None if match is True else match, thresholds=match_thresholds)
    elif match_thresholds:
        raise ConfigError(
            "match_thresholds given without a cascade; pass e.g. match=True"
        )
    resolver = pipeline.fit(data, ground_truth=ground_truth)

    decisions: list[DecisionRecord] = []
    if resolver.config.match is not None:
        for record in resolver.resolve_stream(decide=True):
            decisions.append(record)  # type: ignore[arg-type]
        pairs = [record.comparison for record in decisions]
    else:
        pairs = list(resolver.stream())
    progress = resolver.progress()
    curve = (
        resolver.partial_curve() if resolver.ground_truth is not None else None
    )
    return ResolutionResult(
        pairs=pairs,
        matches=resolver.matches,
        emitted=progress.emitted,
        recall=progress.recall,
        curve=curve,
        resolver=resolver,
        decisions=decisions,
        clusters=resolver.clusters() if decisions else [],
        quality=(
            resolver.decision_quality()
            if decisions and resolver.ground_truth is not None
            else None
        ),
        cascade_stats=resolver.cascade_stats(),
    )
