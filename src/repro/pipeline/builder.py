"""The :class:`ERPipeline` fluent builder.

One composable entrypoint for the whole blocking -> meta-blocking ->
progressive emission -> matching -> evaluation stack::

    pipeline = (
        ERPipeline()
        .blocking("token", purge=True, filter_ratio=0.8)
        .meta("ARCS")
        .method("PPS", k_max=20)
        .matcher("jaccard", threshold=0.75)
        .budget(comparisons=10_000)
    )
    resolver = pipeline.fit(load_dataset("cora"))

Every stage call validates its component name against the shared
registry immediately, so typos fail at build time with the list of
available components - and re-validates the *whole* spec
(:meth:`PipelineConfig.__post_init__`, the one home of every rule that
spans stages), so two stages that cannot coexist are refused at the
offending call, in whichever order they were made.  ``to_dict()`` /
``from_dict()`` round-trip the whole spec for reproducible experiment
configs.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Iterable, Mapping
from typing import TYPE_CHECKING, Any, Callable

from repro.core.ground_truth import GroundTruth
from repro.core.profiles import ProfileStore
from repro.errors import ConfigError
from repro.pipeline.config import (
    BlockingConfig,
    BudgetConfig,
    IncrementalConfig,
    MatchConfig,
    MatcherConfig,
    MetaBlockingConfig,
    MethodConfig,
    ParallelConfig,
    PipelineConfig,
    ServiceConfig,
    StorageConfig,
)
from repro.pipeline.resolver import Resolver

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.datasets.base import ChunkedProfileStore


def _ratio(flag: bool | float | None, default: float) -> float | None:
    """Interpret a purge/filter knob: True -> paper default, False/None ->
    step disabled, a float -> that ratio."""
    if flag is True:
        return default
    if flag is False or flag is None:
        return None
    return float(flag)


class ERPipeline:
    """Fluent, registry-backed spec of a progressive ER run.

    Stage methods update the pipeline and return it, so calls chain;
    :meth:`clone` forks a spec for parameter sweeps.  :meth:`fit` binds
    the spec to data and returns a live :class:`Resolver` session.

    Examples
    --------
    Build a spec, round-trip it through a plain dict, bind it to data:

    >>> from repro import ERPipeline
    >>> pipeline = ERPipeline().blocking("token", purge=None).method("PPS", k_max=5)
    >>> pipeline.to_dict()["method"]
    {'name': 'PPS', 'params': {'k_max': 5}}
    >>> ERPipeline.from_dict(pipeline.to_dict()).config.method.name
    'PPS'
    >>> resolver = pipeline.method("ONLINE").fit(
    ...     [{"name": "Carl White NY"}, {"name": "Karl White NY"}]
    ... )
    >>> [comparison.pair for comparison in resolver.stream()]
    [(0, 1)]

    Component names go through the shared registry, so any spelling
    resolves and typos fail fast with the available options:

    >>> ERPipeline().method("sa_psn").config.method.name
    'SA-PSN'
    """

    def __init__(self, config: PipelineConfig | None = None) -> None:
        self._config = config if config is not None else PipelineConfig()
        # Whether .backend(...) was called on *this* builder - the signal
        # that a later .parallel(...) must not silently override it.
        self._backend_explicit = False

    # -- stage configuration -------------------------------------------------

    def _set(self, **stages: Any) -> "ERPipeline":
        """Replace stages and re-validate the whole spec.

        Every stage method ends here: the new :class:`PipelineConfig`
        is constructed, so its cross-stage rules run on every call and
        a refused call leaves the pipeline as it was.
        """
        self._config = dataclasses.replace(self._config, **stages)
        return self

    def blocking(
        self,
        scheme: str = "token",
        *,
        purge: bool | float | None = True,
        filter_ratio: bool | float | None = 0.8,
        **params: Any,
    ) -> "ERPipeline":
        """Configure block building plus the purge/filter steps.

        ``purge``/``filter_ratio`` accept ``True`` (paper defaults: 0.1
        and 0.8), ``False``/``None`` (skip the step) or an explicit
        ratio.  Extra ``params`` go to the scheme's constructor (e.g.
        ``min_length=3`` for "suffix").
        """
        return self._set(
            blocking=BlockingConfig(
                scheme=scheme,
                purge_ratio=_ratio(purge, 0.1),
                filter_ratio=_ratio(filter_ratio, 0.8),
                params=params,
            )
        )

    def meta(
        self,
        weighting: str = "ARCS",
        *,
        pruning: str | None = None,
        **params: Any,
    ) -> "ERPipeline":
        """Configure Blocking Graph edge weighting and optional pruning.

        ``weighting`` selects the edge-weighting scheme the equality
        methods rank by.  ``pruning`` names a Meta-blocking pruning
        algorithm (``"WEP"``/``"CEP"``/``"WNP"``/``"CNP"`` or the
        reciprocal ``"RWNP"``/``"RCNP"``, any spelling); when set, the
        session's emission is restricted to the retained edges of the
        pruned Blocking Graph (see
        :meth:`~repro.pipeline.resolver.Resolver.pruned_comparisons`).
        Extra ``params`` go to the algorithm - currently ``k``, the
        cardinality budget of CEP/CNP/RCNP.

        >>> from repro import ERPipeline
        >>> spec = ERPipeline().meta("ARCS", pruning="cnp", k=3).to_dict()
        >>> spec["meta"]
        {'weighting': 'ARCS', 'pruning': 'CNP', 'params': {'k': 3}}
        """
        return self._set(
            meta=MetaBlockingConfig(
                weighting=weighting, pruning=pruning, params=params
            )
        )

    def method(self, name: str = "PPS", **params: Any) -> "ERPipeline":
        """Choose the progressive method; ``params`` go to its constructor."""
        return self._set(method=MethodConfig(name=name, params=params))

    def matcher(self, name: str = "jaccard", **params: Any) -> "ERPipeline":
        """Attach a match function applied to every streamed pair.

        Owns the match decision, so it is mutually exclusive with the
        :meth:`match` cascade stage (``.no_match()`` removes that one).
        """
        return self._set(matcher=MatcherConfig(name=name, params=params))

    def no_matcher(self) -> "ERPipeline":
        """Drop the matcher stage (stream pairs without deciding them)."""
        return self._set(matcher=None)

    def match(
        self,
        cascade: Any = None,
        *,
        thresholds: Mapping[str, Any] | None = None,
        expensive: Any = None,
        expensive_budget: int | None = None,
        params: Mapping[str, Mapping[str, Any]] | None = None,
        enabled: bool = True,
    ) -> "ERPipeline":
        """Attach the decision cascade applied to emitted pairs.

        ``cascade`` is the escalation order: ``None`` for the stock
        ``exact -> jaccard -> edit-distance`` tiers, a single registry
        name or :class:`~repro.matching.MatchFunction` for a one-tier
        cascade, or a sequence mixing both.  ``thresholds`` maps tier
        names to a float (the tier decides everything at that
        threshold) or a ``(reject, accept)`` confidence band;
        ``expensive``/``expensive_budget`` add the optional final
        arbiter behind a call budget; ``params`` are per-tier
        constructor kwargs.  ``enabled=False`` removes the stage.

        With a match stage, :meth:`~repro.pipeline.resolver.Resolver.decisions`
        / ``resolve_stream(decide=True)`` yield per-comparison decision
        records and ``clusters()`` returns the transitive closure.  The
        stage owns the match decision, so it is mutually exclusive with
        the single-matcher :meth:`matcher` stage.

        >>> from repro import ERPipeline
        >>> spec = ERPipeline().match(thresholds={"jaccard": (0.2, 0.9)})
        >>> spec.to_dict()["match"]["tiers"]
        ['exact', 'jaccard', 'edit-distance']
        """
        from repro.matching.match_functions import MatchFunction

        if not enabled:
            return self._set(match=None)
        if cascade is None:
            tiers: tuple[Any, ...] = MatchConfig.tiers
        elif isinstance(cascade, (str, MatchFunction)):
            tiers = (cascade,)
        elif isinstance(cascade, Iterable):
            tiers = tuple(cascade)
        else:
            raise ConfigError(
                "cascade must be None, a matcher name, a MatchFunction or "
                f"a sequence of tiers, got {cascade!r}"
            )
        return self._set(
            match=MatchConfig(
                tiers=tiers,
                thresholds=dict(thresholds or {}),
                expensive=expensive,
                expensive_budget=expensive_budget,
                params=dict(params or {}),
            )
        )

    def no_match(self) -> "ERPipeline":
        """Drop the cascade stage (stream pairs without deciding them)."""
        return self._set(match=None)

    def budget(
        self,
        comparisons: int | None = None,
        seconds: float | None = None,
        target_recall: float | None = None,
    ) -> "ERPipeline":
        """Set emission budgets; the first one hit stops the stream."""
        return self._set(
            budget=BudgetConfig(
                comparisons=comparisons,
                seconds=seconds,
                target_recall=target_recall,
            )
        )

    def backend(self, name: str = "python") -> "ERPipeline":
        """Choose the execution backend for backend-aware methods.

        ``"python"`` (default) is the reference implementation;
        ``"numpy"`` runs PPS/PBS/LS-PSN/GS-PSN on the CSR/array engine
        (requires the ``repro[speed]`` extra) and emits the identical
        comparison stream.  Methods without a backend seam (PSN,
        SA-PSN, SA-PSAB) ignore the setting.

        An explicit backend must agree with a configured ``.parallel``
        stage: only ``"numpy-parallel"`` can drive worker processes, so
        any other choice raises instead of silently dropping one of the
        two settings (in either call order).
        """
        from repro.registry import backends

        canonical = backends.canonical(name)
        if self._config.parallel is not None and canonical != "numpy-parallel":
            raise ConfigError(
                f"backend {canonical!r} conflicts with the configured "
                ".parallel(...) stage; choose backend('numpy-parallel') or "
                "remove the parallel stage with .parallel(enabled=False)"
            )
        self._set(backend=canonical)
        self._backend_explicit = True
        return self

    def parallel(
        self,
        workers: int | None = None,
        shards: int | None = None,
        *,
        enabled: bool = True,
    ) -> "ERPipeline":
        """Shard backend-aware methods across worker processes.

        Sets the backend to ``"numpy-parallel"`` and records the
        fan-out knobs: ``workers`` processes (``None`` - one per
        visible core at build time; ``0`` - run the shard code inline),
        ``shards`` ranges per fan-out (``None`` - match the worker
        count).
        The emission stream is bit-identical to ``backend("numpy")`` -
        only the wall clock changes.  ``enabled=False`` removes the
        stage and falls back to the sequential numpy backend.

        The implicit backend upgrade only happens when no backend was
        chosen explicitly; after ``.backend("python")`` (or any other
        non-parallel choice) this raises instead of silently discarding
        the user's backend - same contract as calling :meth:`backend`
        after :meth:`parallel`.

        >>> from repro import ERPipeline
        >>> spec = ERPipeline().method("PPS").parallel(workers=2).to_dict()
        >>> spec["backend"], spec["parallel"]["workers"]
        ('numpy-parallel', 2)
        """
        if not enabled:
            backend = self._config.backend
            return self._set(
                parallel=None,
                backend="numpy" if backend == "numpy-parallel" else backend,
            )
        if self._backend_explicit and self._config.backend != "numpy-parallel":
            raise ConfigError(
                f"explicit backend {self._config.backend!r} conflicts with "
                ".parallel(...); choose backend('numpy-parallel'), drop the "
                "backend call, or disable the stage with "
                ".parallel(enabled=False)"
            )
        return self._set(
            parallel=ParallelConfig(workers=workers, shards=shards),
            backend="numpy-parallel",
        )

    def storage(
        self,
        mode: str = "memmap",
        *,
        dir: str | None = None,
        enabled: bool = True,
    ) -> "ERPipeline":
        """Serve the session's CSR structures from disk-backed arrays.

        ``mode="memmap"`` makes the numpy backends build and serve every
        index structure from ``np.memmap`` scratch files in a private
        temp directory (``dir`` overrides its parent), with the builds
        running in bounded-RAM chunks - the identical comparison stream,
        sized by disk instead of RAM.  ``mode="ram"`` (or
        ``enabled=False``) removes the stage.  The python reference
        backend ignores it.

        >>> from repro import ERPipeline
        >>> spec = ERPipeline().backend("numpy").storage("memmap").to_dict()
        >>> spec["storage"]
        {'mode': 'memmap', 'dir': None}
        """
        if not enabled or mode == "ram":
            from repro.engine import check_storage_mode

            check_storage_mode(mode)
            return self._set(storage=None)
        return self._set(storage=StorageConfig(mode=mode, dir=dir))

    def incremental(
        self,
        enabled: bool = True,
        *,
        purge: float | None = None,
    ) -> "ERPipeline":
        """Make ``fit`` return a live, ingestible session.

        With this stage, :meth:`fit` returns an
        :class:`~repro.incremental.resolver.IncrementalResolver`:
        profiles added after ``fit`` (``add_profiles``/``resolve_one``)
        are resolved against everything already indexed, emitting only
        the comparisons they introduce, ranked by the ``.meta(...)``
        weighting scheme.  Works on both backends; see
        :mod:`repro.incremental` for the batch-parity contract.

        ``purge`` is the query-time Block Purging ratio - ``None``
        (default) inherits the ``.blocking(...)`` stage's ``purge``
        ratio.  ``enabled=False`` removes the stage.

        Incremental candidate generation is the live Token Blocking
        index and emission is the ONLINE (globally ranked) model: a
        ``.blocking(...)`` stage configuring a different scheme, a
        ``.method(...)`` stage other than ONLINE and Meta-blocking
        pruning are refused at config time, here or at the later call
        that adds them (:func:`~repro.pipeline.config.check_live_stage`).
        Block Filtering (``filter_ratio``) is batch-global and does not
        apply to incremental sessions.
        """
        return self._set(
            incremental=IncrementalConfig(purge_ratio=purge) if enabled else None
        )

    def serve(
        self,
        *,
        request_comparisons: int | None = None,
        request_seconds: float | None = None,
        session_comparisons: int | None = None,
        session_seconds: float | None = None,
        max_pending: int = 32,
        snapshot_dir: str | None = None,
        enabled: bool = True,
    ) -> "ERPipeline":
        """Describe a served session (the :mod:`repro.service` layer).

        Adds a ``service`` stage carrying the admission-control knobs a
        :class:`~repro.service.SessionManager` built from this spec will
        enforce: ``request_*`` limits cap one probe (result truncation /
        maximum queue wait), ``session_*`` limits cap the whole session
        (cumulative comparisons served / session age), ``max_pending``
        bounds the per-session queue depth, and ``snapshot_dir`` is
        where snapshots are written.  Over-budget probes are rejected
        with :class:`~repro.errors.BudgetExceeded`, never queued.

        A served session is an incremental session: the stage implies
        ``.incremental()`` (added automatically when absent), so the
        batch-only stages it refuses - a non-token blocking scheme, a
        non-ONLINE method, Meta-blocking pruning - are refused at
        config time, not at the first probe.  ``enabled=False`` removes
        the stage (the implied incremental stage stays).

        >>> from repro import ERPipeline
        >>> spec = ERPipeline().serve(request_comparisons=10).to_dict()
        >>> spec["service"]["request_budget"]["comparisons"]
        10
        >>> spec["incremental"] is not None
        True
        """
        if not enabled:
            return self._set(service=None)
        return self._set(
            service=ServiceConfig(
                session_budget=BudgetConfig(
                    comparisons=session_comparisons, seconds=session_seconds
                ),
                request_budget=BudgetConfig(
                    comparisons=request_comparisons, seconds=request_seconds
                ),
                max_pending=max_pending,
                snapshot_dir=snapshot_dir,
            )
        )

    # -- spec round-trip ------------------------------------------------------

    @property
    def config(self) -> PipelineConfig:
        """The underlying typed spec."""
        return self._config

    def to_dict(self) -> dict[str, Any]:
        """JSON-able spec reproducing this pipeline via ``from_dict``."""
        return self._config.to_dict()

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ERPipeline":
        """Rebuild a pipeline from a ``to_dict`` spec.

        A spec whose backend differs from the default counts as an
        explicit choice, so a later ``.parallel(...)`` on the rebuilt
        pipeline conflicts instead of silently overriding it (a spec
        cannot distinguish an explicitly chosen default ``"python"``
        from the default itself).
        """
        pipeline = cls(PipelineConfig.from_dict(data))
        pipeline._backend_explicit = pipeline.config.backend != "python"
        return pipeline

    def clone(self) -> "ERPipeline":
        """An independent copy (for sweeps over one base spec)."""
        fork = ERPipeline(self._config.copy())
        fork._backend_explicit = self._backend_explicit
        return fork

    # -- binding to data ------------------------------------------------------

    def fit(
        self,
        data: "ProfileStore | Any",
        ground_truth: GroundTruth | None = None,
    ) -> Resolver:
        """Bind the spec to data and return a live :class:`Resolver`.

        ``data`` may be a :class:`ProfileStore`, a
        :class:`~repro.datasets.Dataset` (its ground truth, name and PSN
        key are picked up automatically), the *name* of a bundled
        dataset, or an iterable of attribute mappings (parsed JSON
        records).
        """
        store, truth, name, psn_key = _coerce_data(data, ground_truth)
        session: type[Resolver] = Resolver
        if self._config.incremental is not None:
            from repro.incremental.resolver import IncrementalResolver

            session = IncrementalResolver
        return session(
            self._config.copy(),
            store,
            ground_truth=truth,
            dataset_name=name,
            psn_key=psn_key,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        spec = self._config
        matcher = spec.matcher.name if spec.matcher else None
        return (
            f"ERPipeline(blocking={spec.blocking.scheme!r}, "
            f"meta={spec.meta.weighting!r}, method={spec.method.name!r}, "
            f"matcher={matcher!r})"
        )


def _coerce_data(
    data: Any, ground_truth: GroundTruth | None
) -> tuple[
    "ProfileStore | ChunkedProfileStore",
    GroundTruth | None,
    str,
    Callable[..., Any] | None,
]:
    """Normalize ``fit``'s accepted inputs to (store, truth, name, psn_key)."""
    from repro.datasets.base import ChunkedProfileStore, Dataset
    from repro.datasets.registry import load_dataset

    if isinstance(data, str):
        data = load_dataset(data)
    if isinstance(data, Dataset):
        truth = ground_truth if ground_truth is not None else data.ground_truth
        return data.store, truth, data.name, data.psn_key
    if isinstance(data, ProfileStore):
        return data, ground_truth, "", None
    if isinstance(data, ChunkedProfileStore):
        # A streamed store passes straight through: it speaks the
        # ProfileStore protocol, just chunk-cached instead of resident.
        return data, ground_truth, "", None
    if isinstance(data, Mapping):
        raise TypeError(
            "fit got a single record (mapping); pass a list of records - "
            "entity resolution needs at least two profiles"
        )
    if isinstance(data, Iterable):
        store = ProfileStore.from_attribute_maps(list(data))
        return store, ground_truth, "", None
    raise TypeError(
        "fit expects a ProfileStore, Dataset, dataset name or iterable of "
        f"attribute mappings, got {type(data).__name__}"
    )
