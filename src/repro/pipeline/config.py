"""Typed per-stage configuration for :class:`~repro.pipeline.ERPipeline`.

Each stage of the pipeline (blocking, meta-blocking weighting, progressive
method, matching, budgets) is described by a small dataclass that

* validates its fields against the shared component registries on
  construction (unknown names fail fast with the available options), and
* round-trips through plain dicts (``to_dict`` / ``from_dict``), so a
  whole experiment is a JSON-able spec that reproduces the run.

Component ``params`` are passed verbatim to the component constructor;
keeping them JSON-able keeps the spec serializable (callables such as a
PSN ``key_function`` are injected at ``fit`` time instead, from the
dataset's metadata).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any, Mapping

from repro.errors import ConfigError
from repro.registry import (
    backends,
    blocking_schemes,
    matchers,
    normalize,
    progressive_methods,
    pruning_algorithms,
    weighting_schemes,
)


def _check_ratio(name: str, value: float | None) -> None:
    if value is not None and not 0.0 < value <= 1.0:
        raise ConfigError(f"{name} must be in (0, 1] or None, got {value!r}")


def _reject_unknown_keys(
    stage: str, data: Mapping[str, Any], allowed: tuple[str, ...]
) -> None:
    unknown = sorted(set(data) - set(allowed))
    if unknown:
        raise ConfigError(
            f"unknown {stage} config keys {unknown}; allowed: {sorted(allowed)}"
        )


@dataclass
class BlockingConfig:
    """Stage 1: block building plus the paper's purge/filter steps."""

    scheme: str = "token"
    purge_ratio: float | None = 0.1
    filter_ratio: float | None = 0.8
    params: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.scheme = blocking_schemes.canonical(self.scheme)
        _check_ratio("purge_ratio", self.purge_ratio)
        _check_ratio("filter_ratio", self.filter_ratio)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "BlockingConfig":
        _reject_unknown_keys(
            "blocking", data, ("scheme", "purge_ratio", "filter_ratio", "params")
        )
        return cls(**dict(data))


@dataclass
class MetaBlockingConfig:
    """Stage 2: Blocking Graph edge weighting plus optional graph pruning.

    ``weighting`` is used by the equality-based methods
    (similarity-based methods configure their neighbor weighting through
    :class:`MethodConfig` params instead).  ``pruning`` names a
    Meta-blocking pruning algorithm (WEP/CEP/WNP/CNP/RWNP/RCNP); when
    set, emission is restricted to the retained edges of the pruned
    Blocking Graph.  ``params`` go to the pruning algorithm (currently
    ``k``, the cardinality budget of CEP/CNP/RCNP).
    """

    weighting: str = "ARCS"
    pruning: str | None = None
    params: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.weighting = weighting_schemes.canonical(self.weighting)
        if self.pruning is None:
            if self.params:
                raise ConfigError(
                    f"meta-blocking params {sorted(self.params)} given "
                    "without a pruning algorithm"
                )
            return
        entry = pruning_algorithms.entry(self.pruning)
        self.pruning = entry.name
        unknown = sorted(set(self.params) - {"k"})
        if unknown:
            raise ConfigError(
                f"unknown pruning params {unknown}; allowed: ['k']"
            )
        if "k" in self.params:
            k = self.params["k"]
            if not entry.metadata.get("takes_k", False):
                raise ConfigError(
                    f"pruning algorithm {entry.name!r} takes no cardinality "
                    "budget; k applies to CEP, CNP and RCNP only"
                )
            if k is not None and (not isinstance(k, int) or k < 1):
                raise ConfigError(f"pruning budget k must be an int >= 1, got {k!r}")

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "MetaBlockingConfig":
        _reject_unknown_keys(
            "meta-blocking", data, ("weighting", "pruning", "params")
        )
        return cls(**dict(data))


@dataclass
class MethodConfig:
    """Stage 3: the progressive emission method and its parameters."""

    name: str = "PPS"
    params: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.name = progressive_methods.canonical(self.name)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "MethodConfig":
        _reject_unknown_keys("method", data, ("name", "params"))
        return cls(**dict(data))


@dataclass
class MatcherConfig:
    """Stage 4 (optional): the match function applied to emitted pairs."""

    name: str = "jaccard"
    params: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.name = matchers.canonical(self.name)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "MatcherConfig":
        _reject_unknown_keys("matcher", data, ("name", "params"))
        return cls(**dict(data))


@dataclass
class MatchConfig:
    """Stage 5 (optional): the decision cascade applied to emitted pairs.

    Describes a :class:`~repro.matching.cascade.MatcherCascade`: the
    ordered ``tiers`` (registry names, or live
    :class:`~repro.matching.MatchFunction` instances for custom tiers),
    per-tier ``thresholds`` (a float collapses the band, a
    ``(reject, accept)`` pair sets the undecided margin), the optional
    ``expensive`` hook (a registry name, a match function, or any
    ``(a, b) -> float`` callable) with its call ``expensive_budget``,
    and per-tier constructor ``params``.

    Instance tiers and callable hooks make the spec non-JSON-able (the
    same trade-off as a PSN ``key_function``); name-based specs
    round-trip through ``to_dict``/``from_dict`` unchanged.
    """

    tiers: tuple[Any, ...] = ("exact", "jaccard", "edit-distance")
    thresholds: dict[str, Any] = field(default_factory=dict)
    expensive: Any = None
    expensive_budget: int | None = None
    params: dict[str, dict[str, Any]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        from repro.matching.cascade import _coerce_threshold
        from repro.matching.match_functions import MatchFunction

        resolved: list[Any] = []
        names: list[str] = []
        for tier in tuple(self.tiers):
            if isinstance(tier, str):
                canonical = matchers.canonical(tier)
                resolved.append(canonical)
                names.append(canonical)
            elif isinstance(tier, MatchFunction):
                resolved.append(tier)
                names.append(tier.name)
            else:
                raise ConfigError(
                    "cascade tiers must be matcher registry names or "
                    f"MatchFunction instances, got {tier!r}"
                )
        self.tiers = tuple(resolved)
        if not self.tiers and self.expensive is None:
            raise ConfigError("a match stage needs at least one tier")
        normalized = [normalize(name) for name in names]
        if len(set(normalized)) != len(normalized):
            raise ConfigError(
                f"duplicate cascade tiers in {names}; each tier may "
                "appear once"
            )
        if self.expensive is not None:
            if isinstance(self.expensive, str):
                self.expensive = matchers.canonical(self.expensive)
            elif not callable(self.expensive):
                raise ConfigError(
                    "expensive must be a matcher registry name, a "
                    "MatchFunction or a (a, b) -> float callable, got "
                    f"{self.expensive!r}"
                )
        if self.expensive_budget is not None:
            if self.expensive is None:
                raise ConfigError(
                    "expensive_budget given without an expensive hook"
                )
            if (
                not isinstance(self.expensive_budget, int)
                or isinstance(self.expensive_budget, bool)
                or self.expensive_budget < 0
            ):
                raise ConfigError(
                    "expensive_budget must be an int >= 0, got "
                    f"{self.expensive_budget!r}"
                )
        known = set(normalized)
        if self.expensive is not None:
            known.add(normalize("expensive"))
        for key, value in dict(self.thresholds).items():
            if normalize(key) not in known:
                raise ConfigError(
                    f"threshold given for unknown tier {key!r}; tiers: "
                    f"{names + (['expensive'] if self.expensive is not None else [])}"
                )
            _coerce_threshold(key, value)
        for key, value in dict(self.params).items():
            if normalize(key) not in set(normalized):
                raise ConfigError(
                    f"params given for unknown tier {key!r}; tiers: {names}"
                )
            if not isinstance(value, Mapping):
                raise ConfigError(
                    f"params for tier {key!r} must be a mapping of "
                    f"constructor kwargs, got {value!r}"
                )

    def build(
        self, ground_truth: Any = None, exhausted: str = "fallback"
    ) -> Any:
        """Construct the configured cascade (fit-time entry point).

        ``ground_truth`` is injected into an ``oracle`` tier's params
        when the spec names one without supplying its ground truth -
        the same convenience :meth:`ERPipeline.fit` applies to a plain
        oracle matcher stage.
        """
        from repro.matching.cascade import MatcherCascade

        params = {name: dict(value) for name, value in self.params.items()}
        if ground_truth is not None:
            for tier in self.tiers:
                if isinstance(tier, str) and normalize(tier) == normalize(
                    "oracle"
                ):
                    params.setdefault(tier, {}).setdefault(
                        "ground_truth", ground_truth
                    )
        return MatcherCascade(
            list(self.tiers),
            thresholds=dict(self.thresholds),
            expensive=self.expensive,
            expensive_budget=self.expensive_budget,
            exhausted=exhausted,
            params=params,
        )

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "MatchConfig":
        _reject_unknown_keys(
            "match",
            data,
            ("tiers", "thresholds", "expensive", "expensive_budget", "params"),
        )
        payload = dict(data)
        if "tiers" in payload:
            payload["tiers"] = tuple(payload["tiers"])
        return cls(**payload)


@dataclass
class BudgetConfig:
    """Emission budgets; any combination, first one hit stops the stream.

    ``comparisons`` caps total emissions exactly; ``seconds`` is a
    wall-clock deadline measured from the first emission; ``target_recall``
    stops once that recall is reached (requires a ground-truth/oracle hook
    at ``fit`` time).

    Zero budgets are valid and mean *emit nothing*: ``comparisons=0``
    and ``seconds=0`` both stop the stream before the first emission
    (negative values are rejected).
    """

    comparisons: int | None = None
    seconds: float | None = None
    target_recall: float | None = None

    def __post_init__(self) -> None:
        if self.comparisons is not None and self.comparisons < 0:
            raise ConfigError(
                "comparisons budget must be >= 0 (0 emits nothing), "
                f"got {self.comparisons!r}"
            )
        if self.seconds is not None and self.seconds < 0:
            raise ConfigError(
                "seconds budget must be >= 0 (0 emits nothing), "
                f"got {self.seconds!r}"
            )
        if self.target_recall is not None and not 0.0 < self.target_recall <= 1.0:
            raise ConfigError(
                f"target_recall must be in (0, 1], got {self.target_recall!r}"
            )

    def unlimited(self) -> bool:
        """True when no budget is set (stream runs to exhaustion)."""
        return (
            self.comparisons is None
            and self.seconds is None
            and self.target_recall is None
        )

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "BudgetConfig":
        _reject_unknown_keys(
            "budget", data, ("comparisons", "seconds", "target_recall")
        )
        return cls(**dict(data))


@dataclass
class IncrementalConfig:
    """Optional stage: resolve online, ingesting profiles after ``fit``.

    When present, ``fit`` returns an
    :class:`~repro.incremental.resolver.IncrementalResolver` whose
    :meth:`add_profiles` / :meth:`resolve_one` emit the comparisons each
    arrival introduces (see :mod:`repro.incremental`).

    ``purge_ratio`` is the query-time Block Purging bound evaluated
    against the current corpus size; ``None`` inherits the blocking
    stage's ``purge_ratio`` (so disable purging via
    ``.blocking("token", purge=None)``).  Block Filtering is
    batch-global and does not apply to incremental sessions.
    """

    purge_ratio: float | None = None

    def __post_init__(self) -> None:
        _check_ratio("purge_ratio", self.purge_ratio)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "IncrementalConfig":
        _reject_unknown_keys("incremental", data, ("purge_ratio",))
        return cls(**dict(data))


@dataclass
class ParallelConfig:
    """Optional stage: shard the array engine across worker processes.

    Applies when ``backend`` is ``"numpy-parallel"`` (the
    ``.parallel(...)`` builder stage sets both together): methods then
    receive a configured
    :class:`~repro.parallel.backend.ParallelBackend` instead of a bare
    registry name.

    ``workers=None`` resolves to one process per visible core at build
    time (kept as ``None`` in the spec, so a config written on a
    16-core box does the right thing on a 4-core one);
    ``workers=0`` runs the shard code inline, single-process.
    ``shards=None`` matches the resolved worker count.  ``ship``
    selects the payload transport (``"pickle"`` or ``"memmap"``; see
    :mod:`repro.parallel.pool`).
    """

    workers: int | None = None
    shards: int | None = None
    ship: str = "pickle"

    def __post_init__(self) -> None:
        if self.workers is not None and self.workers < 0:
            raise ConfigError(f"workers must be >= 0, got {self.workers!r}")
        if self.shards is not None and self.shards < 1:
            raise ConfigError(f"shards must be >= 1, got {self.shards!r}")
        if self.ship not in ("pickle", "memmap"):
            raise ConfigError(
                f"ship must be 'pickle' or 'memmap', got {self.ship!r}"
            )

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ParallelConfig":
        _reject_unknown_keys("parallel", data, ("workers", "shards", "ship"))
        return cls(**dict(data))


@dataclass
class StorageConfig:
    """Optional stage: serve the CSR index structures from disk.

    ``mode="memmap"`` makes the numpy backends allocate every session
    structure (postings, profile/position indexes, the Blocking Graph)
    as ``np.memmap`` scratch arrays in a private temp directory instead
    of RAM, with the builds themselves running in bounded-RAM chunks -
    the same bit-identical streams, sized by disk instead of memory
    (see docs/scale.md).  ``dir`` overrides where the scratch directory
    is created (default: the system temp dir).  The python reference
    backend has no array structures and ignores the stage.

    The scratch directory lives as long as the resolver session; close
    it deterministically with :meth:`~repro.pipeline.resolver.Resolver.close`
    (or a ``with`` block), otherwise garbage collection removes it.
    """

    mode: str = "memmap"
    dir: str | None = None

    def __post_init__(self) -> None:
        from repro.engine import check_storage_mode

        check_storage_mode(self.mode)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "StorageConfig":
        _reject_unknown_keys("storage", data, ("mode", "dir"))
        return cls(**dict(data))


@dataclass
class ServiceConfig:
    """Optional stage: serve the session behind the asyncio service layer.

    When present, the pipeline describes a *served* incremental session
    (see :mod:`repro.service`): ``fit`` still returns the
    :class:`~repro.incremental.resolver.IncrementalResolver`, and a
    :class:`~repro.service.SessionManager` created from the same spec
    applies the admission-control knobs per request:

    * ``request_budget`` caps one probe: its result list is truncated to
      ``comparisons`` entries; ``seconds`` bounds the time a request may
      wait in the session queue before being *rejected* (not queued);
    * ``session_budget`` caps the whole session: cumulative comparisons
      served across all probes, and session age in ``seconds``.  Once a
      limit is hit further probes are refused with
      :class:`~repro.errors.BudgetExceeded`;
    * ``max_pending`` bounds the per-session queue depth - request
      number ``max_pending + 1`` is rejected immediately;
    * ``snapshot_dir`` is where ``POST /sessions/<name>/snapshot``
      persists session state (default: a ``repro-snapshots`` directory
      under the system temp dir).

    ``target_recall`` budgets make no sense for admission control (the
    service has no oracle) and are refused at config time.
    """

    session_budget: BudgetConfig = field(default_factory=BudgetConfig)
    request_budget: BudgetConfig = field(default_factory=BudgetConfig)
    max_pending: int = 32
    snapshot_dir: str | None = None

    def __post_init__(self) -> None:
        for label, budget in (
            ("session", self.session_budget),
            ("request", self.request_budget),
        ):
            if budget.target_recall is not None:
                raise ConfigError(
                    f"service {label}_budget cannot use target_recall "
                    "(admission control has no oracle); use comparisons "
                    "and/or seconds limits"
                )
        if not isinstance(self.max_pending, int) or self.max_pending < 1:
            raise ConfigError(
                f"max_pending must be an int >= 1, got {self.max_pending!r}"
            )

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ServiceConfig":
        _reject_unknown_keys(
            "service",
            data,
            ("session_budget", "request_budget", "max_pending", "snapshot_dir"),
        )
        return cls(
            session_budget=BudgetConfig.from_dict(data.get("session_budget", {})),
            request_budget=BudgetConfig.from_dict(data.get("request_budget", {})),
            max_pending=data.get("max_pending", 32),
            snapshot_dir=data.get("snapshot_dir"),
        )


def check_service_stage(config: "PipelineConfig") -> None:
    """Config-time cross-checks of a ``service`` stage.

    A served session *is* an incremental session, so every fit-time
    refusal of :class:`~repro.incremental.resolver.IncrementalResolver`
    is mirrored here - the spec fails when it is written, not when the
    first probe arrives.  Shared by the :class:`PipelineConfig`
    constructor and :meth:`repro.pipeline.ERPipeline.serve`.
    """
    if config.service is None:
        return
    blocking = config.blocking
    if normalize(blocking.scheme) != "TOKEN" or blocking.params:
        raise ConfigError(
            "a service stage implies an incremental session, which uses "
            f"the live Token Blocking index; the blocking scheme "
            f"{blocking.scheme!r} (params {blocking.params!r}) has no "
            "incremental counterpart - drop the .blocking(...) stage"
        )
    if normalize(config.method.name) not in ("PPS", "ONLINE") or (
        config.method.params
    ):
        raise ConfigError(
            "served sessions emit in the ONLINE (globally ranked) model; "
            f"the configured method {config.method.name!r} (params "
            f"{config.method.params!r}) only applies to batch sessions - "
            "drop the .method(...) stage"
        )
    if config.meta.pruning is not None:
        raise ConfigError(
            "served sessions do not support Meta-blocking pruning; the "
            f"configured {config.meta.pruning!r} stage only applies to "
            "batch sessions - drop .meta(pruning=...)"
        )


@dataclass
class PipelineConfig:
    """The full pipeline spec: one dataclass per stage, dict round-trip.

    ``backend`` selects the execution engine for methods that support
    the seam (PPS/PBS/LS-PSN/GS-PSN): ``"python"`` is the reference
    implementation, ``"numpy"`` the CSR/array engine (``repro[speed]``
    extra), ``"numpy-parallel"`` the CSR engine sharded across worker
    processes (configured by the ``parallel`` stage).  Validation only
    canonicalizes the name; availability is checked when the method is
    built, so specs stay portable to machines without numpy.
    """

    blocking: BlockingConfig = field(default_factory=BlockingConfig)
    meta: MetaBlockingConfig = field(default_factory=MetaBlockingConfig)
    method: MethodConfig = field(default_factory=MethodConfig)
    matcher: MatcherConfig | None = None
    match: MatchConfig | None = None
    budget: BudgetConfig = field(default_factory=BudgetConfig)
    backend: str = "python"
    incremental: IncrementalConfig | None = None
    parallel: ParallelConfig | None = None
    storage: StorageConfig | None = None
    service: ServiceConfig | None = None

    def __post_init__(self) -> None:
        self.backend = backends.canonical(self.backend)
        if self.matcher is not None and self.match is not None:
            raise ConfigError(
                "a .matcher(...) stage and a .match(...) cascade stage "
                "both own the match decision; configure exactly one "
                "(a single matcher is the one-tier cascade "
                ".match(cascade='<name>'))"
            )
        if self.parallel is not None and self.backend != "numpy-parallel":
            raise ConfigError(
                f"a parallel stage requires backend 'numpy-parallel', got "
                f"{self.backend!r}; drop the parallel config or switch the "
                "backend"
            )
        if self.service is not None:
            # A served session is an incremental session: the stage is
            # implied rather than required twice in every spec.
            if self.incremental is None:
                self.incremental = IncrementalConfig()
            check_service_stage(self)

    def to_dict(self) -> dict[str, Any]:
        """A plain nested dict reproducing this config via ``from_dict``."""
        return {
            "blocking": asdict(self.blocking),
            "meta": asdict(self.meta),
            "method": asdict(self.method),
            "matcher": None if self.matcher is None else asdict(self.matcher),
            "match": (
                None
                if self.match is None
                else {**asdict(self.match), "tiers": list(self.match.tiers)}
            ),
            "budget": asdict(self.budget),
            "backend": self.backend,
            "incremental": (
                None if self.incremental is None else asdict(self.incremental)
            ),
            "parallel": (
                None if self.parallel is None else asdict(self.parallel)
            ),
            "storage": (
                None if self.storage is None else asdict(self.storage)
            ),
            "service": (
                None if self.service is None else asdict(self.service)
            ),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "PipelineConfig":
        _reject_unknown_keys(
            "pipeline",
            data,
            (
                "blocking",
                "meta",
                "method",
                "matcher",
                "match",
                "budget",
                "backend",
                "incremental",
                "parallel",
                "storage",
                "service",
            ),
        )
        matcher = data.get("matcher")
        match = data.get("match")
        incremental = data.get("incremental")
        parallel = data.get("parallel")
        storage = data.get("storage")
        service = data.get("service")
        return cls(
            blocking=BlockingConfig.from_dict(data.get("blocking", {})),
            meta=MetaBlockingConfig.from_dict(data.get("meta", {})),
            method=MethodConfig.from_dict(data.get("method", {})),
            matcher=None if matcher is None else MatcherConfig.from_dict(matcher),
            match=None if match is None else MatchConfig.from_dict(match),
            budget=BudgetConfig.from_dict(data.get("budget", {})),
            backend=data.get("backend", "python"),
            incremental=(
                None
                if incremental is None
                else IncrementalConfig.from_dict(incremental)
            ),
            parallel=(
                None if parallel is None else ParallelConfig.from_dict(parallel)
            ),
            storage=(
                None if storage is None else StorageConfig.from_dict(storage)
            ),
            service=(
                None if service is None else ServiceConfig.from_dict(service)
            ),
        )
