"""Typed per-stage configuration for :class:`~repro.pipeline.ERPipeline`.

Each stage of the pipeline (blocking, meta-blocking weighting, progressive
method, matching, budgets) is described by a small dataclass that

* validates its fields against the shared component registries on
  construction (unknown names fail fast with the available options), and
* round-trips through plain dicts (``to_dict`` / ``from_dict``), so a
  whole experiment is a JSON-able spec that reproduces the run.

Every decision has one home here.  A stage's *fields* are its dataclass
fields and nothing else: :class:`Stage` derives the dict codec and the
copy from :func:`dataclasses.fields`, so adding a field to a stage is a
one-line change (give it a default, and a line in ``__post_init__`` if
it has a rule).  A stage's *own* rules live in its ``__post_init__``;
rules that span stages - who owns the match decision, what a parallel
stage needs, what a live session refuses - live in
:meth:`PipelineConfig.__post_init__` only, and the builder re-runs them
on every stage call.

Component ``params`` are passed verbatim to the component constructor;
keeping them JSON-able keeps the spec serializable (callables such as a
PSN ``key_function`` are injected at ``fit`` time instead, from the
dataset's metadata).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any, Mapping, TypeVar, get_args, get_type_hints

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

_StageT = TypeVar("_StageT", bound="Stage")


def _rebuilt(value: Any, plain: bool) -> Any:
    """``value`` with every container under it rebuilt and every leaf
    shared: ``plain`` flattens stages to dicts and tuples to lists (the
    JSON form), otherwise the types are kept (an independent copy)."""
    if isinstance(value, Stage):
        return value.to_dict() if plain else value.copy()
    if isinstance(value, dict):
        return {key: _rebuilt(item, plain) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        kind = list if plain else type(value)
        return kind(_rebuilt(item, plain) for item in value)
    return value


def _stage_type(hint: Any) -> "type[Stage] | None":
    """The stage class a field annotated ``hint`` (``X`` or ``X | None``)
    holds, if it holds one."""
    for option in (hint, *get_args(hint)):
        if isinstance(option, type) and issubclass(option, Stage):
            return option
    return None


@dataclass
class Stage:
    """Base of every stage dataclass: its fields, read once.

    The dict codec and the copy are derived from
    :func:`dataclasses.fields`, so no stage (and nobody else) re-types a
    stage's field list.
    """

    @classmethod
    def from_dict(cls: type[_StageT], data: Mapping[str, Any]) -> _StageT:
        """Rebuild a stage from its ``to_dict`` form.

        Absent keys take the field defaults; unknown keys are refused,
        naming the stage that owns them; a field typed as a stage is
        decoded by that stage's ``from_dict``.
        """
        label = cls.__name__.removesuffix("Config").lower()
        known = sorted(f.name for f in fields(cls))
        unknown = sorted(set(data) - set(known))
        if unknown:
            raise ConfigError(
                f"unknown {label} config keys {unknown}; allowed: {known}"
            )
        hints = get_type_hints(cls)
        payload = dict(data)
        for key, value in data.items():
            nested = _stage_type(hints[key])
            if nested is None:
                continue
            if value is not None:
                payload[key] = nested.from_dict(value)
            elif type(None) not in get_args(hints[key]):
                raise ConfigError(
                    f"{label} config key {key!r} is a stage and cannot be null"
                )
        return cls(**payload)

    def to_dict(self) -> dict[str, Any]:
        """A plain nested dict reproducing this stage via ``from_dict``
        (tuples as lists, so it survives a JSON round trip)."""
        return {f.name: _rebuilt(getattr(self, f.name), True) for f in fields(self)}

    def copy(self: _StageT) -> _StageT:
        """An independent copy that later edits cannot reach.

        Stages and containers (``params`` dicts, tier tuples) are
        copied; leaf values are shared - deliberately, so a heavy
        runtime object passed as a param (a pre-built ``blocks``
        collection, a tokenizer) is reused rather than deep-copied.
        """
        return type(self)(
            **{f.name: _rebuilt(getattr(self, f.name), False) for f in fields(self)}
        )


def _check_ratio(name: str, value: float | None) -> None:
    if value is not None and not 0.0 < value <= 1.0:
        raise ConfigError(f"{name} must be in (0, 1] or None, got {value!r}")


@dataclass
class BlockingConfig(Stage):
    """Stage 1: block building plus the paper's purge/filter steps."""

    scheme: str = "token"
    purge_ratio: float | None = 0.1
    filter_ratio: float | None = 0.8
    params: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.scheme = blocking_schemes.canonical(self.scheme)
        _check_ratio("purge_ratio", self.purge_ratio)
        _check_ratio("filter_ratio", self.filter_ratio)


@dataclass
class MetaBlockingConfig(Stage):
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


@dataclass
class MethodConfig(Stage):
    """Stage 3: the progressive emission method and its parameters."""

    name: str = "PPS"
    params: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.name = progressive_methods.canonical(self.name)


@dataclass
class MatcherConfig(Stage):
    """Stage 4 (optional): the match function applied to emitted pairs."""

    name: str = "jaccard"
    params: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.name = matchers.canonical(self.name)


@dataclass
class MatchConfig(Stage):
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
        from repro.matching.cascade import check_cascade_spec

        # The rules are the cascade's own (one statement, shared with
        # MatcherCascade); the spec keeps the normalized form, so a band
        # that went through JSON as a list is a tuple again.
        self.tiers, self.thresholds, self.expensive, self.params = (
            check_cascade_spec(
                self.tiers,
                self.thresholds,
                self.expensive,
                self.expensive_budget,
                self.params,
            )
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
        if ground_truth is not None and "oracle" in self.tiers:
            params.setdefault("oracle", {}).setdefault(
                "ground_truth", ground_truth
            )
        return MatcherCascade(
            self.tiers,
            thresholds=self.thresholds,
            expensive=self.expensive,
            expensive_budget=self.expensive_budget,
            exhausted=exhausted,
            params=params,
        )


@dataclass
class BudgetConfig(Stage):
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


@dataclass
class IncrementalConfig(Stage):
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


@dataclass
class ParallelConfig(Stage):
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
    ``shards=None`` matches the resolved worker count.
    """

    workers: int | None = None
    shards: int | None = None

    def __post_init__(self) -> None:
        from repro.parallel.backend import check_pool_knobs

        check_pool_knobs(self.workers, self.shards)


@dataclass
class StorageConfig(Stage):
    """Optional stage: serve the CSR index structures from disk.

    ``mode="memmap"`` makes the numpy backends allocate the
    equality-based session structures (postings, the profile index, the
    Blocking Graph) as ``np.memmap`` scratch arrays in a private temp
    directory instead of RAM, with the builds themselves running in
    bounded-RAM chunks - the O(L) Neighbor List arrays of LS-PSN and
    GS-PSN stay resident -
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


@dataclass
class ServiceConfig(Stage):
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


def check_live_stage(config: "PipelineConfig") -> None:
    """What a live (incremental, hence also served) session refuses.

    Candidate generation in a live session is the delta-maintained
    Token Blocking index and emission is the ONLINE (globally ranked)
    model, so a stage configuring anything else would be silently
    discarded - it is refused instead, when the spec is written.  The
    default method spec (``"PPS"`` with no params, i.e. no
    ``.method()`` call) counts as unconfigured.  Graph pruning is
    batch-global (thresholds over the whole edge population) and has no
    per-arrival counterpart.
    """
    blocking, method = config.blocking, config.method
    if normalize(blocking.scheme) != "TOKEN" or blocking.params:
        raise ConfigError(
            "incremental and served sessions use the live Token Blocking "
            f"index; the configured blocking scheme {blocking.scheme!r} "
            f"(params {blocking.params!r}) has no incremental counterpart "
            "- drop the .blocking(...) stage or resolve in batch mode"
        )
    if normalize(method.name) not in ("PPS", "ONLINE") or method.params:
        raise ConfigError(
            "incremental and served sessions emit in the ONLINE (globally "
            f"ranked) model; the configured method {method.name!r} (params "
            f"{method.params!r}) only applies to batch sessions - drop the "
            ".method(...) stage or resolve in batch mode"
        )
    if config.meta.pruning is not None:
        raise ConfigError(
            "incremental and served sessions do not support Meta-blocking "
            f"pruning; the configured {config.meta.pruning!r} stage only "
            "applies to batch sessions - drop .meta(pruning=...) or resolve "
            "in batch mode"
        )


@dataclass
class PipelineConfig(Stage):
    """The full pipeline spec: one dataclass per stage, dict round-trip.

    ``backend`` selects the execution engine for methods that support
    the seam (PPS/PBS/LS-PSN/GS-PSN): ``"python"`` is the reference
    implementation, ``"numpy"`` the CSR/array engine (``repro[speed]``
    extra), ``"numpy-parallel"`` the CSR engine sharded across worker
    processes (configured by the ``parallel`` stage).  Validation only
    canonicalizes the name; availability is checked when the method is
    built, so specs stay portable to machines without numpy.

    Every rule that spans stages is stated here and nowhere else; the
    builder re-runs them on each stage call (see
    :class:`~repro.pipeline.ERPipeline`).
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
                "(.no_matcher() / .no_match() drops the other; a single "
                "matcher is the one-tier cascade .match(cascade='<name>'))"
            )
        if self.parallel is not None and self.backend != "numpy-parallel":
            raise ConfigError(
                f"a parallel stage requires backend 'numpy-parallel', got "
                f"{self.backend!r}; drop the parallel config or switch the "
                "backend"
            )
        if self.service is not None and self.incremental is None:
            # A served session is an incremental session: the stage is
            # implied rather than required twice in every spec.
            self.incremental = IncrementalConfig()
        if self.incremental is not None:
            check_live_stage(self)
