"""repro - Schema-agnostic Progressive Entity Resolution.

A complete reproduction of "Schema-agnostic Progressive Entity Resolution"
(Simonini, Papadakis, Palpanas, Bergamaschi - ICDE 2018): the six
schema-agnostic progressive methods (SA-PSN, SA-PSAB, LS-PSN, GS-PSN, PBS,
PPS), the schema-based PSN baseline, every substrate they depend on
(token blocking, purging, filtering, scheduling, suffix forests, neighbor
lists, position/profile indexes, blocking graphs) and the full evaluation
harness (recall progressiveness, AUC*, timing).

Quickstart - one call::

    from repro import resolve

    result = resolve("restaurant", method="PPS", budget=10_000)
    print(result.recall, result.curve.normalized_auc_at(1.0))

Full control - the composable pipeline::

    from repro import ERPipeline

    resolver = (
        ERPipeline()
        .blocking("token", purge=True, filter_ratio=0.8)
        .meta("ARCS")
        .method("PPS", k_max=20)
        .matcher("jaccard", threshold=0.75)
        .fit("cora")
    )
    for comparison in resolver.stream():
        ...                                   # pairs, best first
    curve = resolver.evaluate()               # the paper's protocol

Components (methods, blocking schemes, weighting schemes, matchers) are
addressed by name through a shared registry that accepts any spelling
("SA-PSN" == "sapsn"); register your own via ``repro.registry``.

Speed - the array engine (optional ``repro[speed]`` extra)::

    result = resolve("cddb", method="PPS", backend="numpy")
    # or: ERPipeline().method("PPS").backend("numpy").fit(...)

``backend="numpy"`` runs PPS, PBS, LS-PSN and GS-PSN on numpy CSR
indexes with vectorized weighting (:mod:`repro.engine`), emitting the
*identical* comparison stream measured multiples faster; the default
``backend="python"`` remains the dependency-free reference.

Online - incremental resolution (:mod:`repro.incremental`)::

    session = ERPipeline().incremental().fit(existing_records)
    session.add_profiles(new_records)      # ranked new comparisons
    session.resolve_one(record)            # ingest-and-rank one record
    session.resolve_one(record, ingest=False)   # read-only probe

Profiles ingested after ``fit`` are resolved against everything already
indexed via delta updates (no rebuilds); ingesting a dataset in chunks
provably emits the same pair set as one batch fit (docs/incremental.md).
"""

from repro.blocking import (
    Block,
    BlockCollection,
    BlockFiltering,
    BlockPurging,
    KeyFunction,
    StandardBlocking,
    SuffixArraysBlocking,
    TokenBlocking,
    block_scheduling,
    blocking_workflow,
    soundex,
    token_blocking_workflow,
)
from repro.core import (
    Comparison,
    ComparisonList,
    EntityProfile,
    ERType,
    GroundTruth,
    ProfileStore,
    Tokenizer,
)
from repro.datasets import Dataset, list_datasets, load_dataset
from repro.errors import (
    BudgetExceeded,
    ConfigError,
    ReproError,
    SessionClosed,
)
from repro.evaluation import (
    RecallCurve,
    evaluate_blocking,
    measure_initialization,
    timed_run,
)
from repro.incremental import (
    IncrementalResolver,
    MutableProfileStore,
    OnlineRanked,
)
from repro.evaluation.metrics import DecisionQuality, decision_quality
from repro.matching import (
    EditDistanceMatcher,
    ExactMatcher,
    JaccardMatcher,
    MatcherCascade,
    OracleMatcher,
    TierDecision,
    available_matchers,
    jaccard,
    levenshtein,
    make_matcher,
)
from repro.metablocking import ProfileIndex, build_blocking_graph, make_scheme
from repro.neighborlist import NeighborList, PositionIndex, RCFWeighting
from repro.pipeline import (
    BlockingConfig,
    BudgetConfig,
    DecisionRecord,
    ERPipeline,
    EvaluationReport,
    IncrementalConfig,
    MatchConfig,
    MatcherConfig,
    MetaBlockingConfig,
    MethodConfig,
    ParallelConfig,
    PipelineConfig,
    ResolutionResult,
    Resolver,
    ResolverProgress,
    ServiceConfig,
    StorageConfig,
    resolve,
)
from repro.progressive import (
    GSPSN,
    LSPSN,
    PBS,
    PPS,
    PSN,
    SAPSAB,
    SAPSN,
    ProgressiveMethod,
    available_methods,
)
from repro.registry import ComponentRegistry, get_registry

__version__ = "2.1.0"

__all__ = [
    # pipeline API
    "ERPipeline",
    "Resolver",
    "ResolverProgress",
    "ResolutionResult",
    "resolve",
    "DecisionRecord",
    "EvaluationReport",
    "PipelineConfig",
    "BlockingConfig",
    "MetaBlockingConfig",
    "MethodConfig",
    "MatcherConfig",
    "MatchConfig",
    "BudgetConfig",
    "IncrementalConfig",
    "ParallelConfig",
    "StorageConfig",
    "ServiceConfig",
    # errors
    "ReproError",
    "ConfigError",
    "BudgetExceeded",
    "SessionClosed",
    # incremental / online resolution
    "IncrementalResolver",
    "MutableProfileStore",
    "OnlineRanked",
    # registry
    "ComponentRegistry",
    "get_registry",
    # core
    "Comparison",
    "ComparisonList",
    "EntityProfile",
    "ERType",
    "GroundTruth",
    "ProfileStore",
    "Tokenizer",
    # blocking
    "Block",
    "BlockCollection",
    "BlockFiltering",
    "BlockPurging",
    "KeyFunction",
    "StandardBlocking",
    "SuffixArraysBlocking",
    "TokenBlocking",
    "block_scheduling",
    "blocking_workflow",
    "soundex",
    "token_blocking_workflow",
    # meta-blocking
    "ProfileIndex",
    "build_blocking_graph",
    "make_scheme",
    # neighbor lists
    "NeighborList",
    "PositionIndex",
    "RCFWeighting",
    # progressive methods
    "ProgressiveMethod",
    "available_methods",
    "PSN",
    "SAPSN",
    "SAPSAB",
    "LSPSN",
    "GSPSN",
    "PBS",
    "PPS",
    # matching
    "EditDistanceMatcher",
    "ExactMatcher",
    "JaccardMatcher",
    "MatcherCascade",
    "OracleMatcher",
    "TierDecision",
    "available_matchers",
    "make_matcher",
    "jaccard",
    "levenshtein",
    "DecisionQuality",
    "decision_quality",
    # datasets
    "Dataset",
    "list_datasets",
    "load_dataset",
    # evaluation
    "RecallCurve",
    "evaluate_blocking",
    "measure_initialization",
    "timed_run",
    "__version__",
]
