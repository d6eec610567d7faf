"""The unified pipeline API: one composable entrypoint for the stack.

* :class:`ERPipeline` - fluent, registry-backed spec of a run
  (blocking -> meta-blocking -> progressive method -> match cascade -> budgets);
* :class:`Resolver` - a live session returned by ``pipeline.fit(data)``:
  streaming emission, batch pulls, budget control, evaluation;
* :func:`resolve` - the one-call quickstart facade.
"""

from repro.pipeline.builder import ERPipeline
from repro.pipeline.config import (
    BlockingConfig,
    BudgetConfig,
    IncrementalConfig,
    MatchConfig,
    MetaBlockingConfig,
    MethodConfig,
    ParallelConfig,
    PipelineConfig,
    ServiceConfig,
    StorageConfig,
)
from repro.pipeline.facade import ResolutionResult, resolve
from repro.pipeline.resolver import (
    DecisionRecord,
    Resolver,
    ResolverProgress,
)

__all__ = [
    "ERPipeline",
    "Resolver",
    "ResolverProgress",
    "ResolutionResult",
    "resolve",
    "DecisionRecord",
    "PipelineConfig",
    "BlockingConfig",
    "MetaBlockingConfig",
    "MethodConfig",
    "MatchConfig",
    "BudgetConfig",
    "IncrementalConfig",
    "ParallelConfig",
    "ServiceConfig",
    "StorageConfig",
]
