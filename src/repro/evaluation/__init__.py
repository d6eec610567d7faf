"""Evaluation harness: recall progressiveness, AUC*, timing, reports."""

from repro.evaluation.metrics import (
    BlockingQuality,
    DecisionQuality,
    decision_quality,
    evaluate_blocking,
)
from repro.evaluation.progressive_recall import (
    RecallCurve,
    ideal_auc,
)
from repro.evaluation.report import format_curve, format_table, sparkline
from repro.evaluation.timing import (
    TimedRun,
    cascade_cost_model,
    measure_initialization,
    timed_run,
)

__all__ = [
    "BlockingQuality",
    "DecisionQuality",
    "decision_quality",
    "evaluate_blocking",
    "RecallCurve",
    "ideal_auc",
    "format_curve",
    "format_table",
    "sparkline",
    "TimedRun",
    "cascade_cost_model",
    "measure_initialization",
    "timed_run",
]
