"""Batch blocking-quality and decision-quality metrics.

Standard vocabulary from the blocking literature [19]:

* **PC** (pairs completeness) - recall of the candidate pair set:
  fraction of true matches that co-occur in at least one block;
* **PQ** (pairs quality) - precision of the candidate pair set:
  fraction of distinct candidate pairs that are true matches;
* **RR** (reduction ratio) - fraction of the brute-force comparison
  space the blocking avoids.

PC/PQ grade the *candidate generation*; with the matching cascade the
pipeline also takes decisions, graded by the classic precision / recall
/ F1 over predicted match pairs (:class:`DecisionQuality`).
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping

from dataclasses import dataclass, field

from repro.blocking.base import BlockCollection
from repro.core.ground_truth import GroundTruth


@dataclass(frozen=True)
class BlockingQuality:
    """PC / PQ / RR of one block collection against a ground truth."""

    pairs_completeness: float
    pairs_quality: float
    reduction_ratio: float
    candidate_pairs: int
    aggregate_cardinality: int

    def __str__(self) -> str:
        return (
            f"PC={self.pairs_completeness:.3f} PQ={self.pairs_quality:.3f} "
            f"RR={self.reduction_ratio:.3f} "
            f"(|pairs|={self.candidate_pairs}, ||B||={self.aggregate_cardinality})"
        )


@dataclass(frozen=True)
class DecisionQuality:
    """Precision / recall / F1 of a set of match decisions.

    ``decided`` is how many comparisons received a decision (matches and
    non-matches); ``by_tier`` maps cascade tier names to how many of
    those each tier decided (empty without a cascade).
    """

    precision: float
    recall: float
    f1: float
    predicted_matches: int
    true_positives: int
    total_matches: int
    decided: int
    by_tier: dict[str, int] = field(default_factory=dict)

    def __str__(self) -> str:
        return (
            f"P={self.precision:.3f} R={self.recall:.3f} F1={self.f1:.3f} "
            f"(TP={self.true_positives}, predicted={self.predicted_matches}, "
            f"truth={self.total_matches})"
        )


def decision_quality(
    predicted: Iterable[tuple[int, int]],
    ground_truth: GroundTruth,
    decided: int | None = None,
    by_tier: Mapping[str, int] | None = None,
) -> DecisionQuality:
    """Grade predicted match pairs against a ground truth.

    ``predicted`` holds canonical ``(i, j)`` pairs (``i < j``).  With no
    predictions, precision is 0.0 by convention.
    """
    pairs = set(predicted)
    true_positives = sum(1 for pair in pairs if ground_truth.is_match(*pair))
    total = len(ground_truth)
    precision = true_positives / len(pairs) if pairs else 0.0
    recall = true_positives / total if total else 0.0
    f1 = (
        2.0 * precision * recall / (precision + recall)
        if precision + recall > 0
        else 0.0
    )
    return DecisionQuality(
        precision=precision,
        recall=recall,
        f1=f1,
        predicted_matches=len(pairs),
        true_positives=true_positives,
        total_matches=total,
        decided=len(pairs) if decided is None else decided,
        by_tier=dict(by_tier or {}),
    )


def evaluate_blocking(
    collection: BlockCollection, ground_truth: GroundTruth
) -> BlockingQuality:
    """Compute PC, PQ and RR for a block collection."""
    pairs = collection.distinct_pairs()
    matches = ground_truth.pairs
    covered = len(pairs & matches)
    total_matches = len(matches)
    brute_force = collection.store.total_candidate_comparisons()
    aggregate = collection.aggregate_cardinality()
    return BlockingQuality(
        pairs_completeness=covered / total_matches if total_matches else 0.0,
        pairs_quality=covered / len(pairs) if pairs else 0.0,
        reduction_ratio=1.0 - (aggregate / brute_force) if brute_force else 0.0,
        candidate_pairs=len(pairs),
        aggregate_cardinality=aggregate,
    )
