"""Recall progressiveness: the paper's evaluation protocol (Section 7).

The central metric is the evolution of recall against the *normalized*
number of emitted comparisons ec* = ec / |D(P)| - how many comparisons the
method has spent per existing match.  The ideal method reaches recall 1 at
ec* = 1.  Progressiveness is summarized by the area under that curve,
normalized against the ideal method's area:

    AUC*_m@x = AUC_m@x / AUC_ideal@x,   in [0, 1].

Repeated emissions count against the budget (that is precisely the cost of
the naive methods); a match counts as found at its *first* emission.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

from repro.core.ground_truth import GroundTruth
from repro.progressive.base import ProgressiveMethod


@dataclass
class RecallCurve:
    """Result of one progressive run: where along the emission stream the
    matches were found.

    ``hit_positions[k]`` is the (1-based) emission index at which the
    (k+1)-th distinct match was detected.  Together with the total number
    of true matches this determines the whole recall-vs-ec* curve.
    """

    method: str
    total_matches: int
    hit_positions: list[int] = field(default_factory=list)
    emitted: int = 0
    exhausted: bool = False
    dataset: str = ""

    # -- point queries -------------------------------------------------------

    def matches_found(self, emissions: int | None = None) -> int:
        """Distinct matches found within the first ``emissions`` emissions."""
        if emissions is None:
            return len(self.hit_positions)
        # hit_positions is sorted; count entries <= emissions.
        low, high = 0, len(self.hit_positions)
        while low < high:
            mid = (low + high) // 2
            if self.hit_positions[mid] <= emissions:
                low = mid + 1
            else:
                high = mid
        return low

    def recall_at(self, ec_star: float) -> float:
        """Recall after ec* * |D(P)| emitted comparisons."""
        if self.total_matches == 0:
            return 0.0
        budget = int(math.floor(ec_star * self.total_matches))
        return self.matches_found(budget) / self.total_matches

    def final_recall(self) -> float:
        """Recall at the end of the (possibly truncated) run."""
        if self.total_matches == 0:
            return 0.0
        return len(self.hit_positions) / self.total_matches

    # -- area under the curve ----------------------------------------------------

    def auc_at(self, ec_star: float) -> float:
        """Area under recall(t) for t in [0, ec*] (t in normalized units).

        recall(c) = (1/D) * sum_k 1[c >= p_k], so the integral over
        comparisons in [0, x*D] is sum_k max(0, x*D - p_k) / D, and in
        normalized units the area divides by D once more.
        """
        if self.total_matches == 0:
            return 0.0
        budget = ec_star * self.total_matches
        total = 0.0
        for position in self.hit_positions:
            if position >= budget:
                break
            total += budget - position
        return total / (self.total_matches**2)

    def normalized_auc_at(self, ec_star: float) -> float:
        """AUC*_m@ec* - normalized against the ideal method."""
        ideal = ideal_auc(self.total_matches, ec_star)
        if ideal == 0.0:
            return 0.0
        return min(1.0, self.auc_at(ec_star) / ideal)

    def points(self, ec_stars: Sequence[float]) -> list[tuple[float, float]]:
        """(ec*, recall) pairs for plotting or tabulation."""
        return [(x, self.recall_at(x)) for x in ec_stars]


def ideal_auc(total_matches: int, ec_star: float) -> float:
    """AUC of the ideal method: k-th match found at emission k."""
    if total_matches == 0:
        return 0.0
    budget = ec_star * total_matches
    total = 0.0
    for position in range(1, total_matches + 1):
        if position >= budget:
            break
        total += budget - position
    return total / (total_matches**2)


def _drive_progressive(
    method: ProgressiveMethod,
    ground_truth: GroundTruth,
    max_ec_star: float = 30.0,
    stop_at_full_recall: bool = True,
    dataset: str = "",
) -> RecallCurve:
    """Drive a progressive method and record its recall curve.

    The protocol body of :meth:`repro.pipeline.Resolver.evaluate`.  The
    method is (lazily) initialized, then emissions are consumed up to a
    budget of ``max_ec_star * |D(P)|`` comparisons.  Match decisions come
    from the ground truth - the paper's protocol for the progressiveness
    experiments, which isolates emission order from match-function quality.

    With ``stop_at_full_recall`` the run ends as soon as every match is
    found (the curve is flat afterwards, so no information is lost).
    """
    total_matches = len(ground_truth)
    budget = int(math.ceil(max_ec_star * total_matches))
    curve = RecallCurve(
        method=method.name, total_matches=total_matches, dataset=dataset
    )
    found: set[tuple[int, int]] = set()
    emitted = 0
    exhausted = True
    for comparison in method:
        if emitted >= budget:
            exhausted = False
            break
        emitted += 1
        pair = comparison.pair
        if pair not in found and ground_truth.is_match(*pair):
            found.add(pair)
            curve.hit_positions.append(emitted)
            if stop_at_full_recall and len(found) == total_matches:
                break
    curve.emitted = emitted
    curve.exhausted = exhausted and emitted <= budget
    return curve
