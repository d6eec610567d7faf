"""Time-efficiency evaluation (Section 7.3).

Two quantities per method (paper definitions):

* **initialization time** - time to emit the *first* comparison,
  including all pre-processing (blocking workflow, Neighbor List
  construction, first Comparison List fill);
* **comparison time** - average time between consecutive emissions,
  including both the emission itself and the match function applied to
  the emitted pair.

:func:`timed_run` additionally records the wall-clock timestamps at which
matches are found, producing the recall-vs-time curves of Figure 13.

:func:`cascade_cost_model` fixes a cost-accounting bug in the original
timing harness: paying the full similarity on pairs the cascade's exact
tier decides for free.  Routing the cost model through a two-tier
cascade (exact, then the cost model) short-circuits normalized-equal
pairs at tier 0; decisions in the oracle protocol still come from the
ground truth, so recall numbers are unchanged by construction.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.core.ground_truth import GroundTruth
from repro.core.profiles import ProfileStore
from repro.matching.match_functions import MatchFunction
from repro.progressive.base import ProgressiveMethod


@dataclass
class TimedRun:
    """Wall-clock profile of one progressive run."""

    method: str
    initialization_seconds: float
    comparison_seconds: float  # mean per-emission cost incl. match function
    emitted: int
    matches_found: int
    total_matches: int
    # (seconds since start of emission, recall) checkpoints:
    recall_timeline: list[tuple[float, float]] = field(default_factory=list)


def cascade_cost_model(cost_model: MatchFunction) -> MatchFunction:
    """Wrap a timing cost model in the cascade's exact short-circuit.

    Returns a two-tier :class:`~repro.matching.MatcherCascade` - the
    ``exact`` tier, then ``cost_model`` - whose ``similarity`` pays the
    expensive computation only for pairs that are not normalized-equal.
    Drop-in for the ``cost_model=`` argument of
    :class:`~repro.matching.OracleMatcher`: decisions keep coming from
    the ground truth, only the *paid* cost changes.
    """
    from repro.matching.cascade import MatcherCascade
    from repro.matching.match_functions import ExactMatcher

    return MatcherCascade([ExactMatcher(), cost_model])


def timed_run(
    method: ProgressiveMethod,
    ground_truth: GroundTruth,
    store: ProfileStore,
    matcher: MatchFunction,
    max_comparisons: int,
    checkpoint_every: int = 50,
) -> TimedRun:
    """Run a method with a real match function under a comparison budget.

    The matcher is invoked on every emitted pair (its cost is the point);
    recall bookkeeping uses the ground truth so that the timeline reflects
    emission order, exactly as in the paper's protocol.
    """
    total_matches = len(ground_truth)
    start = time.perf_counter()
    method.initialize()
    initialization_seconds = time.perf_counter() - start

    found: set[tuple[int, int]] = set()
    timeline: list[tuple[float, float]] = []
    emitted = 0
    emission_start = time.perf_counter()
    for comparison in method:
        if emitted >= max_comparisons:
            break
        emitted += 1
        profile_a = store[comparison.i]
        profile_b = store[comparison.j]
        matcher(profile_a, profile_b)  # the cost being measured
        pair = comparison.pair
        if pair not in found and ground_truth.is_match(*pair):
            found.add(pair)
        if emitted % checkpoint_every == 0 or len(found) == total_matches:
            elapsed = time.perf_counter() - emission_start
            recall = len(found) / total_matches if total_matches else 0.0
            timeline.append((elapsed, recall))
            if len(found) == total_matches:
                break
    elapsed_total = time.perf_counter() - emission_start
    if emitted % checkpoint_every and len(found) < total_matches:
        # the run ended off a checkpoint: record where it got to
        timeline.append((elapsed_total, len(found) / total_matches))
    comparison_seconds = elapsed_total / emitted if emitted else 0.0
    return TimedRun(
        method=method.name,
        initialization_seconds=initialization_seconds,
        comparison_seconds=comparison_seconds,
        emitted=emitted,
        matches_found=len(found),
        total_matches=total_matches,
        recall_timeline=timeline,
    )
