"""Match functions, string similarity primitives, and the decision cascade."""

from repro.matching.cascade import (
    DEFAULT_TIERS,
    CascadeTier,
    MatcherCascade,
    TierDecision,
    TierStats,
)
from repro.matching.edit_distance import edit_similarity, levenshtein
from repro.matching.jaccard import jaccard, jaccard_strings
from repro.matching.match_functions import (
    EditDistanceMatcher,
    ExactMatcher,
    JaccardMatcher,
    MatchFunction,
    OracleMatcher,
)

__all__ = [
    "edit_similarity",
    "levenshtein",
    "jaccard",
    "jaccard_strings",
    "CascadeTier",
    "DEFAULT_TIERS",
    "EditDistanceMatcher",
    "ExactMatcher",
    "JaccardMatcher",
    "MatchFunction",
    "MatcherCascade",
    "OracleMatcher",
    "TierDecision",
    "TierStats",
]
