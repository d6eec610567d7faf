"""Core data model: profiles, ground truth, comparisons, tokenization."""

from repro.core.comparisons import Comparison, ComparisonList, SortedStack
from repro.core.ground_truth import GroundTruth, normalize_pair
from repro.core.profiles import EntityProfile, ERType, ProfileStore
from repro.core.tokenization import suffixes, token_stream

__all__ = [
    "Comparison",
    "ComparisonList",
    "SortedStack",
    "GroundTruth",
    "normalize_pair",
    "EntityProfile",
    "ERType",
    "ProfileStore",
    "token_stream",
    "suffixes",
]
