"""Co-occurrence weighting schemes over the Neighbor List.

The paper introduces **RCF** (Relative Co-occurrence Frequency, Section
5.1): how often a pair of profiles lies ``w`` positions apart in the
Neighbor List, normalized by the number of positions of the two profiles:

    RCF(i, j) = freq / (|PI[i]| + |PI[j]| - freq)

which is a Jaccard-style ratio between co-occurrences and appearances.
LS-PSN and GS-PSN are "compatible with any other schema-agnostic weighting
scheme that infers the similarity of profiles exclusively from their
co-occurrences in the incremental sliding window", so the scheme is a small
strategy object; a raw co-occurrence-count scheme (CF) is provided for the
ablation benches.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Protocol


class AppearanceCounts(Protocol):
    """What a weighting reads of its index: the reference ``PositionIndex``
    or the array engine's PSN core."""

    def appearance_count(self, profile_id: int) -> int: ...


class NeighborWeighting(ABC):
    """Strategy turning a co-occurrence frequency into a pair weight."""

    name: str = "abstract"

    @abstractmethod
    def weight(self, frequency: int, i: int, j: int, index: AppearanceCounts) -> float:
        """Weight of pair (i, j) given its window co-occurrence count."""


class RCFWeighting(NeighborWeighting):
    """Relative Co-occurrence Frequency - the paper's scheme."""

    name = "RCF"

    def weight(self, frequency: int, i: int, j: int, index: AppearanceCounts) -> float:
        if frequency <= 0:
            return 0.0
        appearances = index.appearance_count(i) + index.appearance_count(j)
        denominator = appearances - frequency
        if denominator <= 0:
            # Degenerate: every appearance of both profiles co-occurs.
            return float(frequency)
        return frequency / denominator


class CFWeighting(NeighborWeighting):
    """Raw co-occurrence frequency (unnormalized ablation baseline)."""

    name = "CF"

    def weight(self, frequency: int, i: int, j: int, index: AppearanceCounts) -> float:
        return float(frequency)


_SCHEMES: dict[str, type[NeighborWeighting]] = {
    cls.name: cls for cls in (RCFWeighting, CFWeighting)
}


def make_neighbor_weighting(name: str) -> NeighborWeighting:
    """Instantiate a Neighbor List weighting scheme by name."""
    try:
        return _SCHEMES[name.upper()]()
    except KeyError:
        raise ValueError(
            f"unknown neighbor weighting {name!r}; available: {sorted(_SCHEMES)}"
        ) from None
