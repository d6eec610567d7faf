"""Blocking Graph edge-weighting schemes from Meta-blocking [12, 20].

Every scheme estimates the matching likelihood of a pair (p_i, p_j)
exclusively from the blocks the two profiles share (the equality
principle).  All schemes decompose into

* a per-common-block ``contribution`` (so PBS/PPS can accumulate weights
  while streaming over a block's or a profile's neighborhood), and
* a ``finalize`` step normalizing the accumulated raw value,

both reading nothing but :class:`BlockStatistics`.  This module is the
one scalar statement of the formulas (batch and live sessions alike);
:mod:`repro.engine.weights` is the one vectorized statement.

Implemented schemes:

======  ======================================================================
ARCS    sum over common blocks of 1/||b|| (the paper's default, Section 3.2)
CBS     number of common blocks |B_i ^ B_j|
ECBS    CBS * log(|B|/|B_i|) * log(|B|/|B_j|)
JS      Jaccard of block lists: CBS / (|B_i| + |B_j| - CBS)
EJS     JS * log(|E|/degree_i) * log(|E|/degree_j)  (degrees precomputed)
======  ======================================================================
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import Any, Mapping, Protocol, Sequence

from repro.registry import weighting_schemes


class BlockStatistics(Protocol):
    """What a weighting scheme reads: four statistics and a pair lookup.

    Two providers implement it: the batch
    :class:`~repro.metablocking.profile_index.ProfileIndex` (blocks keyed
    by scheduled id) and the live
    :class:`~repro.incremental.weights.IncrementalWeighter` (blocks keyed
    by token, purge-aware).  The formulas below are written once against
    it, so the batch and the incremental path cannot drift apart.
    """

    def cardinality(self, block: Any) -> int:
        """||b|| - comparisons entailed by one block."""

    def blocks_of_count(self, profile_id: int) -> int:
        """|B_i| - number of blocks containing the profile."""

    def block_count(self) -> int:
        """|B| - number of blocks."""

    def degrees(self) -> tuple[Mapping[int, int], int]:
        """Blocking Graph node degrees and the edge count |E|."""

    def common_blocks(self, i: int, j: int) -> Sequence[Any]:
        """The blocks two profiles share, in accumulation order."""


class WeightingScheme(ABC):
    """Edge weighting over block statistics."""

    name: str = "abstract"

    def __init__(self, index: BlockStatistics) -> None:
        self.index = index

    # -- streaming interface (used inside the progressive methods) ----------

    @abstractmethod
    def contribution(self, block: Any) -> float:
        """Weight contributed by one shared block."""

    def finalize(self, i: int, j: int, raw: float) -> float:
        """Normalize an accumulated raw weight for the pair (i, j)."""
        return raw

    # -- direct interface (used by the graph view and the tests) ------------

    def weight(self, i: int, j: int) -> float:
        """Edge weight of the pair, 0.0 when no block is shared."""
        common = self.index.common_blocks(i, j)
        if not common:
            return 0.0
        raw = sum(self.contribution(block) for block in common)
        return self.finalize(i, j, raw)


class ARCS(WeightingScheme):
    """Aggregate Reciprocal Comparisons Scheme: sum of 1/||b_k||.

    Smaller (more distinctive) shared blocks score higher; this is the
    scheme the paper fixes for all equality-based experiments.
    """

    name = "ARCS"

    def contribution(self, block: Any) -> float:
        cardinality = self.index.cardinality(block)
        if cardinality <= 0:
            return 0.0
        return 1.0 / cardinality


class CBS(WeightingScheme):
    """Common Blocks Scheme: the plain count of shared blocks."""

    name = "CBS"

    def contribution(self, block: Any) -> float:
        return 1.0


class ECBS(CBS):
    """Enhanced CBS: discounts profiles that appear in many blocks."""

    name = "ECBS"

    def finalize(self, i: int, j: int, raw: float) -> float:
        total = self.index.block_count()
        bi = self.index.blocks_of_count(i)
        bj = self.index.blocks_of_count(j)
        if not bi or not bj or total == 0:
            return 0.0
        return raw * math.log(total / bi) * math.log(total / bj)


class JS(CBS):
    """Jaccard Scheme over the two profiles' block lists."""

    name = "JS"

    def finalize(self, i: int, j: int, raw: float) -> float:
        bi = self.index.blocks_of_count(i)
        bj = self.index.blocks_of_count(j)
        union = bi + bj - raw
        if union <= 0:
            return 0.0
        return raw / union


class EJS(JS):
    """Enhanced JS: JS discounted by node degrees in the Blocking Graph.

    Degrees and the total edge count |E| come from the statistics
    provider, which computes them once per state with a full pass.
    """

    name = "EJS"

    def finalize(self, i: int, j: int, raw: float) -> float:
        jaccard = super().finalize(i, j, raw)
        if jaccard == 0.0:
            return 0.0
        degrees, edge_count = self.index.degrees()
        di = degrees.get(i, 0)
        dj = degrees.get(j, 0)
        if not di or not dj or not edge_count:
            return 0.0
        return jaccard * math.log(edge_count / di) * math.log(edge_count / dj)


for _scheme in (ARCS, CBS, ECBS, JS, EJS):
    weighting_schemes.register(_scheme.name, _scheme)
del _scheme


def available_schemes() -> list[str]:
    """Names of all registered weighting schemes."""
    return weighting_schemes.names()


def make_scheme(name: str, index: BlockStatistics) -> WeightingScheme:
    """Instantiate a scheme by name (spelling-insensitive)."""
    return weighting_schemes.build(name, index)
