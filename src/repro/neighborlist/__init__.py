"""Neighbor List substrate for the similarity-based progressive methods."""

from repro.neighborlist.neighbor_list import NeighborList
from repro.neighborlist.position_index import PositionIndex
from repro.neighborlist.rcf import (
    CFWeighting,
    NeighborWeighting,
    RCFWeighting,
    make_neighbor_weighting,
)

__all__ = [
    "NeighborList",
    "PositionIndex",
    "CFWeighting",
    "NeighborWeighting",
    "RCFWeighting",
    "make_neighbor_weighting",
]
