"""The Position Index: profile id -> its positions in the Neighbor List.

Introduced by the paper (Section 5.1) to implement the weighted Neighbor
List efficiently: instead of scanning the whole list, LS-PSN and GS-PSN
visit only the positions of each profile and look ``windowSize`` places
left and right.  The index is "generic enough to accommodate any weighting
scheme that relies on the co-occurrence frequency of profile pairs".
"""

from __future__ import annotations

from typing import Sequence

from repro.neighborlist.neighbor_list import NeighborList


class PositionIndex:
    """Inverted index from profile ids to Neighbor List positions."""

    __slots__ = ("neighbor_list", "_positions")

    def __init__(self, neighbor_list: NeighborList) -> None:
        self.neighbor_list = neighbor_list
        positions: dict[int, list[int]] = {}
        for position, profile_id in enumerate(neighbor_list.entries):
            positions.setdefault(profile_id, []).append(position)
        self._positions = positions

    def positions_of(self, profile_id: int) -> Sequence[int]:
        """Sorted positions of ``profile_id`` in the Neighbor List."""
        return self._positions.get(profile_id, ())

    def appearance_count(self, profile_id: int) -> int:
        """|PI[i]| - how many blocking keys the profile contributed."""
        return len(self._positions.get(profile_id, ()))

    def indexed_profiles(self) -> list[int]:
        """Profile ids with at least one position, ascending."""
        return sorted(self._positions)

    def cooccurrence_frequency(
        self, i: int, j: int, window_size: int, cumulative: bool = False
    ) -> int:
        """Number of position pairs of (i, j) at distance ``window_size``.

        With ``cumulative=True``, counts pairs at any distance in
        ``[1, window_size]`` (the GS-PSN aggregation).  This is the
        reference implementation used by the tests; the progressive
        methods compute the same quantity incrementally.
        """
        if window_size < 1:
            raise ValueError("window_size must be positive")
        a = self._positions.get(i, ())
        b = self._positions.get(j, ())
        if not a or not b:
            return 0
        b_set = set(b)
        count = 0
        distances = (
            range(1, window_size + 1) if cumulative else (window_size,)
        )
        for position in a:
            for distance in distances:
                if position + distance in b_set:
                    count += 1
                if position - distance in b_set:
                    count += 1
        return count

    def __len__(self) -> int:
        return len(self._positions)
