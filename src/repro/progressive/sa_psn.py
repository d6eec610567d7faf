"""SA-PSN - naive Schema-Agnostic Progressive Sorted Neighborhood (§4.1).

Combines PSN's incrementally-sized sliding window with the schema-agnostic
Neighbor List of [7]: every distinct attribute-value token of a profile
contributes one position.  Parameter-free, cheap to build - and naive:

* the same pair may be emitted many times (a pair adjacent in several
  token runs co-occurs at the same distance repeatedly), and
* the order inside equal-key runs is coincidental.

Windows must skip same-profile occurrences (a profile with two
alphabetically consecutive tokens) and, for Clean-clean ER, same-source
pairs - exactly the validity rule of Section 4.1.
"""

from __future__ import annotations

from typing import Iterator

from repro.core.comparisons import Comparison
from repro.core.profiles import ProfileStore
from repro.neighborlist.neighbor_list import NeighborList
from repro.progressive.base import ProgressiveMethod, register_method


@register_method("SAPSN")
class SAPSN(ProgressiveMethod):
    """Schema-agnostic PSN over the token Neighbor List.

    Parameters
    ----------
    store:
        The profiles to resolve.
    tie_order, seed:
        Order inside equal-token runs ("insertion" or "random").
    max_window:
        Optional window-size cap (None - grow to list size).
    """

    name = "SA-PSN"

    def __init__(
        self,
        store: ProfileStore,
        tie_order: str = "random",
        seed: int | None = 0,
        max_window: int | None = None,
    ) -> None:
        super().__init__(store)
        self.tie_order = tie_order
        self.seed = seed
        self.max_window = max_window
        self.neighbor_list: NeighborList | None = None

    def _setup(self) -> None:
        self.neighbor_list = NeighborList.schema_agnostic(
            self.store, tie_order=self.tie_order, seed=self.seed
        )

    def _emit(self) -> Iterator[Comparison]:
        assert self.neighbor_list is not None
        entries = self.neighbor_list.entries
        size = len(entries)
        limit = size if self.max_window is None else min(size, self.max_window + 1)
        for window in range(1, limit):
            for position in range(size - window):
                i = entries[position]
                j = entries[position + window]
                if self.store.valid_comparison(i, j):
                    yield Comparison.make(i, j, 1.0 / window)
