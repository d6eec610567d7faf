"""The Neighbor List - core structure of the similarity-based methods.

The Neighbor List (Section 3.2, called "sorted list of records" in [5]) is
the sequence of profile ids obtained by sorting all blocking keys
alphabetically; in the schema-agnostic variant every distinct attribute-
value token of a profile is a key, so each profile appears once per token.

Profiles sharing a key form a *run* whose internal order carries no signal
- the paper's "coincidental proximity".  The run order is configurable:

* ``tie_order='insertion'`` - profiles in id order (deterministic, used by
  the worked-example tests);
* ``tie_order='random'`` - a seeded shuffle per run, reproducing the
  "relatively random order" the paper describes for real data.
"""

from __future__ import annotations

import random
from typing import Iterable, Sequence

from repro.core.profiles import ProfileStore
from repro.core.tokenization import token_stream

_TIE_ORDERS = ("insertion", "random")


class NeighborList:
    """The sorted array of profile ids plus the parallel key array.

    ``entries[p]`` is the profile id at position ``p``; ``keys[p]`` is the
    blocking key that put it there (kept for inspection and tests - the
    algorithms only read ``entries``).
    """

    __slots__ = ("entries", "keys")

    def __init__(self, entries: Sequence[int], keys: Sequence[str]) -> None:
        if len(entries) != len(keys):
            raise ValueError("entries and keys must be parallel arrays")
        self.entries: list[int] = list(entries)
        self.keys: list[str] = list(keys)

    def __len__(self) -> int:
        return len(self.entries)

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_key_pairs(
        cls,
        pairs: Iterable[tuple[str, int]],
        tie_order: str = "insertion",
        seed: int | None = 0,
    ) -> "NeighborList":
        """Build from (key, profile_id) pairs.

        Pairs are sorted by key; the order inside each equal-key run
        follows ``tie_order``.
        """
        if tie_order not in _TIE_ORDERS:
            raise ValueError(f"tie_order must be one of {_TIE_ORDERS}")
        grouped: dict[str, list[int]] = {}
        for key, profile_id in pairs:
            grouped.setdefault(key, []).append(profile_id)

        rng = random.Random(seed) if tie_order == "random" else None
        entries: list[int] = []
        keys: list[str] = []
        for key in sorted(grouped):
            run = grouped[key]
            if rng is not None and len(run) > 1:
                rng.shuffle(run)
            entries.extend(run)
            keys.extend([key] * len(run))
        return cls(entries, keys)

    @classmethod
    def schema_agnostic(
        cls,
        store: ProfileStore,
        tie_order: str = "insertion",
        seed: int | None = 0,
    ) -> "NeighborList":
        """The schema-agnostic Neighbor List: one entry per profile token."""
        return cls.from_key_pairs(token_stream(store), tie_order=tie_order, seed=seed)

    # -- inspection ----------------------------------------------------------

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"NeighborList({len(self.entries)} positions)"
