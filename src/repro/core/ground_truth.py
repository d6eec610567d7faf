"""Ground truth for ER benchmarks: match pairs and equivalence clusters.

The benchmark datasets ship with known duplicate pairs (|D(P)| in Table 2 of
the paper).  For Dirty ER the duplicate relation is an equivalence relation,
so the ground truth can equivalently be seen as a set of *equivalence
clusters*; ``cora`` famously has |D(P)| about 13x larger than |P| because its
clusters are large.  This module stores both views and keeps them
consistent via union-find transitive closure.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Iterator


def normalize_pair(i: int, j: int) -> tuple[int, int]:
    """Canonical (min, max) form of an unordered profile pair."""
    if i == j:
        raise ValueError(f"a profile cannot match itself (id {i})")
    return (i, j) if i < j else (j, i)


def clusters_of(pairs: Iterable[tuple[int, int]]) -> tuple[tuple[int, ...], ...]:
    """The transitive closure of ``pairs`` as clusters: the connected
    components of the graph the pairs span, each a sorted id tuple, sorted.

    One union-find pass with path compression; the closure is
    order-independent, so ``pairs`` may come in any order.

    >>> clusters_of([(4, 5), (2, 1), (1, 3)])
    ((1, 2, 3), (4, 5))
    """
    parent: dict[int, int] = {}

    def find(node: int) -> int:
        if node not in parent:
            parent[node] = node
            return node
        root = node
        while parent[root] != root:
            root = parent[root]
        while parent[node] != root:
            parent[node], node = root, parent[node]
        return root

    for i, j in pairs:
        root_i, root_j = find(i), find(j)
        if root_i != root_j:
            parent[max(root_i, root_j)] = min(root_i, root_j)
    members: dict[int, list[int]] = {}
    for node in parent:  # compression rewrites values only, never keys
        members.setdefault(find(node), []).append(node)
    return tuple(sorted(tuple(sorted(group)) for group in members.values()))


class GroundTruth:
    """The set of true matches of a profile collection.

    Parameters
    ----------
    pairs:
        Iterable of matching ``(i, j)`` profile-id pairs.  Order inside a
        pair is irrelevant.
    closed:
        When True (the default for Dirty ER semantics), the transitive
        closure of the given pairs is taken: if (a,b) and (b,c) are
        matches, (a,c) is one too.  Clean-clean benchmarks typically ship
        one-to-one mappings where closure is a no-op.
    """

    __slots__ = ("_pairs", "_clusters")

    def __init__(self, pairs: Iterable[tuple[int, int]], closed: bool = True) -> None:
        seed_pairs = {normalize_pair(i, j) for i, j in pairs}
        self._clusters = clusters_of(seed_pairs)
        if closed:  # every pair inside a cluster; clusters are sorted tuples
            seed_pairs = {p for group in self._clusters for p in combinations(group, 2)}
        self._pairs = frozenset(seed_pairs)

    # -- construction helpers --------------------------------------------------

    @classmethod
    def from_clusters(cls, clusters: Iterable[Iterable[int]]) -> "GroundTruth":
        """Build from explicit equivalence clusters."""
        return cls(
            (p for cluster in clusters for p in combinations(sorted(set(cluster)), 2)),
            closed=False,
        )

    # -- queries ---------------------------------------------------------------

    def is_match(self, i: int, j: int) -> bool:
        """Whether profiles ``i`` and ``j`` are true duplicates."""
        if i == j:
            return False
        return normalize_pair(i, j) in self._pairs

    @property
    def pairs(self) -> frozenset[tuple[int, int]]:
        """All matching pairs in canonical (min, max) form."""
        return self._pairs

    @property
    def clusters(self) -> tuple[tuple[int, ...], ...]:
        """Equivalence clusters (each a sorted tuple of profile ids)."""
        return self._clusters

    def cluster_of(self, profile_id: int) -> tuple[int, ...]:
        """The cluster containing ``profile_id`` (singleton if unmatched)."""
        for cluster in self._clusters:
            if profile_id in cluster:
                return cluster
        return (profile_id,)

    def __len__(self) -> int:
        """|D(P)| - the number of true matching pairs."""
        return len(self._pairs)

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return iter(sorted(self._pairs))

    def __contains__(self, pair: tuple[int, int]) -> bool:
        i, j = pair
        return self.is_match(i, j)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"GroundTruth({len(self._pairs)} pairs, {len(self._clusters)} clusters)"
