"""Ground truth for ER benchmarks: match pairs and equivalence clusters.

The benchmark datasets ship with known duplicate pairs (|D(P)| in Table 2 of
the paper).  For Dirty ER the duplicate relation is an equivalence relation,
so the ground truth can equivalently be seen as a set of *equivalence
clusters*; ``cora`` famously has |D(P)| about 13x larger than |P| because its
clusters are large.  This module stores both views and keeps them
consistent via union-find transitive closure.
"""

from __future__ import annotations

from typing import Iterable, Iterator


def normalize_pair(i: int, j: int) -> tuple[int, int]:
    """Canonical (min, max) form of an unordered profile pair."""
    if i == j:
        raise ValueError(f"a profile cannot match itself (id {i})")
    return (i, j) if i < j else (j, i)


class _UnionFind:
    """Minimal union-find over dense integer ids with path compression."""

    __slots__ = ("parent",)

    def __init__(self) -> None:
        self.parent: dict[int, int] = {}

    def find(self, x: int) -> int:
        parent = self.parent
        if x not in parent:
            parent[x] = x
            return x
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[max(ra, rb)] = min(ra, rb)


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
        if closed:
            uf = _UnionFind()
            for i, j in seed_pairs:  # the closure is order-independent; clusters are sorted below
                uf.union(i, j)
            members: dict[int, list[int]] = {}
            for node in {p for pair in seed_pairs for p in pair}:  # groups are sorted below
                members.setdefault(uf.find(node), []).append(node)
            clusters = [tuple(sorted(group)) for group in members.values()]
            closed_pairs: set[tuple[int, int]] = set()
            for group in clusters:
                for a_index in range(len(group)):
                    for b_index in range(a_index + 1, len(group)):
                        closed_pairs.add((group[a_index], group[b_index]))
            self._pairs = frozenset(closed_pairs)
            self._clusters = tuple(sorted(clusters))
        else:
            self._pairs = frozenset(seed_pairs)
            self._clusters = self._clusters_from_pairs(seed_pairs)

    @staticmethod
    def _clusters_from_pairs(
        pairs: set[tuple[int, int]],
    ) -> tuple[tuple[int, ...], ...]:
        uf = _UnionFind()
        for i, j in pairs:  # the closure is order-independent; clusters are sorted below
            uf.union(i, j)
        members: dict[int, list[int]] = {}
        for node in {p for pair in pairs for p in pair}:  # groups are sorted below
            members.setdefault(uf.find(node), []).append(node)
        return tuple(sorted(tuple(sorted(group)) for group in members.values()))

    # -- construction helpers --------------------------------------------------

    @classmethod
    def from_clusters(cls, clusters: Iterable[Iterable[int]]) -> "GroundTruth":
        """Build from explicit equivalence clusters."""
        pairs: list[tuple[int, int]] = []
        for cluster in clusters:
            ids = sorted(set(cluster))
            for a_index in range(len(ids)):
                for b_index in range(a_index + 1, len(ids)):
                    pairs.append((ids[a_index], ids[b_index]))
        return cls(pairs, closed=False)

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
