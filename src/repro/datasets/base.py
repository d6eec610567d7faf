"""Dataset container and shared generator helpers.

Besides the in-RAM :class:`~repro.core.profiles.ProfileStore`, this
module defines :class:`ChunkedProfileStore` - the streaming face of the
same contract: profiles are *built on demand* in fixed-size chunks from
a deterministic source, so a million-profile corpus is never resident
as objects all at once (the tokenization sweep iterates it chunk by
chunk).  Any object with the small :class:`ProfileChunkSource` duck API
can back it; :mod:`repro.datasets.synthetic` is the canonical producer.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Iterator

from repro.core.ground_truth import GroundTruth
from repro.core.profiles import EntityProfile, ERType, ProfileStore


@dataclass
class Dataset:
    """A benchmark dataset: profiles, ground truth and provenance.

    ``paper_stats`` records the Table 2 characteristics of the real dataset
    this synthetic one substitutes for (at scale 1.0), which the table2-*
    rows of tests/test_paper_claims.py check against.  ``psn_key`` carries the
    schema-based blocking key for the PSN baseline where the literature
    defines one (the structured datasets only).
    """

    name: str
    store: ProfileStore | ChunkedProfileStore
    ground_truth: GroundTruth
    description: str = ""
    scale: float = 1.0
    paper_stats: dict[str, object] = field(default_factory=dict)
    psn_key: Callable[[EntityProfile], str] | None = None

    def stats(self) -> dict[str, object]:
        """Generated characteristics in Table 2's vocabulary."""
        store = self.store
        out: dict[str, object] = {
            "er_type": store.er_type.value,
            "profiles": len(store),
            "attributes": store.attribute_name_count(),
            "matches": len(self.ground_truth),
            "mean_pairs": round(store.mean_pairs_per_profile(), 2),
        }
        if store.er_type is ERType.CLEAN_CLEAN:
            out["profiles_by_source"] = (
                store.source_size(0),
                store.source_size(1),
            )
            out["attributes_by_source"] = tuple(
                store.attribute_name_count_by_source().get(source, 0)
                for source in (0, 1)
            )
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Dataset({self.name!r}, |P|={len(self.store)}, |DP|={len(self.ground_truth)})"


def scaled(value: int, scale: float, minimum: int = 1) -> int:
    """Round a paper-scale count down to the working scale."""
    return max(minimum, round(value * scale))


def cluster_sizes(
    total_profiles: int,
    total_matches: int,
    max_cluster: int = 60,
) -> list[int]:
    """Cluster sizes hitting ``total_matches`` intra-cluster pairs exactly.

    Greedy: repeatedly take the largest cluster (capped) whose pair count
    fits in the remaining match budget; leftover profiles are singletons.
    Reproduces the skewed cluster-size distributions of datasets like
    cora, where a handful of heavily-cited papers account for most pairs.

    Returns sizes of the *duplicate* clusters only (singletons implied by
    ``total_profiles - sum(sizes)``).
    """
    if total_matches < 0 or total_profiles < 0:
        raise ValueError("counts must be non-negative")
    sizes: list[int] = []
    matches_left = total_matches
    profiles_left = total_profiles
    while matches_left > 0 and profiles_left >= 2:
        # Largest s with s*(s-1)/2 <= matches_left.
        size = int((1 + (1 + 8 * matches_left) ** 0.5) / 2)
        size = min(size, max_cluster, profiles_left)
        if size < 2:
            break
        sizes.append(size)
        matches_left -= size * (size - 1) // 2
        profiles_left -= size
    return sizes


def shuffled_store(
    records: list[tuple[dict[str, object] | list[tuple[str, str]], int, int]],
    er_type: ERType,
    rng: random.Random,
) -> tuple[ProfileStore, GroundTruth]:
    """Assemble a store + ground truth from (attributes, cluster, source).

    ``cluster`` is an entity id: records sharing it are duplicates
    (cluster < 0 means "unique entity", never matched).  Records are
    shuffled before id assignment so that profile ids carry no signal
    about cluster membership; for Clean-clean ER the source-0 profiles
    keep the low id range, as :meth:`ProfileStore.clean_clean` requires.
    """
    order = list(range(len(records)))
    rng.shuffle(order)
    if er_type is ERType.CLEAN_CLEAN:
        order.sort(key=lambda idx: records[idx][2])  # stable: sources grouped

    profiles: list[EntityProfile] = []
    members: dict[int, list[int]] = {}
    for new_id, record_index in enumerate(order):
        attributes, cluster, source = records[record_index]
        profiles.append(EntityProfile(new_id, attributes, source))
        if cluster >= 0:
            members.setdefault(cluster, []).append(new_id)

    store = ProfileStore(profiles, er_type)
    truth = GroundTruth.from_clusters(
        group for group in members.values() if len(group) >= 2
    )
    return store, truth


class ProfileChunkSource:
    """Duck API a :class:`ChunkedProfileStore` builds profiles from.

    Implementations (which need not subclass this) provide:

    * ``n_profiles`` - total profile count (dense ids ``0..n-1``);
    * ``er_type`` - the task shape;
    * ``source_boundary`` - first profile id of source 1; equal to
      ``n_profiles`` for Dirty ER.  Clean-clean sources must occupy the
      id ranges ``[0, boundary)`` and ``[boundary, n)``, matching
      :meth:`ProfileStore.clean_clean`;
    * ``build_chunk(start, stop)`` - the profiles with ids
      ``start..stop-1``, freshly built.  Must be **deterministic and
      range-independent**: the profile for id ``i`` is byte-identical
      however the range enclosing ``i`` is chosen (that is what makes
      the stream invariant under chunk size), and the object must stay
      picklable so sharded sweeps can ship it to workers.
    """

    n_profiles: int
    er_type: ERType
    source_boundary: int

    def build_chunk(self, start: int, stop: int) -> list[EntityProfile]:
        raise NotImplementedError


class ChunkedProfileStore:
    """A :class:`ProfileStore`-compatible view that streams its profiles.

    Profiles come from a deterministic :class:`ProfileChunkSource` in
    fixed-size chunks; at most one chunk of :class:`EntityProfile`
    objects is resident at a time (a one-slot cache serves repeated
    ``store[i]`` hits within the same chunk).  Everything positional -
    ``source_of``, ``valid_comparison``, the candidate count - is O(1)
    from the source boundary; the Table 2 statistics that genuinely
    need attribute contents perform one streaming pass and cache the
    result.

    Pickling drops the chunk cache, so shipping the store to worker
    processes costs only the (small) source object.
    """

    def __init__(self, source: ProfileChunkSource, chunk_size: int = 8192) -> None:
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        self.source = source
        self.chunk_size = int(chunk_size)
        self.er_type = source.er_type
        self._n = int(source.n_profiles)
        self._boundary = int(source.source_boundary)
        if not 0 <= self._boundary <= self._n:
            raise ValueError(
                f"source_boundary {self._boundary} outside [0, {self._n}]"
            )
        self._cache_start = -1
        self._cache: list[EntityProfile] = []
        self._scan_stats: tuple[int, dict[int, int], float] | None = None

    # -- container protocol ------------------------------------------------

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, profile_id: int) -> EntityProfile:
        if not 0 <= profile_id < self._n:
            raise IndexError(profile_id)
        start = (profile_id // self.chunk_size) * self.chunk_size
        if start != self._cache_start:
            self._cache = self.source.build_chunk(
                start, min(start + self.chunk_size, self._n)
            )
            self._cache_start = start
        return self._cache[profile_id - start]

    def __iter__(self) -> Iterator[EntityProfile]:
        for chunk in self.iter_chunks():
            yield from chunk

    def iter_chunks(self) -> Iterator[list[EntityProfile]]:
        """The profiles in id order, one freshly-built chunk at a time."""
        for start in range(0, self._n, self.chunk_size):
            yield self.source.build_chunk(
                start, min(start + self.chunk_size, self._n)
            )

    def __getstate__(self) -> dict[str, object]:
        state = dict(self.__dict__)
        state["_cache_start"] = -1
        state["_cache"] = []
        return state

    # -- task semantics ----------------------------------------------------

    def source_of(self, profile_id: int) -> int:
        return 0 if profile_id < self._boundary else 1

    def source_size(self, source: int) -> int:
        if source == 0:
            return self._boundary
        if source == 1:
            return self._n - self._boundary
        return 0

    def source_ids(self, source: int) -> list[int]:
        if source == 0:
            return list(range(self._boundary))
        if source == 1:
            return list(range(self._boundary, self._n))
        return []

    def valid_comparison(self, i: int, j: int) -> bool:
        if i == j:
            return False
        if self.er_type is ERType.DIRTY:
            return True
        return self.source_of(i) != self.source_of(j)

    def total_candidate_comparisons(self) -> int:
        if self.er_type is ERType.DIRTY:
            return self._n * (self._n - 1) // 2
        return self.source_size(0) * self.source_size(1)

    # -- statistics (one streaming pass, cached) ---------------------------

    def _scan(self) -> tuple[int, dict[int, int], float]:
        if self._scan_stats is None:
            names: dict[int, set[str]] = {}
            total_pairs = 0
            for profile in self:
                bucket = names.setdefault(profile.source, set())
                for name, _ in profile.pairs:
                    bucket.add(name)
                total_pairs += len(profile.pairs)
            union = len(set().union(*names.values())) if names else 0
            counts = {source: len(bucket) for source, bucket in names.items()}
            mean = total_pairs / self._n if self._n else 0.0
            self._scan_stats = (union, counts, mean)
        return self._scan_stats

    def attribute_name_count(self) -> int:
        return self._scan()[0]

    def attribute_name_count_by_source(self) -> dict[int, int]:
        return dict(self._scan()[1])

    def mean_pairs_per_profile(self) -> float:
        return self._scan()[2]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ChunkedProfileStore({self._n} profiles, {self.er_type.value}, "
            f"chunk_size={self.chunk_size})"
        )
