"""Seeded million-profile synthetic workload with exact ground truth.

The real benchmarks top out at laptop scale, so the beyond-RAM storage
layer needs a corpus that actually reaches the regime the extended
paper (arxiv 1905.06385) evaluates in.  This generator produces any
number of profiles - 1M+ included - with three properties the scale
harness depends on:

* **O(1) random access.** Profile ``i`` is a pure function of
  ``(seed, i)``: id layout comes from seeded affine permutations
  (``(a*i + b) mod n`` with ``gcd(a, n) = 1``), token draws from
  per-entity/per-record ``random.Random`` instances seeded with strings
  like ``"synthetic:<seed>:record:<i>"``.  No O(n) state exists at all,
  which is what makes the :class:`~repro.datasets.base.ChunkedProfileStore`
  stream invariant under chunk size and picklable to shard workers.
* **Exact ground truth without materializing profiles.** Duplicate
  clusters live in a fixed-period layout over canonical slots (seven
  clusters of sizes 3,2,2,2,2,2,2 per 15 slots for Dirty ER; 1-1
  cross-source pairs for Clean-clean), so the truth enumeration is
  O(matches).
* **Realistic skew.** Title tokens are drawn from an approximately
  Zipfian rank distribution (:func:`zipf_rank`, closed-form inverse
  CDF - no frequency tables), giving token blocking the heavy-tailed
  block-size profile real corpora show.  A per-entity ``code``
  attribute anchors recall; a 7-value ``kind`` attribute produces
  blocks that Block Purging removes at every scale.

Duplicates are corrupted with :class:`~repro.datasets.corruption.
Corruptor` (keyboard typos, dropped tokens, digit errors) at a
configurable rate.  Everything here is pure Python by design
(``tests/test_optional_numpy.py`` keeps numpy out of the reference
path), and the module is annotated for the ``mypy --strict`` gate.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from repro.core.ground_truth import GroundTruth
from repro.core.profiles import EntityProfile, ERType
from repro.datasets.base import ChunkedProfileStore, Dataset
from repro.datasets.corruption import Corruptor

#: Canonical-slot layout of the Dirty ER duplicate region: every 15
#: consecutive slots hold 7 clusters of these sizes.  15 is coprime to
#: nothing special - it just keeps one cluster of 3 per period so both
#: cluster shapes (pairs and triples) are always present.
_CLUSTER_SIZES = (3, 2, 2, 2, 2, 2, 2)
_CLUSTER_STARTS = (0, 3, 5, 7, 9, 11, 13)
_PERIOD = 15
_CLUSTERS_PER_PERIOD = len(_CLUSTER_SIZES)
#: slot offset within a period -> (cluster offset, copy index)
_SLOT = tuple(
    (cluster, copy)
    for cluster, size in enumerate(_CLUSTER_SIZES)
    for copy in range(size)
)

#: Matches contributed by one full period: one triple (3 pairs) plus
#: six pairs.
_MATCHES_PER_PERIOD = 3 + 6


def zipf_rank(u: float, size: int, exponent: float) -> int:
    """Map uniform ``u`` in [0, 1) to a rank in ``1..size``, Zipf-ishly.

    Continuous inverse-CDF of the density ``p(t) ~ t**-exponent`` on
    ``[1, size]`` - the closed form needs no O(size) frequency table,
    so vocabulary sizes can track the corpus (millions of tokens) for
    free.  ``exponent=0`` degenerates to uniform; ``exponent=1`` uses
    the logarithmic special case.

    >>> zipf_rank(0.0, 1000, 0.5)
    1
    >>> zipf_rank(0.999999, 1000, 0.5)
    999
    >>> all(zipf_rank(u / 64, 50, 1.0) <= zipf_rank((u + 1) / 64, 50, 1.0)
    ...     for u in range(63))
    True
    """
    if size <= 1:
        return 1
    if exponent <= 0.0:
        return min(size, int(u * size) + 1)
    if abs(exponent - 1.0) < 1e-9:
        return min(size, int(size**u))  # d/dt of log t is 1/t
    power = 1.0 - exponent
    t = (1.0 + u * (size**power - 1.0)) ** (1.0 / power)
    return max(1, min(size, int(t)))


def _affine_coefficients(n: int, rng: random.Random) -> tuple[int, int, int]:
    """Multiplier, offset and inverse multiplier for a permutation of n."""
    if n <= 1:
        return 1, 0, 1 if n == 1 else 1
    a = rng.randrange(1, n) | 1
    while math.gcd(a, n) != 1:
        a += 2
        if a >= n:
            a = 1
    b = rng.randrange(n)
    return a, b, pow(a, -1, n)


@dataclass(frozen=True)
class _AffinePerm:
    """``i -> (a*i + b) mod n`` with gcd(a, n) = 1: an O(1) bijection."""

    n: int
    a: int
    b: int
    a_inv: int

    @classmethod
    def for_seed(cls, n: int, seed_key: str) -> "_AffinePerm":
        a, b, a_inv = _affine_coefficients(n, random.Random(seed_key))
        return cls(n, a, b, a_inv)

    def __call__(self, i: int) -> int:
        return (self.a * i + self.b) % self.n

    def invert(self, c: int) -> int:
        return (self.a_inv * (c - self.b)) % self.n


@dataclass
class SyntheticSource:
    """Picklable chunk source: profile ``i`` as a function of ``(seed, i)``.

    Implements the :class:`~repro.datasets.base.ProfileChunkSource` duck
    API.  See :func:`generate_synthetic` for the knobs.
    """

    n_profiles: int
    seed: int
    duplicate_rate: float
    corruption: float
    zipf_exponent: float
    vocab_size: int
    er_type: ERType
    # Derived layout state (filled in __post_init__, all O(1)-sized).
    source_boundary: int = field(init=False)
    _salt: int = field(init=False)
    _perm: _AffinePerm = field(init=False)
    _right_perm: _AffinePerm = field(init=False)
    _dup_slots: int = field(init=False)

    def __post_init__(self) -> None:
        n = self.n_profiles
        if n < 0:
            raise ValueError(f"n_profiles must be >= 0, got {n}")
        if not 0.0 <= self.duplicate_rate <= 1.0:
            raise ValueError("duplicate_rate must be within [0, 1]")
        if not 0.0 <= self.corruption <= 1.0:
            raise ValueError("corruption must be within [0, 1]")
        if self.vocab_size < 1:
            raise ValueError("vocab_size must be >= 1")
        tag = f"synthetic:{self.seed}"
        self._salt = random.Random(f"{tag}:salt").getrandbits(30)
        if self.er_type is ERType.DIRTY:
            self.source_boundary = n
            self._perm = _AffinePerm.for_seed(n, f"{tag}:layout")
            self._right_perm = self._perm
            self._dup_slots = (
                int(self.duplicate_rate * n) // _PERIOD
            ) * _PERIOD
        else:
            n0 = (n + 1) // 2
            self.source_boundary = n0
            self._perm = _AffinePerm.for_seed(n0, f"{tag}:layout-left")
            self._right_perm = _AffinePerm.for_seed(
                n - n0, f"{tag}:layout-right"
            )
            self._dup_slots = int(self.duplicate_rate * min(n0, n - n0))

    # -- id layout ---------------------------------------------------------

    def _entity_of(self, profile_id: int) -> tuple[int, int]:
        """``profile id -> (entity id, copy index)``; copy 0 is canonical."""
        if self.er_type is ERType.DIRTY:
            slot = self._perm(profile_id)
            if slot < self._dup_slots:
                period, offset = divmod(slot, _PERIOD)
                cluster, copy = _SLOT[offset]
                return period * _CLUSTERS_PER_PERIOD + cluster, copy
            n_clusters = (
                self._dup_slots // _PERIOD
            ) * _CLUSTERS_PER_PERIOD
            return n_clusters + (slot - self._dup_slots), 0
        boundary = self.source_boundary
        if profile_id < boundary:
            slot = self._perm.invert(profile_id)
            if slot < self._dup_slots:
                return slot, 0
            return self._dup_slots + slot, 0
        slot = self._right_perm.invert(profile_id - boundary)
        if slot < self._dup_slots:
            return slot, 1
        # Unique right entities live above every left entity id.
        return self._dup_slots + boundary + slot, 0

    def cluster_members(self, cluster: int) -> list[int]:
        """Profile ids of one Dirty ER duplicate cluster (sorted)."""
        period, offset = divmod(cluster, _CLUSTERS_PER_PERIOD)
        start = period * _PERIOD + _CLUSTER_STARTS[offset]
        members = [
            self._perm.invert(start + position)
            for position in range(_CLUSTER_SIZES[offset])
        ]
        return sorted(members)

    def ground_truth(self) -> GroundTruth:
        """The exact duplicate relation, enumerated in O(matches)."""
        if self.er_type is ERType.DIRTY:
            n_clusters = (
                self._dup_slots // _PERIOD
            ) * _CLUSTERS_PER_PERIOD
            return GroundTruth.from_clusters(
                self.cluster_members(cluster) for cluster in range(n_clusters)
            )
        boundary = self.source_boundary
        return GroundTruth.from_clusters(
            (self._perm(slot), boundary + self._right_perm(slot))
            for slot in range(self._dup_slots)
        )

    def match_count(self) -> int:
        """``len(ground_truth())`` without building it."""
        if self.er_type is ERType.DIRTY:
            return (self._dup_slots // _PERIOD) * _MATCHES_PER_PERIOD
        return self._dup_slots

    # -- profile content ---------------------------------------------------

    def _entity_tokens(self, entity: int) -> tuple[list[str], str, str]:
        """Canonical (title tokens, code, kind) of one entity."""
        rng = random.Random(f"synthetic:{self.seed}:entity:{entity}")
        count = rng.randint(4, 7)
        title = [
            f"t{zipf_rank(rng.random(), self.vocab_size, self.zipf_exponent)}"
            for _ in range(count)
        ]
        code = f"c{self._salt ^ entity}"
        kind = f"k{entity % 7}"
        return title, code, kind

    def build_profile(self, profile_id: int) -> EntityProfile:
        entity, copy = self._entity_of(profile_id)
        title, code, kind = self._entity_tokens(entity)
        if copy > 0:
            rng = random.Random(f"synthetic:{self.seed}:record:{profile_id}")
            corruptor = Corruptor(rng)
            title = [
                corruptor.maybe_typo(token, self.corruption)
                for token in title
            ]
            if len(title) > 1 and rng.random() < self.corruption / 2:
                del title[rng.randrange(len(title))]
            code = corruptor.digit_error(code, self.corruption)
        source = 0 if profile_id < self.source_boundary else 1
        return EntityProfile(
            profile_id,
            [("title", " ".join(title)), ("code", code), ("kind", kind)],
            source,
        )

    def build_chunk(self, start: int, stop: int) -> list[EntityProfile]:
        return [self.build_profile(i) for i in range(start, stop)]


#: Profile count at scale 1.0 - the "million-profile workload".
FULL_SCALE_PROFILES = 1_000_000


def generate_synthetic(
    scale: float = 1.0,
    seed: int = 0,
    *,
    n_profiles: int | None = None,
    duplicate_rate: float = 0.2,
    corruption: float = 0.3,
    zipf_exponent: float = 0.5,
    vocab_size: int | None = None,
    er_type: str | ERType = ERType.DIRTY,
    chunk_size: int = 8192,
) -> Dataset:
    """The registered ``"synthetic"`` dataset: a seeded scale workload.

    Parameters
    ----------
    scale:
        Linear fraction of :data:`FULL_SCALE_PROFILES` (1.0 = 1M
        profiles); overridden by an explicit ``n_profiles``.
    seed:
        Master seed; the same ``(scale, seed, knobs)`` tuple always
        yields a byte-identical stream, independent of ``chunk_size``.
    duplicate_rate:
        Fraction of profiles living in duplicate clusters.
    corruption:
        Per-token typo probability (and half of it as a token-drop
        probability, and a digit-error probability on the code
        attribute) applied to non-canonical copies.
    zipf_exponent:
        Skew of the title-token rank distribution (0 = uniform).
    vocab_size:
        Title vocabulary size; defaults to ``2 * n`` so block sizes
        stay bounded as the corpus grows.
    er_type:
        ``"dirty"`` (default) or ``"clean-clean"`` (two equal-size
        sources, 1-1 matches across them).
    chunk_size:
        Profiles materialized per chunk by the returned store.
    """
    er = ERType(er_type) if not isinstance(er_type, ERType) else er_type
    n = (
        int(n_profiles)
        if n_profiles is not None
        else round(FULL_SCALE_PROFILES * scale)
    )
    source = SyntheticSource(
        n_profiles=n,
        seed=seed,
        duplicate_rate=duplicate_rate,
        corruption=corruption,
        zipf_exponent=zipf_exponent,
        vocab_size=vocab_size if vocab_size is not None else max(1, 2 * n),
        er_type=er,
    )
    full = SyntheticSource(
        n_profiles=FULL_SCALE_PROFILES,
        seed=seed,
        duplicate_rate=duplicate_rate,
        corruption=corruption,
        zipf_exponent=zipf_exponent,
        vocab_size=2 * FULL_SCALE_PROFILES,
        er_type=er,
    )
    return Dataset(
        name="synthetic",
        store=ChunkedProfileStore(source, chunk_size=chunk_size),
        ground_truth=source.ground_truth(),
        description=(
            "Seeded synthetic scale workload: Zipfian title tokens, "
            "per-entity codes, corrupted duplicate clusters"
        ),
        scale=scale if n_profiles is None else n / FULL_SCALE_PROFILES,
        paper_stats={
            # "paper" here is the generator's own design point: the
            # characteristics at scale 1.0, so the linear-scaling test
            # has a reference row.
            "profiles": FULL_SCALE_PROFILES,
            "matches": full.match_count(),
            "attributes": 3,
        },
    )
