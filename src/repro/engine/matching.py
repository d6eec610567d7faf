"""Batched tier-0/tier-1 cascade evaluation over the CSR substrate.

The cascade's two cheap tiers - normalized equality and Jaccard - are
both pure set algebra over each profile's distinct tokens, and the PR 7
blocking substrate already holds exactly those sets as interned token-id
CSR rows from its single tokenization sweep.  This module evaluates both
tiers for a whole batch of emitted comparisons in one vectorized pass
with **zero re-tokenization**, escalating only the residue the bands
leave undecided into the cascade's pure-Python tier loop.

The batch algorithm (:func:`pair_overlap`): gather both sides' token
rows as one composite int64 key ``pair * V + token`` (``V`` the
vocabulary size), sort it in place, count adjacent equal keys - the
per-pair intersection size.  Then::

    union    = |a| + |b| - intersection          (0 -> both empty)
    jaccard  = intersection / union              (both empty -> 1.0)
    equal    = intersection == |a| == |b|

``intersection`` and ``union`` are exact int64 counts, so the float64
division reproduces the reference ``len(set_a & set_b) / union`` bit for
bit, and decisions are identical to the pure-Python loop by
construction.  Tier counters are bulk-updated with the same semantics
the loop would produce (tier 1 only ever *sees* tier 0's residue).

Fan-out: :func:`pair_overlap` is a range kernel over the batch's pairs
(independent events, so the ranges' outputs concatenate exactly); the
token-row CSR is its payload, which a pooled fan-out ships once.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Any, Sequence

from repro.engine import require_numpy

require_numpy("repro.engine.matching")

import numpy as np  # noqa: E402  (guarded optional dependency)

from repro.core.comparisons import Comparison  # noqa: E402
from repro.core.profiles import ProfileStore  # noqa: E402
from repro.engine.csr import multi_arange  # noqa: E402
from repro.engine.storage import RAM  # noqa: E402
from repro.matching.cascade import MatcherCascade, TierDecision  # noqa: E402

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.substrate import ArraySubstrate


def pair_overlap(
    payload: dict[str, Any], shard: tuple[np.ndarray, np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """Range kernel: ``(equal, jaccard)`` of each ``(left[k], right[k])``
    profile pair of one slice of the batch.

    The payload's ``indptr``/``tokens`` is the per-profile distinct
    token-id CSR of :meth:`ArraySubstrate.token_rows` and ``vocabulary``
    a bound above every token id; the shard carries its own slices of
    the pair arrays.  Returns a bool array (normalized
    equality) and a float64 array (Jaccard; both-empty pairs score 1.0).
    """
    indptr, tokens = payload["indptr"], payload["tokens"]
    vocabulary = payload["vocabulary"]
    left, right = shard
    count = int(left.size)
    if count == 0:
        return (
            np.empty(0, dtype=bool),
            np.empty(0, dtype=np.float64),
        )
    len_left = indptr[left + 1] - indptr[left]
    len_right = indptr[right + 1] - indptr[right]
    starts = np.concatenate([indptr[left], indptr[right]])
    counts = np.concatenate([len_left, len_right])
    # pair * V + token: pair < batch size and V < 2**31, so no overflow.
    pair_base = np.arange(count, dtype=np.int64) * vocabulary
    keys = np.repeat(np.concatenate([pair_base, pair_base]), counts)
    keys += tokens[multi_arange(starts, counts)]
    keys.sort()
    # A row's tokens are distinct, so a key repeats exactly when both
    # sides of its pair hold the token.
    shared = keys[1:][keys[1:] == keys[:-1]]
    intersection = np.bincount(shared // vocabulary, minlength=count)
    union = len_left + len_right - intersection
    jaccard = np.ones(count, dtype=np.float64)
    np.divide(
        intersection.astype(np.float64),
        union.astype(np.float64),
        out=jaccard,
        where=union > 0,
    )
    equal = (intersection == len_left) & (intersection == len_right)
    return equal, jaccard


class CascadeBatchMatcher:
    """Vectorized tier-0/tier-1 evaluation for one resolver session.

    Wraps a :class:`~repro.matching.cascade.MatcherCascade` whose leading
    tiers are the stock normalized-equality / Jaccard implementations
    (``cascade.batchable_prefix()``); those
    tiers are evaluated off the substrate's cached token rows, and only
    the undecided residue escalates through the cascade's own loop -
    decisions, similarities and tier counters all match the pure-Python
    reference exactly.

    The substrate's fan-out (the session backend's) decides the pair
    ranges :func:`pair_overlap` runs over and who runs them.
    """

    def __init__(
        self,
        substrate: "ArraySubstrate",
        cascade: MatcherCascade,
        store: ProfileStore,
    ) -> None:
        self.substrate = substrate
        self.cascade = cascade
        self.store = store
        self.prefix = cascade.batchable_prefix()
        self._payload: dict[str, Any] | None = None

    @property
    def eligible(self) -> bool:
        """Whether at least tier 0 can be evaluated off the CSR rows."""
        return self.prefix >= 1

    def _overlap(
        self, left: np.ndarray, right: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        if self._payload is None:
            indptr, tokens = self.substrate.token_rows()
            self._payload = {
                "indptr": indptr,
                "tokens": tokens,
                "vocabulary": int(tokens.max()) + 1 if tokens.size else 1,
            }
        fanout = self.substrate.fanout
        shards = [
            (left[lo:hi], right[lo:hi])
            for lo, hi in fanout.ranges(int(left.size))
        ]
        equal = RAM.writer(bool)
        jaccard = RAM.writer(np.float64)
        for part_equal, part_jaccard in fanout.run(
            pair_overlap, self._payload, shards
        ):
            equal.append(part_equal)
            jaccard.append(part_jaccard)
        return equal.finish(), jaccard.finish()

    def decide_batch(
        self, comparisons: Sequence[Comparison]
    ) -> list[TierDecision]:
        """Decide a batch; order matches ``comparisons`` element-wise.

        Each batched tier books its own band masks and verdicts on its
        ``cost_seconds``; the shared :func:`pair_overlap` pass, which
        computes both tiers' algebra, is booked on tier 0.
        """
        cascade = self.cascade
        count = len(comparisons)
        if count == 0:
            return []
        if not self.eligible:
            return [
                cascade.decide(self.store[c.i], self.store[c.j])
                for c in comparisons
            ]
        left = np.fromiter((c.i for c in comparisons), np.int64, count)
        right = np.fromiter((c.j for c in comparisons), np.int64, count)
        began = time.perf_counter()
        equal, jaccard = self._overlap(left, right)
        similarities = (equal.astype(np.float64), jaccard)[: self.prefix]

        decisions: list[TierDecision | None] = [None] * count
        tiers = cascade.tiers
        residue = np.ones(count, dtype=bool)
        for position, similarity in enumerate(similarities):
            tier = tiers[position]
            matched = residue & (similarity >= tier.accept)
            if position == len(tiers) - 1:  # the last tier always decides
                rejected = residue & ~matched
            else:
                rejected = residue & (similarity < tier.reject)
            stats = cascade.tier_stats(position)
            stats.evaluated += int(residue.sum())
            residue = residue & ~(matched | rejected)
            stats.escalated += int(residue.sum())
            matched_count = int(matched.sum())
            stats.matched += matched_count
            stats.decided += matched_count + int(rejected.sum())
            for is_match, mask in ((True, matched), (False, rejected)):
                indices = np.nonzero(mask)[0]
                for index, value in zip(
                    indices.tolist(), similarity[indices].tolist()
                ):
                    decisions[index] = TierDecision(is_match, tier.name, value)
            now = time.perf_counter()
            stats.cost_seconds += now - began
            began = now

        for index in np.nonzero(residue)[0]:
            comparison = comparisons[index]
            decisions[index] = cascade._decide(
                self.store[comparison.i],
                self.store[comparison.j],
                start=len(similarities),
            )
        return [decision for decision in decisions if decision is not None]
