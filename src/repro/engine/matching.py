"""Batched tier-0/tier-1 cascade evaluation over the CSR substrate.

The cascade's two cheap tiers - normalized equality and Jaccard - are
both pure set algebra over each profile's distinct tokens, and the PR 7
blocking substrate already holds exactly those sets as interned token-id
CSR rows from its single tokenization sweep.  This module evaluates both
tiers for a whole batch of emitted comparisons in one vectorized pass
with **zero re-tokenization**, escalating only the residue the bands
leave undecided into the cascade's pure-Python tier loop.

The batch algorithm (:func:`pair_overlap`): gather both sides' token
rows labeled by pair index, one ``lexsort`` by ``(pair, token)``, count
adjacent duplicates - the per-pair intersection size.  Then::

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
from repro.core.tokenization import DEFAULT_TOKENIZER  # noqa: E402
from repro.engine.csr import multi_arange  # noqa: E402
from repro.engine.storage import collector  # noqa: E402
from repro.matching.cascade import MatcherCascade, TierDecision  # noqa: E402

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.substrate import ArraySubstrate


def pair_overlap(
    payload: dict[str, Any], shard: tuple[np.ndarray, np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """Range kernel: ``(equal, jaccard)`` of each ``(left[k], right[k])``
    profile pair of one slice of the batch.

    The payload's ``indptr``/``tokens`` is the per-profile distinct
    token-id CSR of :meth:`ArraySubstrate.token_rows`; the shard carries
    its own slices of the pair arrays.  Returns a bool array (normalized
    equality) and a float64 array (Jaccard; both-empty pairs score 1.0).
    """
    indptr, tokens = payload["indptr"], payload["tokens"]
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
    labels = np.repeat(
        np.concatenate(
            [
                np.arange(count, dtype=np.int64),
                np.arange(count, dtype=np.int64),
            ]
        ),
        counts,
    )
    gathered = tokens[multi_arange(starts, counts)]
    order = np.lexsort((gathered, labels))
    sorted_tokens = gathered[order]
    sorted_labels = labels[order]
    duplicate = np.empty(sorted_tokens.size, dtype=bool)
    if sorted_tokens.size:
        duplicate[0] = False
        np.logical_and(
            sorted_tokens[1:] == sorted_tokens[:-1],
            sorted_labels[1:] == sorted_labels[:-1],
            out=duplicate[1:],
        )
    intersection = np.bincount(sorted_labels[duplicate], minlength=count)
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
    over the default tokenizer (``cascade.batchable_prefix()``); those
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
        if substrate.spec.tokenizer is not DEFAULT_TOKENIZER:
            # The substrate's rows intern a different token view; the
            # batch algebra would compute a different similarity.
            self.prefix = 0
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
            self._payload = {"indptr": indptr, "tokens": tokens}
        fanout = self.substrate.fanout
        shards = [
            (left[lo:hi], right[lo:hi])
            for lo, hi in fanout.ranges(int(left.size))
        ]
        equal = collector(None, bool)
        jaccard = collector(None, np.float64)
        for part_equal, part_jaccard in fanout.run(
            pair_overlap, self._payload, shards
        ):
            equal.append(part_equal)
            jaccard.append(part_jaccard)
        return equal.finish(), jaccard.finish()

    def decide_batch(
        self, comparisons: Sequence[Comparison]
    ) -> list[TierDecision]:
        """Decide a batch; order matches ``comparisons`` element-wise."""
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
        elapsed = time.perf_counter() - began

        decisions: list[TierDecision | None] = [None] * count
        tiers = cascade.tiers
        tier0 = tiers[0]
        sim0 = equal.astype(np.float64)
        matched = sim0 >= tier0.accept
        rejected = sim0 < tier0.reject
        if len(tiers) == 1:
            rejected = ~matched
        undecided = ~(matched | rejected)
        stats0 = cascade.tier_stats(0)
        stats0.evaluated += count
        # The one vectorized pass computes both tiers' algebra; its
        # wall-clock is booked on tier 0 (tier 1's marginal cost is the
        # band masks below, effectively free).
        stats0.cost_seconds += elapsed
        stats0.matched += int(matched.sum())
        stats0.decided += int(matched.sum() + rejected.sum())
        stats0.escalated += int(undecided.sum())
        for index in np.nonzero(matched)[0]:
            decisions[index] = TierDecision(True, tier0.name, float(sim0[index]))
        for index in np.nonzero(rejected)[0]:
            decisions[index] = TierDecision(
                False, tier0.name, float(sim0[index])
            )

        start = 1
        if self.prefix >= 2 and len(tiers) >= 2 and bool(undecided.any()):
            tier1 = tiers[1]
            stats1 = cascade.tier_stats(1)
            residue = undecided
            matched1 = residue & (jaccard >= tier1.accept)
            rejected1 = residue & (jaccard < tier1.reject)
            if len(tiers) == 2:
                rejected1 = residue & ~matched1
            undecided = residue & ~(matched1 | rejected1)
            stats1.evaluated += int(residue.sum())
            stats1.matched += int(matched1.sum())
            stats1.decided += int(matched1.sum() + rejected1.sum())
            stats1.escalated += int(undecided.sum())
            for index in np.nonzero(matched1)[0]:
                decisions[index] = TierDecision(
                    True, tier1.name, float(jaccard[index])
                )
            for index in np.nonzero(rejected1)[0]:
                decisions[index] = TierDecision(
                    False, tier1.name, float(jaccard[index])
                )
            start = 2

        for index in np.nonzero(undecided)[0]:
            presimilarities = (
                (float(sim0[index]), float(jaccard[index]))
                if start == 2
                else (float(sim0[index]),)
            )
            comparison = comparisons[index]
            decisions[index] = cascade._decide(
                self.store[comparison.i],
                self.store[comparison.j],
                start=start,
                presimilarities=presimilarities,
            )
        return [decision for decision in decisions if decision is not None]
