"""Match functions: the binary deciders applied to emitted comparisons.

Progressive methods are decoupled from the match function (Section 2: no
transitivity or perfection is assumed).  A match function here is a
callable ``(profile_a, profile_b) -> bool``; the classes also expose
``similarity`` for callers that want the raw score.

For the timing experiments the paper runs the real similarity computation
but takes the *decision* from the ground truth (Section 7.3, footnote 10);
:class:`OracleMatcher` with a ``cost_model`` reproduces exactly that.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

from repro.core.ground_truth import GroundTruth
from repro.core.profiles import EntityProfile
from repro.core.tokenization import profile_tokens
from repro.matching.edit_distance import edit_similarity
from repro.matching.jaccard import jaccard
from repro.registry import matchers


class MatchFunction(ABC):
    """A binary match decider over two entity profiles."""

    name: str = "abstract"

    @abstractmethod
    def similarity(self, a: EntityProfile, b: EntityProfile) -> float:
        """Similarity score in [0, 1] of the two profiles' text views."""

    @abstractmethod
    def __call__(self, a: EntityProfile, b: EntityProfile) -> bool:
        """The match decision."""


class ExactMatcher(MatchFunction):
    """Normalized equality: the free tier-0 of the matching cascade.

    Two profiles are "exactly" equal when their token multiset views
    normalize to the same token set - case, punctuation, attribute names
    and token order are all ignored.  Similarity is binary (1.0 or 0.0),
    so the matcher confirms equal pairs for free and says nothing useful
    about unequal ones; in a cascade everything unequal escalates.
    """

    name = "exact"

    def __init__(self) -> None:
        self.threshold = 1.0

    def similarity(self, a: EntityProfile, b: EntityProfile) -> float:
        equal = frozenset(profile_tokens(a)) == frozenset(profile_tokens(b))
        return 1.0 if equal else 0.0

    def __call__(self, a: EntityProfile, b: EntityProfile) -> bool:
        return self.similarity(a, b) >= self.threshold


class EditDistanceMatcher(MatchFunction):
    """Thresholded normalized edit distance over the profile text.

    The expensive match function of Section 7.3.  The similarity is
    always ``1 - d / longest`` with ``d`` the exact distance (no bound
    is passed down): it is part of every decided record.  See
    :mod:`repro.matching.edit_distance` for what a pair costs.
    """

    name = "ED"

    def __init__(self, threshold: float = 0.8) -> None:
        if not 0.0 <= threshold <= 1.0:
            raise ValueError("threshold must be in [0, 1]")
        self.threshold = threshold

    def similarity(self, a: EntityProfile, b: EntityProfile) -> float:
        return edit_similarity(a.text(), b.text())

    def __call__(self, a: EntityProfile, b: EntityProfile) -> bool:
        return self.similarity(a, b) >= self.threshold


class JaccardMatcher(MatchFunction):
    """Thresholded Jaccard over profile tokens - the cheap O(s+t) function."""

    name = "JS"

    def __init__(self, threshold: float = 0.5) -> None:
        if not 0.0 <= threshold <= 1.0:
            raise ValueError("threshold must be in [0, 1]")
        self.threshold = threshold

    def similarity(self, a: EntityProfile, b: EntityProfile) -> float:
        return jaccard(profile_tokens(a), profile_tokens(b))

    def __call__(self, a: EntityProfile, b: EntityProfile) -> bool:
        return self.similarity(a, b) >= self.threshold


class OracleMatcher(MatchFunction):
    """Ground-truth decisions, optionally paying a real similarity cost.

    ``cost_model`` is another match function whose similarity is computed
    and discarded - reproducing the paper's timing protocol where the
    match function runs but its outcome is overridden by the ground truth.
    """

    name = "oracle"

    def __init__(
        self, ground_truth: GroundTruth, cost_model: MatchFunction | None = None
    ) -> None:
        self.ground_truth = ground_truth
        self.cost_model = cost_model

    def similarity(self, a: EntityProfile, b: EntityProfile) -> float:
        if self.cost_model is not None:
            self.cost_model.similarity(a, b)  # paid, then discarded
        is_match = self.ground_truth.is_match(a.profile_id, b.profile_id)
        return 1.0 if is_match else 0.0

    def __call__(self, a: EntityProfile, b: EntityProfile) -> bool:
        if self.cost_model is not None:
            self.cost_model.similarity(a, b)  # paid, then discarded
        return self.ground_truth.is_match(a.profile_id, b.profile_id)


matchers.register("exact", ExactMatcher)
matchers.register("edit-distance", EditDistanceMatcher, aliases=("ED",))
matchers.register("jaccard", JaccardMatcher, aliases=("JS",))
matchers.register("oracle", OracleMatcher)
