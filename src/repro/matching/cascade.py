"""The cost-escalation matching cascade: the system's decision layer.

The paper decouples progressive *ranking* from the match function
(Section 2); this module supplies the decision side: an ordered list of
match-function **tiers**, cheapest first, where every comparison
short-circuits at the first tier confident enough to decide it and only
the undecided residue escalates to the next (more expensive) tier.

Each tier carries a **confidence band** ``(reject, accept)``:

* ``similarity >= accept``  - decided, a match;
* ``similarity <  reject``  - decided, a non-match;
* anything in between      - escalated to the next tier.

The *last* tier of a cascade always decides (its band collapses to its
threshold), so every comparison gets a decision.  A costly scorer (an
embedding or LLM arbiter, say) is an ordinary
:class:`~repro.matching.match_functions.MatchFunction` tier placed
last: it only ever sees the residue every cheaper tier escalated.

Per-tier counters (evaluated / decided / escalated / matched /
cost_seconds) are exposed through :meth:`MatcherCascade.stats`, so the
"which tier pays off" question is answered by the run itself.

A single :class:`~repro.matching.match_functions.MatchFunction` is the
one-tier cascade ``MatcherCascade([matcher])``, which decides everything
at the matcher's threshold.

>>> cascade = MatcherCascade()
>>> from repro.core.profiles import EntityProfile
>>> a = EntityProfile(0, {"name": "carl white", "city": "ny"})
>>> b = EntityProfile(1, {"fullName": "Carl White", "location": "NY"})
>>> decision = cascade.decide(a, b)
>>> decision.is_match, decision.tier, decision.similarity
(True, 'exact', 1.0)
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Mapping, NamedTuple, Sequence

from repro.core.profiles import EntityProfile
from repro.errors import ConfigError
from repro.matching.match_functions import (
    ExactMatcher,
    JaccardMatcher,
    MatchFunction,
)
from repro.registry import matchers, normalize

#: The stock escalation order: free equality, cheap O(s+t) overlap,
#: expensive O(s*t) edit distance.
DEFAULT_TIERS: tuple[str, ...] = ("exact", "jaccard", "edit-distance")


class TierDecision(NamedTuple):
    """One decided comparison: outcome, deciding tier, its similarity."""

    is_match: bool
    tier: str
    similarity: float


@dataclass
class TierStats:
    """Mutable per-tier counters (see :meth:`MatcherCascade.stats`)."""

    name: str
    evaluated: int = 0
    decided: int = 0
    escalated: int = 0
    matched: int = 0
    cost_seconds: float = 0.0

    def as_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "evaluated": self.evaluated,
            "decided": self.decided,
            "escalated": self.escalated,
            "matched": self.matched,
            "cost_seconds": self.cost_seconds,
        }


@dataclass
class CascadeTier:
    """One resolved tier: a matcher plus its confidence band."""

    name: str
    matcher: MatchFunction
    reject: float
    accept: float


def _default_band(
    matcher: MatchFunction, final: bool
) -> tuple[float, float]:
    """The band a tier gets when none is configured.

    The last tier always decides, so its band collapses to the matcher's
    threshold.  A middle tier keeps a symmetric undecided margin around
    its threshold ``t`` - ``(t/2, (1+t)/2)`` - except normalized
    equality, whose similarity is binary: it confirms equal pairs and
    escalates everything else.
    """
    threshold = float(getattr(matcher, "threshold", 0.5))
    if final:
        return (threshold, threshold)
    if isinstance(matcher, ExactMatcher):
        return (0.0, 1.0)
    return (threshold / 2.0, (1.0 + threshold) / 2.0)


def _as_band(name: str, value: Any) -> tuple[float, float]:
    """A threshold as a checked ``(reject, accept)`` band: a float
    collapses it, a pair is one."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        band = (float(value), float(value))
    elif isinstance(value, (tuple, list)) and len(value) == 2:
        band = (float(value[0]), float(value[1]))
    else:
        raise ConfigError(
            f"threshold for tier {name!r} must be a float or a "
            f"(reject, accept) pair, got {value!r}"
        )
    for label, bound in zip(("reject", "accept"), band):
        if not 0.0 <= bound <= 1.0:
            raise ConfigError(
                f"tier {name!r} {label} bound must be in [0, 1], got {bound!r}"
            )
    if band[0] > band[1]:
        raise ConfigError(
            f"tier {name!r} band has reject {band[0]!r} above accept "
            f"{band[1]!r}; use (reject, accept) with reject <= accept"
        )
    return band


def check_cascade_spec(
    tiers: Sequence[Any],
    thresholds: Mapping[str, Any] | None = None,
    params: Mapping[str, Mapping[str, Any]] | None = None,
) -> tuple[tuple[Any, ...], dict[str, Any], dict[str, dict[str, Any]]]:
    """What a valid cascade spec is - every rule, and no matcher built.

    The one statement :class:`~repro.pipeline.config.MatchConfig` (when
    the spec is written) and :class:`MatcherCascade` (when it is built)
    both call, so a spec the config accepts is a cascade that
    constructs.  Returns the spec normalized, ``(tiers, thresholds,
    params)``: registry names canonical, ``thresholds`` and ``params``
    keyed by the tier's display name, a band a ``(reject, accept)``
    tuple of floats (a single float stays one).
    """
    resolved: list[Any] = []
    for tier in tiers:
        if isinstance(tier, str):
            tier = matchers.canonical(tier)
        elif not isinstance(tier, MatchFunction):
            raise ConfigError(
                "cascade tiers must be matcher registry names or "
                f"MatchFunction instances, got {tier!r}"
            )
        resolved.append(tier)
    names = [tier if isinstance(tier, str) else tier.name for tier in resolved]
    if not names:
        raise ConfigError("a cascade needs at least one tier")
    if len({normalize(name) for name in names}) != len(names):
        raise ConfigError(
            f"duplicate cascade tiers in {names}; each tier may appear once"
        )
    # Every tier takes a band; only a tier given by name is constructed
    # here, so only it takes params.
    banded = {normalize(name): name for name in names}
    by_name = {normalize(tier): tier for tier in resolved if isinstance(tier, str)}
    bands: dict[str, Any] = {}
    for key, value in (thresholds or {}).items():
        name = banded.get(normalize(key))
        if name is None:
            raise ConfigError(
                f"threshold given for unknown tier {key!r}; tiers: {names}"
            )
        band = _as_band(name, value)
        if name == names[-1] and band[0] != band[1]:
            raise ConfigError(
                f"the final tier {name!r} must decide every comparison; use "
                f"a single float threshold, not the band {band!r}"
            )
        bands[name] = band if isinstance(value, (tuple, list)) else value
    tier_params: dict[str, dict[str, Any]] = {}
    for key, value in (params or {}).items():
        name = by_name.get(normalize(key))
        if name is None:
            raise ConfigError(
                f"params given for unknown tier {key!r}; tiers given by "
                f"name: {sorted(by_name.values())}"
            )
        if not isinstance(value, Mapping):
            raise ConfigError(
                f"params for tier {key!r} must be a mapping of constructor "
                f"kwargs, got {value!r}"
            )
        tier_params[name] = dict(value)
    return tuple(resolved), bands, tier_params


class MatcherCascade(MatchFunction):
    """An ordered, short-circuiting list of match-function tiers.

    Parameters
    ----------
    tiers:
        Escalation order, cheapest first.  Each element is a registry
        name (any spelling) or a live :class:`MatchFunction`.  Defaults
        to ``("exact", "jaccard", "edit-distance")``.  A costly scorer
        goes last: it only sees the residue the cheaper tiers escalate.
    thresholds:
        Per-tier band overrides keyed by tier name: a float collapses
        the band (the tier decides everything at that threshold), a
        ``(reject, accept)`` pair sets the undecided margin explicitly.
    params:
        Per-tier constructor kwargs for tiers given by name, keyed by
        tier name (e.g. ``{"jaccard": {"threshold": 0.6}}``).

    A cascade is itself a :class:`MatchFunction`: calling it returns the
    decision, ``similarity`` the deciding tier's score - so cascades
    drop into every seam a single matcher fits.
    """

    name = "cascade"

    def __init__(
        self,
        tiers: Sequence[str | MatchFunction] | None = None,
        *,
        thresholds: Mapping[str, Any] | None = None,
        params: Mapping[str, Mapping[str, Any]] | None = None,
    ) -> None:
        specs, bands, tier_params = check_cascade_spec(
            DEFAULT_TIERS if tiers is None else tiers, thresholds, params
        )
        resolved: list[CascadeTier] = []
        for position, spec in enumerate(specs):
            if isinstance(spec, str):
                name = spec
                matcher = matchers.build(spec, **tier_params.get(spec, {}))
            else:
                name, matcher = spec.name, spec
            band = (
                _as_band(name, bands[name])
                if name in bands
                else _default_band(matcher, position == len(specs) - 1)
            )
            resolved.append(CascadeTier(name, matcher, *band))
        self.tiers: list[CascadeTier] = resolved
        self._stats: list[TierStats] = [TierStats(tier.name) for tier in resolved]

    # -- decision -----------------------------------------------------------

    def decide(self, a: EntityProfile, b: EntityProfile) -> TierDecision:
        """Run the escalation and return the deciding tier's verdict."""
        return self._decide(a, b, start=0)

    def _decide(self, a: EntityProfile, b: EntityProfile, start: int) -> TierDecision:
        """Escalate from tier ``start`` (the batched fast path already
        decided the earlier tiers) until a tier decides; the last one
        always does."""
        last = len(self.tiers) - 1
        position = start
        while True:
            tier = self.tiers[position]
            stats = self._stats[position]
            began = time.perf_counter()
            similarity = tier.matcher.similarity(a, b)
            stats.cost_seconds += time.perf_counter() - began
            stats.evaluated += 1
            is_match = bool(similarity >= tier.accept)
            if is_match or similarity < tier.reject or position == last:
                stats.decided += 1
                stats.matched += is_match
                return TierDecision(is_match, tier.name, similarity)
            stats.escalated += 1
            position += 1

    # -- the MatchFunction contract -----------------------------------------

    def similarity(self, a: EntityProfile, b: EntityProfile) -> float:
        """The deciding tier's similarity (escalation included)."""
        return self.decide(a, b).similarity

    def __call__(self, a: EntityProfile, b: EntityProfile) -> bool:
        return self.decide(a, b).is_match

    # -- counters -----------------------------------------------------------

    def stats(self) -> dict[str, Any]:
        """JSON-able per-tier counters."""
        return {"tiers": [stats.as_dict() for stats in self._stats]}

    def tier_stats(self, position: int) -> TierStats:
        """The mutable counter record of tier ``position`` (batch seam)."""
        return self._stats[position]

    # -- the engine seam ----------------------------------------------------

    def batchable_prefix(self) -> int:
        """How many leading tiers the CSR batch path may evaluate.

        The engine evaluates normalized equality and Jaccard straight
        off the substrate's interned token postings; that is only valid
        for the stock tier implementations (a subclass may compute a
        different similarity).  Returns 0, 1 or 2.
        """
        if not self.tiers or type(self.tiers[0].matcher) is not ExactMatcher:
            return 0
        if len(self.tiers) > 1 and type(self.tiers[1].matcher) is JaccardMatcher:
            return 2
        return 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        names = ", ".join(tier.name for tier in self.tiers)
        return f"MatcherCascade([{names}])"


matchers.register("cascade", MatcherCascade)
