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
threshold), so every comparison gets a decision.  An optional
``expensive`` hook - any ``(a, b) -> float`` scorer, e.g. an embedding
or LLM arbiter - runs as the final tier behind a call budget; when the
budget is spent the cascade either falls back to the previous tier's
threshold (batch default) or refuses with
:class:`~repro.errors.BudgetExceeded` ``reason="expensive-calls"`` (the
serving layer's admission-control mode).

Per-tier counters (evaluated / decided / escalated / matched /
cost_seconds) are exposed through :meth:`MatcherCascade.stats`, so the
"which tier pays off" question is answered by the run itself.

A plain :class:`~repro.matching.match_functions.MatchFunction` keeps
working unchanged: :meth:`MatcherCascade.from_matcher` wraps it as a
single-tier cascade that decides everything at the matcher's threshold.

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
from typing import Any, Callable, Mapping, NamedTuple, Sequence

from repro.core.profiles import EntityProfile
from repro.errors import BudgetExceeded, ConfigError
from repro.matching.match_functions import (
    ExactMatcher,
    JaccardMatcher,
    MatchFunction,
)
from repro.registry import matchers, normalize

#: The stock escalation order: free equality, cheap O(s+t) overlap,
#: expensive O(s*t) edit distance.
DEFAULT_TIERS: tuple[str, ...] = ("exact", "jaccard", "edit-distance")

#: ``exhausted=`` modes for a spent expensive budget.
EXHAUSTED_MODES = ("fallback", "error")

#: Anything accepted as an expensive hook: a match function, or a bare
#: ``(a, b) -> float`` scorer.
ExpensiveHook = Callable[[EntityProfile, EntityProfile], float]


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


class _ExpensiveHookTier(MatchFunction):
    """Adapter presenting a bare ``(a, b) -> float`` scorer as a tier."""

    name = "expensive"

    def __init__(self, hook: ExpensiveHook, threshold: float) -> None:
        self.hook = hook
        self.threshold = threshold

    def similarity(self, a: EntityProfile, b: EntityProfile) -> float:
        return float(self.hook(a, b))

    def __call__(self, a: EntityProfile, b: EntityProfile) -> bool:
        return self.similarity(a, b) >= self.threshold


@dataclass
class CascadeTier:
    """One resolved tier: a matcher plus its confidence band."""

    name: str
    matcher: MatchFunction
    reject: float
    accept: float
    expensive: bool = False

    def band(self) -> tuple[float, float]:
        return (self.reject, self.accept)


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
    expensive: Any = None,
    expensive_budget: int | None = None,
    params: Mapping[str, Mapping[str, Any]] | None = None,
    exhausted: str = "fallback",
) -> tuple[tuple[Any, ...], dict[str, Any], Any, dict[str, dict[str, Any]]]:
    """What a valid cascade spec is - every rule, and no matcher built.

    The one statement :class:`~repro.pipeline.config.MatchConfig` (when
    the spec is written) and :class:`MatcherCascade` (when it is built)
    both call, so a spec the config accepts is a cascade that
    constructs.  Returns the spec normalized, ``(tiers, thresholds,
    expensive, params)``: registry names canonical, ``thresholds`` and
    ``params`` keyed by the tier's display name, a band a ``(reject,
    accept)`` tuple of floats (a single float stays one).
    """
    if exhausted not in EXHAUSTED_MODES:
        raise ConfigError(
            f"exhausted must be one of {EXHAUSTED_MODES}, got {exhausted!r}"
        )
    resolved: list[Any] = []
    for tier in tiers:
        if isinstance(tier, str):
            tier = matchers.canonical(tier)
        elif isinstance(tier, CascadeTier):
            _as_band(tier.name, tier.band())
        elif not isinstance(tier, MatchFunction):
            raise ConfigError(
                "cascade tiers must be matcher registry names, MatchFunction "
                f"instances or CascadeTier objects, got {tier!r}"
            )
        resolved.append(tier)
    names = [tier if isinstance(tier, str) else tier.name for tier in resolved]
    # A pre-built CascadeTier carries its own band, so thresholds address
    # the other tiers; only a tier given by name is constructed here, so
    # only it takes params.
    banded = {
        normalize(name): name
        for name, tier in zip(names, resolved)
        if not isinstance(tier, CascadeTier)
    }
    by_name = {normalize(tier): tier for tier in resolved if isinstance(tier, str)}
    if isinstance(expensive, str):
        expensive = matchers.canonical(expensive)
    elif expensive is not None and not callable(expensive):
        raise ConfigError(
            "expensive must be a matcher registry name, a MatchFunction or "
            f"a (a, b) -> float callable, got {expensive!r}"
        )
    if expensive is not None:
        names.append("expensive")
        banded[normalize("expensive")] = "expensive"
    if not names:
        raise ConfigError("a cascade needs at least one tier")
    if len({normalize(name) for name in names}) != len(names):
        raise ConfigError(
            f"duplicate cascade tiers in {names}; each tier may appear once"
        )
    if expensive_budget is not None:
        if expensive is None:
            raise ConfigError("expensive_budget given without an expensive hook")
        if (
            not isinstance(expensive_budget, int)
            or isinstance(expensive_budget, bool)
            or expensive_budget < 0
        ):
            raise ConfigError(
                f"expensive_budget must be an int >= 0, got {expensive_budget!r}"
            )
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
    return tuple(resolved), bands, expensive, tier_params


class MatcherCascade(MatchFunction):
    """An ordered, short-circuiting list of match-function tiers.

    Parameters
    ----------
    tiers:
        Escalation order, cheapest first.  Each element is a registry
        name (any spelling), a live :class:`MatchFunction`, or a
        pre-built :class:`CascadeTier`.  Defaults to
        ``("exact", "jaccard", "edit-distance")``.
    thresholds:
        Per-tier band overrides keyed by tier name (plus
        ``"expensive"``): a float collapses the band (the tier decides
        everything at that threshold), a ``(reject, accept)`` pair sets
        the undecided margin explicitly.
    expensive:
        Optional final arbiter: a registry name, a
        :class:`MatchFunction`, or any ``(a, b) -> float`` callable.
    expensive_budget:
        Cap on expensive-hook invocations (``None`` - unlimited,
        ``0`` - the hook never runs).
    exhausted:
        What a spent budget does: ``"fallback"`` (default) decides the
        residue at the previous tier's accept threshold;
        ``"error"`` raises :class:`~repro.errors.BudgetExceeded` with
        ``reason="expensive-calls"`` - the serving layer's admission
        semantics.
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
        tiers: Sequence[str | MatchFunction | CascadeTier] | None = None,
        *,
        thresholds: Mapping[str, Any] | None = None,
        expensive: str | MatchFunction | ExpensiveHook | None = None,
        expensive_budget: int | None = None,
        exhausted: str = "fallback",
        params: Mapping[str, Mapping[str, Any]] | None = None,
    ) -> None:
        specs, bands, expensive, tier_params = check_cascade_spec(
            DEFAULT_TIERS if tiers is None else tiers,
            thresholds,
            expensive,
            expensive_budget,
            params,
            exhausted,
        )
        self.expensive_budget = expensive_budget
        self.exhausted = exhausted
        self.expensive_calls = 0
        self.budget_fallbacks = 0
        resolved: list[CascadeTier] = []
        for position, spec in enumerate(specs):
            if isinstance(spec, CascadeTier):
                resolved.append(spec)
                continue
            if isinstance(spec, str):
                name = spec
                matcher = matchers.build(spec, **tier_params.get(spec, {}))
            else:
                name, matcher = spec.name, spec
            final = position == len(specs) - 1 and expensive is None
            band = (
                _as_band(name, bands[name])
                if name in bands
                else _default_band(matcher, final)
            )
            resolved.append(CascadeTier(name, matcher, *band))
        if expensive is not None:
            threshold = (
                _as_band("expensive", bands["expensive"])[1]
                if "expensive" in bands
                else None
            )
            if isinstance(expensive, str):
                matcher = matchers.build(expensive)
            elif isinstance(expensive, MatchFunction):
                matcher = expensive
            else:
                matcher = _ExpensiveHookTier(
                    expensive, 0.5 if threshold is None else threshold
                )
            if threshold is None:
                threshold = float(getattr(matcher, "threshold", 0.5))
            resolved.append(
                CascadeTier(
                    "expensive", matcher, threshold, threshold, expensive=True
                )
            )
        self.tiers: list[CascadeTier] = resolved
        self._stats: list[TierStats] = [
            TierStats(tier.name) for tier in resolved
        ]

    @classmethod
    def from_matcher(cls, matcher: MatchFunction) -> "MatcherCascade":
        """Wrap a plain match function as a single-tier cascade.

        The migration path for pre-cascade callables: the tier decides
        every comparison at the matcher's own threshold, so the wrapped
        cascade's decisions equal ``matcher(a, b)`` exactly.
        """
        if isinstance(matcher, MatcherCascade):
            return matcher
        return cls(tiers=[matcher])

    # -- decision -----------------------------------------------------------

    def decide(self, a: EntityProfile, b: EntityProfile) -> TierDecision:
        """Run the escalation and return the deciding tier's verdict."""
        return self._decide(a, b, start=0, presimilarities=())

    def _decide(
        self,
        a: EntityProfile,
        b: EntityProfile,
        start: int,
        presimilarities: Sequence[float],
    ) -> TierDecision:
        """Escalate from tier ``start``; earlier tiers' similarities (the
        batched fast path already evaluated them) come via
        ``presimilarities`` so the budget fallback can reuse them without
        re-counting their cost."""
        previous_sim = presimilarities[-1] if presimilarities else 0.0
        previous_accept = (
            self.tiers[start - 1].accept if start > 0 else 1.0
        )
        for position in range(start, len(self.tiers)):
            tier = self.tiers[position]
            stats = self._stats[position]
            final = position == len(self.tiers) - 1
            if tier.expensive and not self._admit_expensive():
                return self._fallback(previous_sim, previous_accept, position)
            began = time.perf_counter()
            similarity = tier.matcher.similarity(a, b)
            stats.cost_seconds += time.perf_counter() - began
            stats.evaluated += 1
            if tier.expensive:
                self.expensive_calls += 1
            if similarity >= tier.accept:
                stats.decided += 1
                stats.matched += 1
                return TierDecision(True, tier.name, similarity)
            if similarity < tier.reject or final:
                stats.decided += 1
                return TierDecision(False, tier.name, similarity)
            stats.escalated += 1
            previous_sim, previous_accept = similarity, tier.accept
        # Unreachable for a well-formed cascade (the final tier always
        # decides); defend against an empty escalation range.
        return TierDecision(previous_sim >= previous_accept, "cascade", previous_sim)

    def _admit_expensive(self) -> bool:
        budget = self.expensive_budget
        return budget is None or self.expensive_calls < budget

    def _fallback(
        self, previous_sim: float, previous_accept: float, position: int
    ) -> TierDecision:
        if self.exhausted == "error":
            raise BudgetExceeded(
                f"cascade expensive-tier budget of {self.expensive_budget} "
                "calls is spent",
                reason="expensive-calls",
            )
        self.budget_fallbacks += 1
        tier_name = (
            self.tiers[position - 1].name if position > 0 else "expensive"
        )
        stats = self._stats[position - 1] if position > 0 else self._stats[0]
        stats.escalated -= 1
        stats.decided += 1
        is_match = previous_sim >= previous_accept
        if is_match:
            stats.matched += 1
        return TierDecision(is_match, tier_name, previous_sim)

    # -- the MatchFunction contract -----------------------------------------

    def similarity(self, a: EntityProfile, b: EntityProfile) -> float:
        """The deciding tier's similarity (escalation included)."""
        return self.decide(a, b).similarity

    def __call__(self, a: EntityProfile, b: EntityProfile) -> bool:
        return self.decide(a, b).is_match

    # -- counters -----------------------------------------------------------

    def stats(self) -> dict[str, Any]:
        """JSON-able per-tier counters plus the expensive-budget state."""
        return {
            "tiers": [stats.as_dict() for stats in self._stats],
            "expensive_calls": self.expensive_calls,
            "expensive_budget": self.expensive_budget,
            "budget_fallbacks": self.budget_fallbacks,
        }

    def reset_stats(self) -> None:
        """Zero every counter (the expensive budget starts over too)."""
        self._stats = [TierStats(tier.name) for tier in self.tiers]
        self.expensive_calls = 0
        self.budget_fallbacks = 0

    def tier_stats(self, position: int) -> TierStats:
        """The mutable counter record of tier ``position`` (batch seam)."""
        return self._stats[position]

    # -- the engine seam ----------------------------------------------------

    def batchable_prefix(self) -> int:
        """How many leading tiers the CSR batch path may evaluate.

        The engine evaluates normalized equality and Jaccard straight
        off the substrate's interned token postings; that is only valid
        for the stock tier implementations over the default tokenizer
        (anything else computes a different similarity).  Returns 0, 1
        or 2.
        """
        from repro.core.tokenization import DEFAULT_TOKENIZER

        if not self.tiers:
            return 0
        first = self.tiers[0].matcher
        if not (
            type(first) is ExactMatcher
            and first.tokenizer is DEFAULT_TOKENIZER
        ):
            return 0
        if len(self.tiers) > 1:
            second = self.tiers[1].matcher
            if (
                type(second) is JaccardMatcher
                and second.tokenizer is DEFAULT_TOKENIZER
            ):
                return 2
        return 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        names = ", ".join(tier.name for tier in self.tiers)
        return f"MatcherCascade([{names}])"


matchers.register("cascade", MatcherCascade)
