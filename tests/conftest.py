"""Shared fixtures: the paper's Figure 3 running example and small stores.

Figure 3a defines six profiles (p1..p6) drawn from a data lake:
p1/p4 relational, p2/p3 RDF, p5/p6 free text.  Ground truth:
p1 = p2 = p3 and p4 = p5.  Token Blocking (Figure 3b) produces
blocks carl{1,2}, ml{4,5}, teacher{4,5}, ny{1,2,3}, tailor{1,2,3,6},
white{1..6}; the ARCS Blocking Graph (Figure 3c) weights, e.g.,
c12 = 1/1 + 1/3 + 1/6 + 1/15 = 1.57 and c45 = 1 + 1 + 1/15 = 2.07.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.core.ground_truth import GroundTruth
from repro.core.profiles import EntityProfile, ERType, ProfileStore
from repro.core import tokenization
from repro.engine import HAS_NUMPY


class SweepCounter:
    """Profiles tokenized, per path: ``tokenizer`` counts
    ``repro.core.tokenization.distinct_profile_tokens`` calls (the python
    backend's sweep, ``token_stream``), ``kernel`` the profiles that
    ``repro.engine.substrate.tokenize_range`` calls covered (the sum of
    ``hi - lo``: the array backends' sweep)."""

    def __init__(self) -> None:
        self.tokenizer = 0
        self.kernel = 0

    def profiles(self, backend: str) -> int:
        """Profiles ``backend``'s sweep tokenized; the other path must
        not have run at all."""
        if backend == "python":
            ours, other = self.tokenizer, self.kernel
        else:
            ours, other = self.kernel, self.tokenizer
        assert other == 0
        return ours


@pytest.fixture()
def sweep_counter(monkeypatch) -> SweepCounter:
    """Counts tokenized profiles on every backend (see SweepCounter)."""
    counter = SweepCounter()
    original = tokenization.distinct_profile_tokens

    def counting(profile):
        counter.tokenizer += 1
        return original(profile)

    monkeypatch.setattr(tokenization, "distinct_profile_tokens", counting)
    if HAS_NUMPY:
        from repro.engine import substrate

        kernel = substrate.tokenize_range

        def counting_kernel(payload, shard):
            lo, hi = shard
            counter.kernel += hi - lo
            return kernel(payload, shard)

        monkeypatch.setattr(substrate, "tokenize_range", counting_kernel)
    return counter


class CountingStore(ProfileStore):
    """A ProfileStore that counts how often each profile is read, by
    ``store[i]`` or by iteration: ``reads[i]`` for profile ``i``."""

    def __init__(self, profiles, er_type: ERType = ERType.DIRTY) -> None:
        super().__init__(profiles, er_type)
        self.reads: Counter[int] = Counter()

    def __getitem__(self, profile_id: int) -> EntityProfile:
        self.reads[profile_id] += 1
        return super().__getitem__(profile_id)

    def __iter__(self):
        for profile in super().__iter__():
            self.reads[profile.profile_id] += 1
            yield profile


@pytest.fixture()
def counting_store():
    """Builds a :class:`CountingStore` from attribute maps."""

    def build(records) -> CountingStore:
        plain = ProfileStore.from_attribute_maps(records)
        return CountingStore(plain.profiles, plain.er_type)

    return build


@pytest.fixture()
def paper_profiles() -> ProfileStore:
    """The six profiles of Figure 3a (token sets match the paper exactly)."""
    profiles = [
        # p1 - relational record
        EntityProfile(0, {"Name": "Carl", "Surname": "White",
                          "Profession": "Tailor", "City": "NY"}),
        # p2 - RDF resource :Carl_White
        EntityProfile(1, [("about", "Carl_White"), ("livesIn", "NY"),
                          ("workAs", "Tailor")]),
        # p3 - RDF resource :Karl_White
        EntityProfile(2, [("about", "Karl_White"), ("loc", "NY"),
                          ("job", "Tailor")]),
        # p4 - relational record
        EntityProfile(3, {"Name": "Ellen", "Surname": "White",
                          "Profession": "Teacher", "City": "ML"}),
        # p5 - free text
        EntityProfile(4, {"text": "Hellen White, ML teacher"}),
        # p6 - free text
        EntityProfile(5, {"text": "Emma White, WI Tailor"}),
    ]
    return ProfileStore(profiles, ERType.DIRTY)


@pytest.fixture()
def paper_ground_truth() -> GroundTruth:
    """p1 = p2 = p3 and p4 = p5 (ids 0,1,2 and 3,4)."""
    return GroundTruth.from_clusters([(0, 1, 2), (3, 4)])


@pytest.fixture()
def tiny_clean_clean() -> ProfileStore:
    """A 3-vs-3 Clean-clean store with two obvious cross-source matches."""
    left = [
        {"title": "alpha beta", "year": "1999"},
        {"title": "gamma delta", "year": "2001"},
        {"title": "epsilon zeta", "year": "2005"},
    ]
    right = [
        {"name": "alpha beta", "released": "1999"},
        {"name": "gamma delta", "released": "2001"},
        {"name": "unrelated thing", "released": "1987"},
    ]
    return ProfileStore.clean_clean(left, right)


@pytest.fixture()
def tiny_clean_clean_truth() -> GroundTruth:
    """Matches for :func:`tiny_clean_clean`: (0,3) and (1,4)."""
    return GroundTruth([(0, 3), (1, 4)], closed=False)
