"""Cascade acceptance properties across the execution backends.

Three contracts from the decision-layer refactor:

* **Ranking is untouched**: with no ``.match()`` stage the ranked
  stream is bit-identical to a decide-enabled run's comparison stream
  (digest-asserted) - the decision layer rides the stream, it never
  reorders it.
* **Decision parity**: the decision stream (pair, outcome, tier,
  similarity) is identical across {python, numpy, numpy-parallel
  shards 1/2/3}, on Dirty and Clean-clean ER alike - the batched
  tier-0/tier-1 fast path is a bit-identical replica of the pure
  loop.
* **Zero re-tokenization**: the engine batch path serves both cheap
  tiers from the substrate's single sweep (the ``sweep_counter``
  fixture counts each profile once, and no tokenizer call besides).
"""

from __future__ import annotations

import random
import time

import pytest

from repro.core.profiles import ProfileStore
from repro.engine import HAS_NUMPY
from repro.pipeline import ERPipeline
from repro.service.snapshot import stream_digest

BACKENDS = ["python"] + (["numpy"] if HAS_NUMPY else [])

WORDS = [
    "ada", "bell", "curie", "darwin", "euler",
    "fermi", "gauss", "hopper", "kepler", "noether",
]  # fmt: skip


def dirty_records(n: int = 50, seed: int = 23) -> list[dict[str, str]]:
    """A Dirty ER corpus: duplicates are light corruptions in-place."""
    rng = random.Random(seed)
    records = []
    for k in range(n):
        record = {
            "name": " ".join(rng.sample(WORDS, 3)),
            "year": str(1900 + rng.randrange(0, 25)),
        }
        records.append(record)
        if k % 4 == 0:  # a duplicate with one token swapped
            dup = dict(record)
            dup["name"] = record["name"].rsplit(" ", 1)[0] + " " + rng.choice(WORDS)
            records.append(dup)
    return records


def clean_clean_store(seed: int = 7) -> ProfileStore:
    rng = random.Random(seed)

    def record(k: int) -> dict[str, str]:
        return {
            "title": " ".join(rng.sample(WORDS, 3)),
            "year": str(1990 + k % 15),
        }

    left = [record(k) for k in range(30)]
    right = [
        dict(item, extra=WORDS[k % len(WORDS)])
        for k, item in enumerate(left[:20])
    ] + [record(k + 100) for k in range(10)]
    return ProfileStore.clean_clean(left, right)


def decide_pipeline(backend: str, shards: int | None = None) -> ERPipeline:
    pipeline = (
        ERPipeline()
        .method("PPS")
        .match(thresholds={"jaccard": (0.3, 0.8)})
        .backend(backend)
    )
    if backend == "numpy-parallel":
        pipeline = pipeline.parallel(workers=0, shards=shards or 2)
    return pipeline


def decision_rows(resolver) -> list[tuple]:
    return [
        (r.comparison.i, r.comparison.j, r.comparison.weight,
         r.decision, r.tier, r.similarity)  # fmt: skip
        for r in resolver.resolve_stream(decide=True)
    ]


@pytest.fixture(params=["dirty", "clean-clean"])
def corpus(request):
    if request.param == "dirty":
        return dirty_records()
    return clean_clean_store()


def stream_digest_from_rows(rows: list[tuple]) -> str:
    from repro.core.comparisons import Comparison

    return stream_digest(
        Comparison(i, j, weight) for i, j, weight, _, _, _ in rows
    )


class TestRankingIsUntouched:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_decide_stream_preserves_the_ranked_stream(self, corpus, backend):
        plain = ERPipeline().method("PPS").backend(backend).fit(corpus)
        baseline = stream_digest(plain.stream())
        decided = decide_pipeline(backend).fit(corpus)
        rows = decision_rows(decided)
        assert rows, "the decide stream must emit"
        assert stream_digest_from_rows(rows) == baseline


class TestDecisionParity:
    def test_python_and_numpy_decide_identically(self, corpus):
        if not HAS_NUMPY:
            pytest.skip("numpy backends unavailable")
        reference = decision_rows(decide_pipeline("python").fit(corpus))
        assert decision_rows(decide_pipeline("numpy").fit(corpus)) == reference

    @pytest.mark.parametrize("shards", [1, 2, 3])
    def test_sharded_backend_decides_identically(self, corpus, shards):
        if not HAS_NUMPY:
            pytest.skip("numpy backends unavailable")
        reference = decision_rows(decide_pipeline("python").fit(corpus))
        sharded = decide_pipeline("numpy-parallel", shards=shards).fit(corpus)
        assert decision_rows(sharded) == reference

    def test_tier_counters_match_across_backends(self, corpus):
        if not HAS_NUMPY:
            pytest.skip("numpy backends unavailable")

        def counters(backend: str) -> list[dict]:
            resolver = decide_pipeline(backend).fit(corpus)
            list(resolver.resolve_stream(decide=True))
            return [
                {k: v for k, v in tier.items() if k != "cost_seconds"}
                for tier in resolver.cascade_stats()["tiers"]
            ]

        assert counters("numpy") == counters("python")

    def test_numpy_books_each_batched_tier(self, corpus):
        """The jaccard tier's cost used to read a constant 0.0 on the
        vectorised path: only the shared overlap pass was booked, on
        tier 0."""
        if not HAS_NUMPY:
            pytest.skip("numpy backends unavailable")
        resolver = decide_pipeline("numpy").fit(corpus)
        began = time.perf_counter()
        records = list(resolver.resolve_stream(decide=True))
        elapsed = time.perf_counter() - began
        tiers = resolver.cascade_stats()["tiers"]
        assert any(record.tier == "jaccard" for record in records)
        assert tiers[0]["cost_seconds"] > 0
        assert tiers[1]["cost_seconds"] > 0
        assert sum(tier["cost_seconds"] for tier in tiers) <= elapsed


class TestZeroRetokenization:
    def test_batch_path_decides_off_the_single_sweep(self, sweep_counter):
        if not HAS_NUMPY:
            pytest.skip("numpy backends unavailable")
        records = dirty_records()
        resolver = decide_pipeline("numpy").fit(records)
        rows = decision_rows(resolver)
        assert rows
        # The batched tier-0/tier-1 path engaged and decided every
        # emitted comparison without re-tokenizing a single profile.
        assert resolver._batcher is not None and resolver._batcher.eligible
        assert sweep_counter.profiles("numpy") == len(resolver.store)

    def test_python_reference_also_stays_single_sweep(self, sweep_counter):
        # The pure loop tokenizes through the matchers' own
        # ``profile_tokens`` calls; assert it decides the same number of comparisons as
        # emitted, i.e. no comparison is silently dropped.
        records = dirty_records()
        resolver = decide_pipeline("python").fit(records)
        emitted = len(decision_rows(resolver))
        plain = ERPipeline().method("PPS").backend("python").fit(records)
        assert emitted == sum(1 for _ in plain.stream())
