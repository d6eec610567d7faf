"""Chunk edges: a method hands its emission to the session a ranked
chunk at a time, and nothing a consumer can observe may depend on where
the chunks end.

* Every budget stops exactly where it did when the session handed
  comparisons over one at a time, with the stop at a chunk edge or one
  comparison either side of it: the ``progress()`` tuples and hit
  positions below were recorded on that session for the same
  configurations.
* A ``seconds`` budget is read between hand-outs, never inside one, so
  a run overshoots it by at most one chunk.
* Interleaving ``stream()``, ``next_batch()`` and ``reset()`` across
  chunk edges loses and repeats nothing.
* Streams are the same at any chunk size, on every backend.

The numpy halves skip without numpy; the python halves always run.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import types

import pytest

import repro.core.comparisons as comparisons
from repro import ERPipeline
from repro.datasets import load_dataset
from repro.engine import HAS_NUMPY
from repro.progressive.base import ProgressiveMethod

needs_numpy = pytest.mark.skipif(not HAS_NUMPY, reason="needs numpy")
BACKENDS = ["python", pytest.param("numpy", marks=needs_numpy)]

#: census at scale 0.3: 252 profiles, 103 matches, a 1,341-comparison
#: PPS stream whose initial Comparison List (179 pairs on numpy) is
#: longer than every chunk size below.
census = functools.cache(lambda: load_dataset("census", scale=0.3))

#: Hits of the census PPS stream up to emission 100.
HITS = [*range(1, 23), 24, 25, 48, *range(82, 101)]

#: budget -> (where it stops, progress() as a tuple, hit positions)
STOPS = {
    "comparisons": (100, (100, 44, 44, 103, False), HITS),
    # The 25th of 103 matches is found at emission 48 and reaches it.
    "target_recall": (48, (48, 25, 25, 103, False), HITS[:25]),
}
BUDGETS = {"comparisons": 100, "target_recall": 25 / 103}


def drain(resolver, pull):
    """Everything the session hands out: ``stream()`` for ``pull=None``,
    else ``next_batch(pull)`` until a batch comes back empty."""
    if pull is None:
        return list(resolver.stream())
    out = []
    while batch := resolver.next_batch(pull):
        out += batch
    return out


def progress_of(resolver):
    """``progress()`` without the wall-clock field."""
    return dataclasses.astuple(resolver.progress())[:-1]


@pytest.mark.parametrize("pull", [None, 10, 1000])
@pytest.mark.parametrize("edge", [-1, 0, 1], ids=["after", "at", "before"])
@pytest.mark.parametrize("kind", sorted(STOPS))
@pytest.mark.parametrize("backend", BACKENDS)
def test_budgets_stop_exactly_at_and_around_a_chunk_edge(
    backend, kind, edge, pull, monkeypatch
):
    stop, progress, hits = STOPS[kind]
    # The first chunk ends one before, at, or one after the stop.
    monkeypatch.setattr(comparisons, "CHUNK_SIZE", stop + edge)
    pipeline = ERPipeline().method("PPS").backend(backend)
    resolver = pipeline.budget(**{kind: BUDGETS[kind]}).fit(census())
    assert len(next(resolver.build_method().chunks())) == stop + edge
    assert len(drain(resolver, pull)) == stop
    assert progress_of(resolver) == progress
    assert resolver.partial_curve().hit_positions == hits
    assert resolver.next_batch(5) == []


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_budget_spent_at_a_chunk_edge_computes_no_further_chunk(
    backend, monkeypatch
):
    fetched = []
    chunks = ProgressiveMethod.chunks

    def counted(self):
        for chunk in chunks(self):
            fetched.append(len(chunk))
            yield chunk

    monkeypatch.setattr(ProgressiveMethod, "chunks", counted)
    monkeypatch.setattr(comparisons, "CHUNK_SIZE", 50)
    pipeline = ERPipeline().method("PBS").backend(backend)
    resolver = pipeline.budget(comparisons=100).fit(census())
    assert len(drain(resolver, 10)) == 100
    assert fetched == [50, 50]
    assert not resolver.progress().exhausted


@pytest.mark.parametrize("backend", BACKENDS)
def test_decided_budget_stop_at_a_chunk_edge(backend, monkeypatch):
    monkeypatch.setattr(comparisons, "CHUNK_SIZE", 100)
    resolver = (
        ERPipeline()
        .method("PPS")
        .backend(backend)
        .budget(comparisons=100)
        .match("jaccard", params={"jaccard": {"threshold": 0.3}})
        .fit(census())
    )
    assert len(list(resolver.resolve_stream(decide=True, batch_size=10))) == 100
    assert progress_of(resolver) == (100, 41, 44, 103, False)


@pytest.mark.parametrize("pull", [None, 1000])
@pytest.mark.parametrize("backend", BACKENDS)
def test_seconds_budget_overshoots_by_at_most_one_chunk(backend, pull, monkeypatch):
    """The clock advances one second per chunk the method computes; a
    2.5 s budget admits the two chunks handed out before it ran out and
    refuses the third, whose computation crossed it."""
    now = [0.0]
    monkeypatch.setattr(
        "repro.pipeline.resolver.time",
        types.SimpleNamespace(perf_counter=lambda: now[0]),
    )
    chunks = ProgressiveMethod.chunks

    def ticking(self):
        for chunk in chunks(self):
            now[0] += 1.0
            yield chunk

    monkeypatch.setattr(ProgressiveMethod, "chunks", ticking)
    monkeypatch.setattr(comparisons, "CHUNK_SIZE", 7)
    resolver = (
        ERPipeline().method("PPS").backend(backend).budget(seconds=2.5).fit(census())
    )
    assert len(drain(resolver, pull)) == 2 * 7
    progress = resolver.progress()
    assert progress.emitted == 14 and not progress.exhausted
    assert 2.5 <= progress.elapsed_seconds <= 2.5 + 1.0


@pytest.mark.parametrize("backend", BACKENDS)
def test_interleaved_consumers_lose_and_repeat_nothing(backend, monkeypatch):
    monkeypatch.setattr(comparisons, "CHUNK_SIZE", 7)
    pipeline = ERPipeline().method("PPS").backend(backend)
    full = drain(pipeline.fit(census()), 1000)
    resolver = pipeline.fit(census())
    for _ in range(2):  # the second round after reset()
        seen = []
        stream = resolver.stream()
        seen += itertools.islice(stream, 5)
        seen += resolver.next_batch(4)  # crosses the edge at 7
        seen += itertools.islice(stream, 6)  # and the one at 14
        # A stream abandoned mid-chunk took nothing it did not yield.
        seen += itertools.islice(resolver.stream(), 3)
        seen += resolver.next_batch(1)
        seen += drain(resolver, 9)
        assert seen == full
        assert resolver.progress().emitted == len(full)
        assert resolver.progress().exhausted
        resolver.reset()


STREAMS = {
    "PPS": {},
    "PBS": {},
    "ONLINE": {},
    "GS-PSN": {"max_window": 6},
    "LS-PSN": {"max_window": 4},
}


def stream_of(method, backend):
    pipeline = ERPipeline().method(method, **STREAMS[method])
    if backend == "numpy-parallel":
        pipeline = pipeline.parallel(workers=0, shards=3)
    else:
        pipeline = pipeline.backend(backend)
    return drain(pipeline.fit(census()), 100)


@pytest.mark.parametrize(
    "backend", [*BACKENDS, pytest.param("numpy-parallel", marks=needs_numpy)]
)
@pytest.mark.parametrize("method", sorted(STREAMS))
def test_streams_do_not_depend_on_the_chunk_size(method, backend, monkeypatch):
    default = stream_of(method, backend)
    assert len(default) > 7
    for size in (1, 7):
        monkeypatch.setattr(comparisons, "CHUNK_SIZE", size)
        assert stream_of(method, backend) == default, size


#: restaurant at scale 0.15, the first 40 records fitted, budget 25:
#: the 7 pulled, then the 18 of 10 new records' comparisons the budget
#: admits (recorded, like ``STOPS``, before chunks).
PULLED = [(23, 32), (6, 24), (21, 29), (27, 36), (17, 28), (0, 4), (0, 35)]
INGESTED = [
    (16, 40), (1, 46), (15, 43), (1, 42), (2, 43), (5, 45), (14, 45), (27, 41),
    (27, 43), (39, 46), (1, 49), (8, 47), (37, 49), (3, 47), (5, 41), (7, 46),
    (8, 41), (10, 41),
]  # fmt: skip


@pytest.mark.parametrize("backend", BACKENDS)
def test_ingestion_under_a_budget_that_splits_a_chunk(backend, monkeypatch):
    # The pull of 7 leaves the pending chunk half spent; the ingested
    # batch's comparisons are cut by the budget mid-list.
    monkeypatch.setattr(comparisons, "CHUNK_SIZE", 4)
    data = load_dataset("restaurant", scale=0.15, seed=0)
    records = [list(profile.pairs) for profile in data.store.profiles]
    resolver = (
        ERPipeline()
        .blocking("token", purge=None, filter_ratio=None)
        .incremental()
        .backend(backend)
        .budget(comparisons=25)
        .fit(records[:40], ground_truth=data.ground_truth)
    )
    assert [c.pair for c in resolver.next_batch(7)] == PULLED
    assert [c.pair for c in resolver.add_profiles(records[40:50])] == INGESTED
    assert resolver.next_batch(5) == []
    assert resolver.add_profiles(records[50:52]) == []
    assert progress_of(resolver) == (25, 3, 3, 17, False)
    assert resolver.partial_curve().hit_positions == [1, 2, 8]
