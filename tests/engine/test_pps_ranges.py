"""PPS ranks only the schedule its budget reaches.

The numpy core cuts Algorithm 6's Sorted Profile List into ranges of
about ``ArrayPPSCore.RANGE_BUDGET`` graph-row entries and ranks a range
when a pull reaches it.  Whatever the cut, the stream is the python
reference's, bit for bit; a budget that ends inside the first range
ranks that range alone; and a range's short last chunk is topped up
from the next, so the chunks handed over are full ones.
"""

from __future__ import annotations

import pytest

np = pytest.importorskip("numpy")

import repro.core.comparisons as comparisons  # noqa: E402
from repro import ERPipeline  # noqa: E402
from repro.engine import equality  # noqa: E402
from repro.engine.equality import ArrayPPSCore  # noqa: E402
from repro.progressive import PPS  # noqa: E402
from repro.service.snapshot import stream_digest  # noqa: E402


@pytest.fixture(params=["dirty_dataset", "clean_clean_store"])
def store(request):
    fixture = request.getfixturevalue(request.param)
    return getattr(fixture, "store", fixture)


@pytest.fixture
def ranked(monkeypatch):
    """Every range :func:`pps_schedule` ranks, with its output size."""
    shards: list[tuple[tuple[int, int], int]] = []
    kernel = equality.pps_schedule

    def spy(payload, shard):
        part = kernel(payload, shard)
        shards.append((shard, part[2].size))
        return part

    monkeypatch.setattr(equality, "pps_schedule", spy)
    return shards


def graph_entries(store) -> int:
    method = PPS(store, backend="numpy")
    method.initialize()
    return int(method.scheme.indptr[-1])


def chunk_lengths(total: int) -> list[int]:
    """``total`` comparisons handed over in full chunks."""
    size = comparisons.CHUNK_SIZE
    return [size] * (total // size) + ([total % size] if total % size else [])


#: The exhaustive runs leave work to the tail (at the adaptive K_max the
#: census schedule emits every distinct comparison itself).
TAIL = {"exhaustive": True, "k_max": 2}


@pytest.mark.parametrize("exhaustive", [False, True])
@pytest.mark.parametrize("budget", [1, 7, "default", "whole graph"])
def test_any_range_cut_emits_the_reference_stream(
    store, budget, exhaustive, monkeypatch
):
    if budget == "whole graph":
        budget = graph_entries(store)
    if budget != "default":
        monkeypatch.setattr(ArrayPPSCore, "RANGE_BUDGET", budget)
    kwargs = TAIL if exhaustive else {}
    reference = PPS(store, backend="python", **kwargs)
    ranged = PPS(store, backend="numpy", **kwargs)
    assert stream_digest(ranged) == stream_digest(reference)


def drain(pipeline, store, ranked):
    """Drain a session: it, its stream's length and the ranges ranked."""
    resolver = pipeline.fit(store)
    emitted = len(list(resolver.stream()))
    shards = list(ranked)
    ranked.clear()
    return resolver, emitted, shards


@pytest.mark.parametrize("exhaustive", [False, True])
def test_a_budget_inside_the_first_range_ranks_that_range_alone(
    store, exhaustive, ranked, monkeypatch
):
    monkeypatch.setattr(comparisons, "CHUNK_SIZE", 7)
    monkeypatch.setattr(ArrayPPSCore, "RANGE_BUDGET", graph_entries(store) // 5)
    kwargs = TAIL if exhaustive else {"k_max": 2}
    numpy_pps = ERPipeline().method("PPS", **kwargs).backend("numpy")
    schedule_only = ERPipeline().method("PPS", k_max=2).backend("numpy")
    _, emitted, _ = drain(schedule_only, store, ranked)
    resolver, _, shards = drain(numpy_pps, store, ranked)
    # A drain ranks the whole Sorted Profile List, in consecutive ranges,
    # the first of which fills a chunk on its own.
    bounds = [shard for shard, _ in shards]
    assert len(bounds) > 1
    assert bounds[0][0] == 0
    assert bounds[-1][1] == len(resolver.method.sorted_profile_list)
    assert all(a[1] == b[0] for a, b in zip(bounds, bounds[1:]))
    first = shards[0]
    assert first[1] >= comparisons.CHUNK_SIZE

    # A budget that ends one comparison past the initial list.
    initial = emitted - sum(size for _, size in shards)
    budgeted = numpy_pps.budget(comparisons=initial + 1).fit(store)
    assert len(list(budgeted.stream())) == initial + 1
    assert ranked == [first]


@pytest.mark.parametrize("exhaustive", [False, True])
def test_schedule_chunks_are_full_across_range_edges(
    store, exhaustive, ranked, monkeypatch
):
    monkeypatch.setattr(comparisons, "CHUNK_SIZE", 7)
    monkeypatch.setattr(ArrayPPSCore, "RANGE_BUDGET", 50)
    schedule = [len(chunk) for chunk in PPS(store, k_max=2, backend="numpy").chunks()]
    sizes = [size for _, size in ranked]
    # Several ranges, with edges that fall inside a chunk.
    assert len(sizes) > 1 and any(size % 7 for size in sizes[:-1])
    initial = sum(schedule) - sum(sizes)
    assert schedule == chunk_lengths(initial) + chunk_lengths(sum(sizes))
    if exhaustive:
        method = PPS(store, backend="numpy", **TAIL)
        lengths = [len(chunk) for chunk in method.chunks()]
        # The tail starts after the schedule's own last chunk.
        assert lengths[: len(schedule)] == schedule
        assert len(lengths) > len(schedule)
