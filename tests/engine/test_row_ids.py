"""The Blocking Graph's rows keep their ids at 32 bits; pairs leave at 64.

``neighbors`` and ``encounter`` hold values below ``n`` and |E|, so the
graph stores them at :func:`repro.engine.weights.row_dtype` - ``int32``
below ``2**31`` profiles and expanded events.  Everything that leaves
the graph as a pair is ``int64``: a caller packs ``i * n + j``, and
under NumPy's promotion rules an ``int32`` array times a Python int
stays ``int32``, which wraps once ``n > 46,341``.  The guard below runs
the three whole-graph consumers past that size against digests of the
all-``int64`` rows.  Its pruned case runs sharded: the pruning kernels'
owner ranges are cut from ``owner * n + other`` keys, so an ``int32``
pair out of :meth:`~repro.engine.weights.ArrayBlockingGraph.edges`
changes that stream (one range re-sorts by owner and hides it).
"""

from __future__ import annotations

import itertools
import tracemalloc

import pytest

np = pytest.importorskip("numpy")

from repro import ERPipeline  # noqa: E402
from repro.blocking.substrate import SubstrateSpec  # noqa: E402
from repro.core.profiles import ProfileStore  # noqa: E402
from repro.datasets import Dataset  # noqa: E402
from repro.datasets.synthetic import generate_synthetic  # noqa: E402
from repro.engine import NumpyBackend  # noqa: E402
from repro.engine.equality import ArrayPPSCore  # noqa: E402
from repro.engine.weights import ArrayBlockingGraph, row_dtype  # noqa: E402
from repro.progressive import PPS  # noqa: E402
from repro.registry import progressive_methods  # noqa: E402
from repro.service.snapshot import stream_digest  # noqa: E402


def test_row_dtype_switches_at_two_to_the_31():
    limit = 2**31
    tracemalloc.start()
    try:
        assert row_dtype(limit - 1, limit - 1) == np.int32
        assert row_dtype(limit, 0) == np.int64
        assert row_dtype(0, limit) == np.int64
        assert row_dtype(limit - 1, limit) == np.int64
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4096  # decided from the two counts, no array built


@pytest.mark.parametrize("storage", ["ram", "memmap"])
def test_rows_are_32_bit_and_pairs_leave_at_64(dirty_dataset, storage, tmp_path):
    backend = NumpyBackend(storage=storage, storage_dir=str(tmp_path))
    try:
        index = backend.profile_index(
            backend.blocking_substrate(dirty_dataset.store, SubstrateSpec())
        )
        graph = backend.blocking_graph(index, "ECBS")
        assert graph.neighbors.dtype == np.int32
        assert graph.encounter.dtype == np.int32
        assert graph.indptr.dtype == np.int64
        assert graph.raw.dtype == graph.weights.dtype == np.float64
        i, j, _ = graph.edges()
        assert i.size and i.dtype == j.dtype == np.int64
        core = ArrayPPSCore(index, graph, None)
        core.init_lists()
        top_i, top_j, _ = core._top
        assert top_i.dtype == top_j.dtype == np.int64
        for part_i, part_j, _ in core._schedule_ranges(core.k_max):
            assert part_i.dtype == part_j.dtype == np.int64
    finally:
        backend.close()


#: Streams of a 50,000-profile synthetic store (seed 0) recorded on
#: all-int64 rows: ``(comparisons, stream_digest)``.
PAST_46341 = {
    "PPS-exhaustive": (427_611, "11b7e066eb42438c64ba3800a4bb7471"),
    "ONLINE": (391_806, "acb7904b223563fcc477aa327e2a7ba3"),
    "PBS+CNP": (161_102, "21f8c7ce199bca1158a420b86448afba"),
}


@pytest.fixture(scope="module")
def store_past_46341():
    data = generate_synthetic(n_profiles=50_000, seed=0)
    store = ProfileStore(list(data.store), data.store.er_type)
    return Dataset("", store, data.ground_truth)


def drained(chunks):
    return list(itertools.chain.from_iterable(chunks))


@pytest.mark.parametrize("case", sorted(PAST_46341))
def test_pairs_do_not_wrap_past_46341_profiles(store_past_46341, case):
    store = store_past_46341.store
    if case == "PPS-exhaustive":
        stream = drained(PPS(store, backend=NumpyBackend(), exhaustive=True).chunks())
    elif case == "ONLINE":
        method = progressive_methods.build("ONLINE", store, backend=NumpyBackend())
        stream = drained(method.chunks())
    else:
        pipeline = ERPipeline().parallel(workers=0, shards=3)
        pipeline = pipeline.meta("ARCS", pruning="CNP")
        stream = list(pipeline.method("PBS").fit(store_past_46341).stream())
    assert max(comparison.i for comparison in stream) > 46_341
    assert (len(stream), stream_digest(stream)) == PAST_46341[case]
