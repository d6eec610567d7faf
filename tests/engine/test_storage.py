"""Array storage: the two stores, ArrayStore lifecycle, out-of-core sort, parity.

Three layers are pinned here:

* the store primitives (:data:`RAM` and :class:`ArrayStore`'s
  ``zeros`` and ``transpose``, :class:`SpillWriter`,
  :func:`stable_group_scatter`) against their stable-sort references;
* bit-identical CSR structures between ``storage="ram"`` and
  ``storage="memmap"`` on the numpy backend;
* the temp-file lifecycle: scratch directories are reclaimed on
  ``close()``, on garbage collection, on ``Resolver.close()`` and after
  a worker crash - never leaked.
"""

from __future__ import annotations

import gc
import itertools
import os
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

np = pytest.importorskip("numpy")

from repro.blocking.substrate import SubstrateSpec  # noqa: E402
from repro.engine import NumpyBackend  # noqa: E402
from repro.engine.storage import (  # noqa: E402
    RAM,
    ArrayStore,
    group_sizes,
    stable_group_scatter,
)
from repro.engine.substrate import ArraySubstrate  # noqa: E402
from repro.engine.weights import ArrayBlockingGraph  # noqa: E402
from repro.progressive import PPS  # noqa: E402

SCHEMES = ["ARCS", "CBS", "ECBS", "JS", "EJS"]
ROW_NAMES = ["indptr", "neighbors", "raw", "weights", "encounter"]


class TestArrayStore:
    def test_directory_is_lazy_and_scoped(self, tmp_path):
        store = ArrayStore(dir=str(tmp_path))
        assert store.path is None
        assert store.file_count() == 0
        array = store.empty(5, np.int64)
        assert isinstance(array, np.memmap)
        assert store.path is not None
        assert os.path.dirname(store.path) == str(tmp_path)
        assert os.path.basename(store.path).startswith("repro-storage-")
        array[:] = np.arange(5)
        assert store.file_count() == 1
        store.close()

    def test_empty_accepts_int_and_tuple_shapes(self, tmp_path):
        store = ArrayStore(dir=str(tmp_path))
        flat = store.empty(4, np.float64)
        square = store.empty((2, 3), np.int64)
        assert flat.shape == (4,)
        assert square.shape == (2, 3)
        store.close()

    def test_materialize_copies_contents(self, tmp_path):
        store = ArrayStore(dir=str(tmp_path))
        source = np.arange(12, dtype=np.float64)
        copy = store.materialize(source)
        assert isinstance(copy, np.memmap)
        np.testing.assert_array_equal(np.asarray(copy), source)
        source[0] = -1.0  # the memmap is a copy, not a view
        assert copy[0] == 0.0
        store.close()

    def test_close_removes_directory_and_is_idempotent(self, tmp_path):
        store = ArrayStore(dir=str(tmp_path))
        store.empty(3, np.int64)
        path = store.path
        assert os.path.isdir(path)
        store.close()
        assert not os.path.isdir(path)
        assert store.file_count() == 0
        store.close()  # second close is a no-op

    def test_garbage_collection_reclaims_scratch(self, tmp_path):
        store = ArrayStore(dir=str(tmp_path))
        store.empty(3, np.int64)
        path = store.path
        del store
        gc.collect()
        assert not os.path.isdir(path)


class TestSpillWriter:
    def test_chunks_finish_into_one_array(self, tmp_path):
        store = ArrayStore(dir=str(tmp_path))
        writer = store.writer(np.int64)
        chunks = [np.arange(5), [7, 8], np.array([], dtype=np.int64), [9]]
        for chunk in chunks:
            writer.append(chunk)
        result = writer.finish()
        expected = np.concatenate(
            [np.asarray(c, dtype=np.int64) for c in chunks]
        )
        assert writer.count == expected.size
        assert result.dtype == np.int64
        np.testing.assert_array_equal(np.asarray(result), expected)
        store.close()

    def test_empty_stream_finishes_to_plain_ndarray(self, tmp_path):
        store = ArrayStore(dir=str(tmp_path))
        result = store.writer(np.float64).finish()
        assert result.size == 0
        assert result.dtype == np.float64
        assert not isinstance(result, np.memmap)
        store.close()

    def test_coerces_chunk_dtype(self, tmp_path):
        store = ArrayStore(dir=str(tmp_path))
        writer = store.writer(np.float64)
        writer.append(np.arange(4, dtype=np.int32))
        result = writer.finish()
        assert result.dtype == np.float64
        np.testing.assert_array_equal(np.asarray(result), [0.0, 1.0, 2.0, 3.0])
        store.close()


def reference_scatter(keys, values, n_groups):
    """The in-RAM idiom stable_group_scatter must reproduce exactly."""
    order = np.argsort(keys, kind="stable")
    indptr = np.zeros(n_groups + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys, minlength=n_groups), out=indptr[1:])
    return indptr, [np.asarray(v)[order] for v in values]


class TestStableGroupScatter:
    @pytest.mark.parametrize("chunk", [7, 100, 4096, 1 << 20])
    def test_matches_argsort_reference(self, chunk):
        rng = np.random.default_rng(3)
        n, n_groups = 5000, 37
        keys = rng.integers(0, n_groups, size=n).astype(np.int64)
        values = [
            rng.integers(0, 1_000_000, size=n).astype(np.int64),
            rng.random(n),
        ]
        ref_indptr, ref_grouped = reference_scatter(keys, values, n_groups)
        indptr, grouped = stable_group_scatter(
            keys, values, n_groups, n, chunk=chunk
        )
        np.testing.assert_array_equal(indptr, ref_indptr)
        for out, ref in zip(grouped, ref_grouped):
            np.testing.assert_array_equal(out, ref)

    def test_callable_sources_and_store_outputs(self, tmp_path):
        rng = np.random.default_rng(5)
        n, n_groups = 2000, 11
        keys = rng.integers(0, n_groups, size=n).astype(np.int64)
        ref_indptr, ref_grouped = reference_scatter(
            keys, [np.arange(n, dtype=np.int64)], n_groups
        )
        store = ArrayStore(dir=str(tmp_path))
        indptr, (positions,) = stable_group_scatter(
            lambda lo, hi: keys[lo:hi],
            [lambda lo, hi: np.arange(lo, hi, dtype=np.int64)],
            n_groups,
            n,
            store=store,
            chunk=64,
        )
        assert isinstance(positions, np.memmap)
        np.testing.assert_array_equal(indptr, ref_indptr)
        np.testing.assert_array_equal(np.asarray(positions), ref_grouped[0])
        store.close()

    def test_empty_input(self):
        indptr, (out,) = stable_group_scatter(
            np.empty(0, dtype=np.int64), [np.empty(0, dtype=np.int64)], 4, 0
        )
        np.testing.assert_array_equal(indptr, np.zeros(5, dtype=np.int64))
        assert out.size == 0

    def test_group_sizes_matches_bincount(self):
        rng = np.random.default_rng(9)
        keys = rng.integers(0, 13, size=999).astype(np.int64)
        np.testing.assert_array_equal(
            group_sizes(keys, 13, keys.size, chunk=50),
            np.bincount(keys, minlength=13),
        )


@st.composite
def csrs(draw):
    """``(indptr, columns, width)``: rows of column ids in ``[0, width)``,
    empty rows, no entries at all and unused columns included."""
    width = draw(st.integers(0, 8))
    row = st.lists(st.integers(0, width - 1), max_size=6) if width else st.just([])
    rows = draw(st.lists(row, max_size=8))
    indptr = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum([len(row) for row in rows], out=indptr[1:])
    columns = np.asarray(list(itertools.chain(*rows)), dtype=np.int64)
    return indptr, columns, width


def stable_transpose(indptr, columns, width):
    """The column -> rows CSR by a stable argsort by column."""
    owners = np.repeat(np.arange(len(indptr) - 1), np.diff(indptr))
    out = np.zeros(width + 1, dtype=np.int64)
    np.cumsum(np.bincount(columns, minlength=width), out=out[1:])
    return out, owners[np.argsort(columns, kind="stable")]


class TestStores:
    @given(csrs(), st.booleans(), st.integers(1, 5))
    @settings(
        max_examples=80,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_transpose_is_the_stable_argsort(self, tmp_path, csr, call, chunk):
        indptr, columns, width = csr
        expected = stable_transpose(indptr, columns, width)
        source = (lambda lo, hi: columns[lo:hi]) if call else columns
        disk = ArrayStore(dir=str(tmp_path))
        disk.chunk = chunk  # several scatter chunks on small inputs
        try:
            for store in (RAM, disk):
                out, rows = store.transpose(indptr, source, width)
                np.testing.assert_array_equal(out, expected[0])
                np.testing.assert_array_equal(np.asarray(rows), expected[1])
        finally:
            disk.close()

    def test_zeros_read_as_zeros(self, tmp_path):
        disk = ArrayStore(dir=str(tmp_path))
        for store in (RAM, disk):
            for dtype in (bool, np.int64, np.float64):
                array = store.zeros(7, dtype)
                assert array.dtype == dtype
                assert not np.asarray(array).any()
        assert isinstance(disk.zeros(3, bool), np.memmap)
        disk.close()


@pytest.fixture(params=["dirty", "clean_clean"])
def store(request, dirty_dataset, clean_clean_store):
    if request.param == "dirty":
        return dirty_dataset.store
    return clean_clean_store


class TestMemmapParity:
    """storage="memmap" serves bit-identical CSR structures."""

    def test_profile_index_arrays_match_ram(self, store, tmp_path):
        spec = SubstrateSpec(filter_ratio=0.8)
        ram = ArraySubstrate(store, spec).profile_index("schedule")
        scratch = ArrayStore(dir=str(tmp_path))
        disk = ArraySubstrate(store, spec, storage=scratch).profile_index(
            "schedule"
        )
        assert isinstance(disk.pb_indices, np.memmap)
        for name in (
            "pb_indptr",
            "pb_indices",
            "bp_indptr",
            "bp_indices",
            "block_cardinalities",
            "sources",
        ):
            np.testing.assert_array_equal(
                np.asarray(getattr(disk, name)),
                np.asarray(getattr(ram, name)),
                err_msg=name,
            )
        scratch.close()

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_blocking_graph_matches_ram(self, store, scheme, tmp_path):
        spec = SubstrateSpec(filter_ratio=0.8)
        index = ArraySubstrate(store, spec).profile_index("schedule")
        ram = ArrayBlockingGraph(index, scheme)
        scratch = ArrayStore(dir=str(tmp_path))
        disk = ArrayBlockingGraph(index, scheme, storage=scratch)
        for name in ("indptr", "neighbors", "weights"):
            np.testing.assert_array_equal(
                np.asarray(getattr(disk, name)),
                np.asarray(getattr(ram, name)),
                err_msg=f"{scheme}:{name}",
            )
        scratch.close()

    def test_spilled_graph_build_chunks_are_exact(self, store, tmp_path):
        """Force many owner ranges so the offset correction is exercised."""
        spec = SubstrateSpec(purge_ratio=None, filter_ratio=None)
        index = ArraySubstrate(store, spec).profile_index("schedule")
        ram = ArrayBlockingGraph(index, "ECBS")
        scratch = ArrayStore(dir=str(tmp_path))

        class TinyBudget(ArrayBlockingGraph):
            EVENT_BUDGET = 64

        disk = TinyBudget(index, "ECBS", storage=scratch)
        np.testing.assert_array_equal(
            np.asarray(disk.indptr), np.asarray(ram.indptr)
        )
        np.testing.assert_array_equal(
            np.asarray(disk.neighbors), np.asarray(ram.neighbors)
        )
        np.testing.assert_array_equal(
            np.asarray(disk.weights), np.asarray(ram.weights)
        )
        np.testing.assert_array_equal(
            np.asarray(disk.encounter), np.asarray(ram.encounter)
        )
        scratch.close()

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_ram_graph_build_chunks_are_exact(self, store, scheme, monkeypatch):
        """The RAM rows are cut by ``EVENT_BUDGET`` too: many ranges, the
        default and one range give the same rows and the same PPS stream."""
        spec = SubstrateSpec(purge_ratio=None, filter_ratio=None)
        index = ArraySubstrate(store, spec).profile_index("schedule")
        events = int(ArrayBlockingGraph(index, scheme)._owner_event_mass().sum())
        builds = []
        for budget in (64, ArrayBlockingGraph.EVENT_BUDGET, events + 1):
            monkeypatch.setattr(ArrayBlockingGraph, "EVENT_BUDGET", budget)
            graph = ArrayBlockingGraph(index, scheme)
            rows = [getattr(graph, name) for name in ROW_NAMES]
            method = PPS(store, weighting=scheme, backend="numpy")
            builds.append((rows, [(c.i, c.j, c.weight) for c in method]))
        one_rows, one_stream = builds[-1]
        assert one_stream
        for rows, stream in builds[:-1]:
            for name, cut, whole in zip(ROW_NAMES, rows, one_rows):
                np.testing.assert_array_equal(cut, whole, err_msg=f"{scheme}:{name}")
            assert stream == one_stream

    def test_position_index_stays_resident(self, store, tmp_path):
        # memmap storage covers the Profile Index and Blocking Graph
        # only: the PSN core's O(L) entries are a plain in-RAM ndarray.
        from repro.neighborlist.rcf import RCFWeighting

        spec = SubstrateSpec(purge_ratio=None, filter_ratio=None)
        backend = NumpyBackend(storage="memmap", storage_dir=str(tmp_path))
        substrate = backend.blocking_substrate(store, spec)
        neighbor_list = substrate.neighbor_list()
        core = backend.psn_core(neighbor_list, substrate, RCFWeighting())
        assert not isinstance(core.entries, np.memmap)
        assert core.entries.tolist() == neighbor_list.entries
        backend.close()


def scratch_dirs(root) -> list[str]:
    return sorted(
        entry
        for entry in os.listdir(root)
        if entry.startswith("repro-storage-")
    )


class TestLifecycle:
    def build_structures(self, store, tmp_path):
        backend = NumpyBackend(storage="memmap", storage_dir=str(tmp_path))
        substrate = backend.blocking_substrate(store, SubstrateSpec())
        index = backend.profile_index(substrate)
        graph = backend.blocking_graph(index, "ARCS")
        return backend, substrate, index, graph

    def test_backend_close_removes_scratch(self, dirty_dataset, tmp_path):
        backend, *_structures = self.build_structures(
            dirty_dataset.store, tmp_path
        )
        assert len(scratch_dirs(tmp_path)) == 1
        backend.close()
        assert scratch_dirs(tmp_path) == []
        backend.close()  # idempotent

    def test_dropping_backend_leaks_no_files(self, dirty_dataset, tmp_path):
        structures = self.build_structures(dirty_dataset.store, tmp_path)
        assert len(scratch_dirs(tmp_path)) == 1
        del structures
        gc.collect()
        assert scratch_dirs(tmp_path) == []

    def test_resolver_close_reclaims_scratch(self, tmp_path):
        from repro import resolve
        from repro.datasets.synthetic import generate_synthetic

        dataset = generate_synthetic(n_profiles=400, seed=13)
        result = resolve(
            dataset,
            method="PPS",
            budget=300,
            backend="numpy",
            storage="memmap",
            storage_dir=str(tmp_path),
        )
        assert result.emitted > 0
        assert len(scratch_dirs(tmp_path)) == 1
        result.resolver.close()
        assert scratch_dirs(tmp_path) == []
        result.resolver.close()  # idempotent

    def test_registry_numpy_singleton_is_never_closed(self, tmp_path):
        """Resolver.close() must only tear down private instances."""
        from repro.engine import get_backend

        singleton = get_backend("numpy")
        assert singleton.storage == "ram"
        assert singleton.array_store() is RAM


def _crashing_task(payload, shard_arg):
    raise RuntimeError(f"shard {shard_arg} crashed")


class TestWorkerCrashCleanup:
    def test_pool_is_torn_down(self):
        from repro.parallel.pool import WorkerPool

        pool = WorkerPool(workers=2)
        payload = {"x": np.arange(10, dtype=np.int64)}
        with pytest.raises(RuntimeError, match="crashed"):
            pool.run(_crashing_task, payload, [(0, 5), (5, 10)])
        assert pool._pool is None
