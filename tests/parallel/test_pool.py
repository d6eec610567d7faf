"""WorkerPool transport: real processes, inline mode, reuse rules."""

from __future__ import annotations

import os

import pytest

np = pytest.importorskip("numpy")

from repro.engine.topk import rank_slice  # noqa: E402
from repro.parallel.pool import WorkerPool, default_worker_count  # noqa: E402

from .conftest import stream_prefix  # noqa: E402


def doubler(payload, shard):
    lo, hi = shard
    return (np.asarray(payload["values"][lo:hi]) * 2, os.getpid())


class TestInlineMode:
    def test_workers_zero_runs_in_process(self):
        pool = WorkerPool(0)
        payload = {"values": np.arange(10)}
        results = pool.run(doubler, payload, [(0, 5), (5, 10)])
        assert [r[1] for r in results] == [os.getpid()] * 2
        np.testing.assert_array_equal(results[1][0], np.arange(5, 10) * 2)

    def test_single_shard_stays_inline_even_with_workers(self):
        pool = WorkerPool(4)
        try:
            results = pool.run(doubler, {"values": np.arange(4)}, [(0, 4)])
            assert results[0][1] == os.getpid()
        finally:
            pool.close()

    def test_invalid_configuration(self):
        with pytest.raises(ValueError):
            WorkerPool(-1)


@pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity"), reason="platform has no CPU affinity"
)
def test_default_worker_count_is_the_affinity_mask():
    """One worker per *visible* core: a restricted affinity mask (a
    container, ``taskset``) shrinks the default, whatever the machine
    owns."""
    from repro.parallel.backend import ParallelBackend

    allowed = os.sched_getaffinity(0)
    try:
        os.sched_setaffinity(0, {min(allowed)})
        assert default_worker_count() == 1
        assert ParallelBackend().workers == 1
    finally:
        os.sched_setaffinity(0, allowed)
    assert default_worker_count() == len(allowed)


class TestProcessMode:
    def test_results_in_shard_order_from_other_pids(self):
        payload = {"values": np.arange(100)}
        with WorkerPool(2) as pool:
            results = pool.run(
                doubler, payload, [(0, 50), (50, 100), (20, 30)]
            )
            np.testing.assert_array_equal(
                results[2][0], np.arange(20, 30) * 2
            )
            worker_pids = {r[1] for r in results}
            assert os.getpid() not in worker_pids

    def test_pool_reuse_and_reship(self):
        payload_a = {"values": np.arange(8)}
        payload_b = {"values": np.arange(8) + 100}
        with WorkerPool(2) as pool:
            first = pool.run(doubler, payload_a, [(0, 4), (4, 8)])
            again = pool.run(doubler, payload_a, [(0, 4), (4, 8)])
            switched = pool.run(doubler, payload_b, [(0, 4), (4, 8)])
        np.testing.assert_array_equal(first[0][0], again[0][0])
        assert switched[0][0][0] == 200

    def test_payload_free_runs_reuse_live_pool(self):
        chunks = [
            (np.array([1, 0]), np.array([2, 3]), np.array([1.0, 5.0])),
            (np.array([4]), np.array([5]), np.array([2.0])),
        ]
        with WorkerPool(2) as pool:
            pool.run(doubler, {"values": np.arange(4)}, [(0, 2), (2, 4)])
            live = pool._pool
            ranked = pool.run(rank_slice, None, chunks)
            assert pool._pool is live
        assert ranked[0][2].tolist() == [5.0, 1.0]
        assert ranked[1][0].tolist() == [4]


class TestMethodsOverProcesses:
    """End-to-end parity through a real pool (the transport proof; the
    exhaustive matrix runs inline in test_parity.py)."""

    def test_pps_stream_over_pool(self, dirty_dataset):
        from repro.parallel.backend import ParallelBackend

        backend = ParallelBackend(workers=2, shards=2)
        try:
            parallel = stream_prefix("PPS", dirty_dataset.store, backend)
        finally:
            backend.close()
        assert parallel == stream_prefix("PPS", dirty_dataset.store, "numpy")

    def test_reused_backend_does_not_pin_past_indexes(self, dirty_dataset):
        """One backend instance across two fits keeps nothing of the
        first fit alive: no index, no shipped payload."""
        import gc
        import weakref

        from repro.parallel.backend import ParallelBackend
        from repro.progressive import PBS

        backend = ParallelBackend(workers=2, shards=2)
        try:
            # PBS runs its first kernel when the first comparison is
            # pulled: that is when the pool is handed the payload.
            first = PBS(dirty_dataset.store, backend=backend)
            assert next(iter(first)) is not None
            index = weakref.ref(first._core.index)
            # A dict takes no weak reference; the array in it that only
            # this fit made does.
            payload = weakref.ref(first._core.graph.payload["pb_keys"])
            second = PBS(dirty_dataset.store, backend=backend)
            assert next(iter(second)) is not None
            del first
            gc.collect()
            assert index() is None and payload() is None
            assert second._core.index is not None
        finally:
            backend.close()

    def test_gs_psn_stream_over_pool(self, dirty_dataset):
        from repro.parallel.backend import ParallelBackend

        backend = ParallelBackend(workers=2, shards=3)
        try:
            parallel = stream_prefix(
                "GS-PSN", dirty_dataset.store, backend, max_window=8
            )
        finally:
            backend.close()
        assert parallel == stream_prefix(
            "GS-PSN", dirty_dataset.store, "numpy", max_window=8
        )
