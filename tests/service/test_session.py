"""SessionManager/ServiceSession: lifecycle, admission control, metrics."""

from __future__ import annotations

import asyncio
import threading

import pytest

from repro.errors import BudgetExceeded, ConfigError, SessionClosed
from repro.service.session import SessionManager, _percentile

from .conftest import PROBE, RECORDS, service_pipeline


def run(coro):
    return asyncio.run(coro)


# -- lifecycle -----------------------------------------------------------------


def test_create_get_delete(pipeline):
    with SessionManager(pipeline) as manager:
        session = manager.create("alpha", RECORDS[:3])
        assert manager.get("alpha") is session
        assert len(session.resolver.store) == 3
        manager.create("beta")
        assert manager.names() == ["alpha", "beta"]
        manager.delete("alpha")
        assert manager.names() == ["beta"]
        with pytest.raises(KeyError, match="alpha"):
            manager.get("alpha")


def test_duplicate_and_invalid_names(pipeline):
    with SessionManager(pipeline) as manager:
        manager.create("alpha")
        with pytest.raises(ConfigError, match="already exists"):
            manager.create("alpha")
        for bad in ("", "a/b", "../up", ".hidden", "a b"):
            with pytest.raises(ConfigError, match="invalid session name"):
                manager.create(bad)


def test_default_manager_serves_default_pipeline():
    with SessionManager() as manager:
        assert manager.pipeline.config.service is not None
        assert manager.pipeline.config.incremental is not None
        manager.create("s", [{"a": "x y"}])


def test_manager_attaches_service_stage_without_mutating_caller():
    from repro.pipeline import ERPipeline

    pipeline = ERPipeline()
    with SessionManager(pipeline) as manager:
        assert manager.config is not None
    assert pipeline.config.service is None  # caller spec untouched


def test_manager_close_is_idempotent_and_final(pipeline):
    manager = SessionManager(pipeline)
    session = manager.create("s", RECORDS[:3])
    manager.close()
    manager.close()  # no-op
    assert session.closed
    with pytest.raises(SessionClosed):
        manager.create("t")
    with pytest.raises(SessionClosed):
        manager.get("s")


def test_operations_round_trip(pipeline, tmp_path):
    with SessionManager(pipeline) as manager:
        session = manager.create("s", RECORDS[:4])

        async def exercise():
            emitted = await session.ingest(RECORDS[4:])
            assert emitted and all(
                set(c.pair) & {4, 5} for c in emitted
            )
            scored = await session.probe([PROBE, PROBE])
            assert len(scored) == 2 and scored[0] and (
                [(c.i, c.j, c.weight) for c in scored[0]]
                == [(c.i, c.j, c.weight) for c in scored[1]]
            )
            batch = await session.stream(limit=4)
            assert len(batch) == 4
            manifest = await session.snapshot(str(tmp_path / "s"))
            assert manifest["profiles"] == len(RECORDS)

        run(exercise())


def test_restore_round_trip(tmp_path):
    pipeline = service_pipeline(snapshot_dir=str(tmp_path))
    with SessionManager(pipeline) as manager:
        session = manager.create("s", RECORDS)
        live = [c.pair for c in session.resolver.stream()]
        run(session.snapshot())  # default path: snapshot_dir/name
        manager.delete("s")
        restored = manager.restore("s")
        assert [c.pair for c in restored.resolver.stream()] == live


def test_restore_without_snapshot_dir_needs_a_path(pipeline):
    with SessionManager(pipeline) as manager:
        with pytest.raises(ConfigError, match="snapshot_dir"):
            manager.restore("s")
        session = manager.create("s")
        with pytest.raises(ConfigError, match="snapshot_dir"):
            run(session.snapshot())


# -- admission control ---------------------------------------------------------


def test_queue_full_rejection():
    manager = SessionManager(service_pipeline(max_pending=1))
    session = manager.create("s", RECORDS)
    gate = threading.Event()
    release = threading.Event()
    original = session.resolver.resolve_many

    def slow(*args, **kwargs):
        gate.set()
        release.wait(timeout=10)
        return original(*args, **kwargs)

    session.resolver.resolve_many = slow

    async def exercise():
        first = asyncio.ensure_future(session.probe([PROBE]))
        await asyncio.get_running_loop().run_in_executor(None, gate.wait)
        with pytest.raises(BudgetExceeded) as excinfo:
            await session.probe([PROBE])
        assert excinfo.value.reason == "queue-full"
        release.set()
        assert await first  # the admitted probe still completes

    try:
        run(exercise())
    finally:
        release.set()
        manager.close()
    assert session.metrics()["rejected"] == 1


def test_session_comparisons_budget_rejects():
    with SessionManager(service_pipeline(session_comparisons=0)) as manager:
        session = manager.create("s", RECORDS)
        with pytest.raises(BudgetExceeded) as excinfo:
            run(session.probe([PROBE]))
        assert excinfo.value.reason == "session-comparisons"


def test_session_seconds_budget_rejects():
    with SessionManager(service_pipeline(session_seconds=0)) as manager:
        session = manager.create("s", RECORDS)
        with pytest.raises(BudgetExceeded) as excinfo:
            run(session.ingest([PROBE]))
        assert excinfo.value.reason == "session-seconds"


def test_request_seconds_budget_rejects_queued_work():
    with SessionManager(service_pipeline(request_seconds=0)) as manager:
        session = manager.create("s", RECORDS)
        with pytest.raises(BudgetExceeded) as excinfo:
            run(session.probe([PROBE]))
        assert excinfo.value.reason == "request-seconds"


def test_request_comparisons_cap_truncates_not_rejects():
    with SessionManager(service_pipeline(request_comparisons=1)) as manager:
        session = manager.create("s", RECORDS[:4])

        async def exercise():
            scored = await session.probe([PROBE])
            assert [len(ranked) for ranked in scored] == [1]
            emitted = await session.ingest(RECORDS[4:])
            assert len(emitted) == 1

        run(exercise())


def test_session_budget_counts_served_comparisons():
    with SessionManager(service_pipeline(session_comparisons=3)) as manager:
        session = manager.create("s", RECORDS)
        run(session.probe([PROBE]))  # serves >= 3 comparisons
        assert session.metrics()["comparisons_served"] >= 3
        with pytest.raises(BudgetExceeded) as excinfo:
            run(session.probe([PROBE]))
        assert excinfo.value.reason == "session-comparisons"


def test_closed_session_rejects_with_session_closed(pipeline):
    with SessionManager(pipeline) as manager:
        session = manager.create("s", RECORDS)
        session.close()
        with pytest.raises(SessionClosed):
            run(session.probe([PROBE]))


# -- metrics -------------------------------------------------------------------


def test_metrics_shape(pipeline, tmp_path):
    with SessionManager(pipeline) as manager:
        session = manager.create("s", RECORDS[:4])

        async def exercise():
            await session.ingest(RECORDS[4:])
            await session.probe([PROBE])
            await session.snapshot(str(tmp_path / "s"))

        run(exercise())
        view = session.metrics()
        assert view["name"] == "s"
        assert view["profiles"] == len(RECORDS)
        assert view["probes"] == 1 and view["ingests"] == 1
        assert view["queue_depth"] == 0
        assert view["comparisons_served"] > 0
        assert view["probe_latency_p50"] is not None
        assert view["probe_latency_p95"] >= view["probe_latency_p50"] >= 0
        assert view["snapshots"] == 1
        assert view["snapshot_age_seconds"] >= 0
        totals = manager.metrics()
        assert totals["session_count"] == 1
        assert totals["comparisons_served"] == view["comparisons_served"]


def test_percentile_nearest_rank():
    assert _percentile([], 0.5) is None
    assert _percentile([7.0], 0.95) == 7.0
    samples = [float(v) for v in range(1, 101)]
    assert _percentile(samples, 0.50) in (50.0, 51.0)  # rank rounding
    assert _percentile(samples, 0.95) == 95.0
    assert _percentile(list(reversed(samples)), 0.95) == 95.0  # sorts first
