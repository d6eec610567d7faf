"""The HTTP surface: routing, error mapping, both clients, real TCP."""

from __future__ import annotations

import asyncio
import json
import threading

import pytest

from repro.errors import BudgetExceeded, ConfigError, SessionClosed
from repro.matching import JaccardMatcher
from repro.service import (
    HTTPClient,
    InProcessClient,
    ServiceApp,
    ServiceServer,
    SessionManager,
)

from .conftest import PROBE, RECORDS, service_pipeline
from .test_snapshot import (
    MALFORMED_MANIFESTS,
    cut_profiles,
    edit_manifest,
    put_match_keys,
)


def run(coro):
    return asyncio.run(coro)


@pytest.fixture()
def manager(tmp_path):
    pipeline = service_pipeline(snapshot_dir=str(tmp_path / "snapshots"))
    with SessionManager(pipeline) as live:
        yield live


# -- dispatch + status mapping (transport-free) --------------------------------


def test_status_mapping(manager):
    app = ServiceApp(manager)

    async def exercise():
        status, body = await app.handle("GET", "/health", None)
        assert (status, body["status"]) == (200, "ok")
        status, body = await app.handle("GET", "/nope", None)
        assert status == 404
        status, body = await app.handle("GET", "/sessions/ghost", None)
        assert status == 404 and "ghost" in body["error"]
        status, body = await app.handle("DELETE", "/health", None)
        assert status == 405 and "GET" in body["error"]
        status, body = await app.handle("POST", "/sessions", {})
        assert status == 400  # no name
        status, body = await app.handle(
            "POST", "/sessions", {"name": "../evil"}
        )
        assert status == 400 and "invalid session name" in body["error"]

    run(exercise())


def test_budget_rejection_maps_to_429_with_reason():
    with SessionManager(service_pipeline(session_comparisons=0)) as manager:
        app = ServiceApp(manager)

        async def exercise():
            await app.handle("POST", "/sessions", {"name": "s",
                                                   "records": RECORDS})
            status, body = await app.handle(
                "POST", "/sessions/s/probe", {"records": [PROBE]}
            )
            assert status == 429
            assert body["reason"] == "session-comparisons"

        run(exercise())


def test_closed_session_maps_to_409(manager):
    app = ServiceApp(manager)

    async def exercise():
        await app.handle("POST", "/sessions", {"name": "s"})
        manager.get("s").close()
        status, body = await app.handle(
            "POST", "/sessions/s/ingest", {"records": RECORDS}
        )
        assert status == 409

    run(exercise())


def test_malformed_operation_bodies_are_400(manager):
    app = ServiceApp(manager)

    async def exercise():
        await app.handle("POST", "/sessions", {"name": "s"})
        for action, body in [
            ("ingest", {}),  # no records
            ("probe", {"records": "not-a-list"}),
            ("stream", {"limit": -1}),
            ("stream", {"limit": "many"}),
        ]:
            status, payload = await app.handle(
                "POST", f"/sessions/s/{action}", body
            )
            assert status == 400, (action, payload)
        status, _ = await app.handle("POST", "/sessions/s/warp", {})
        assert status == 404

    run(exercise())


def test_probe_ignores_the_retired_workers_key(manager):
    """1.x clients may still send ``"workers"``; it selects nothing any
    more - whatever its value, the probe answers as if it were absent."""
    app = ServiceApp(manager)

    async def exercise():
        await app.handle("POST", "/sessions", {"name": "s", "records": RECORDS})
        plain = await app.handle(
            "POST", "/sessions/s/probe", {"records": [PROBE]}
        )
        assert plain[0] == 200 and plain[1]["results"][0]
        for workers in (0, 2, -7, "many", None):
            answer = await app.handle(
                "POST",
                "/sessions/s/probe",
                {"records": [PROBE], "workers": workers},
            )
            assert answer == plain

    run(exercise())


def test_the_retired_decide_key_answers_400(manager):
    """A body carrying ``"decide"`` is refused, pointing at the
    migration guide - never silently ignored."""
    app = ServiceApp(manager)

    async def exercise():
        await app.handle("POST", "/sessions", {"name": "s", "records": RECORDS})
        for action in ("probe", "ingest"):
            for decide in (True, False):
                status, body = await app.handle(
                    "POST",
                    f"/sessions/s/{action}",
                    {"records": [PROBE], "decide": decide},
                )
                assert status == 400 and "migration.md" in body["error"], body
        assert manager.get("s").resolver.corpus_size == len(RECORDS)

    run(exercise())


# -- the in-process client -----------------------------------------------------


def test_in_process_client_raises_typed_errors(manager):
    client = InProcessClient(manager)

    async def exercise():
        with pytest.raises(KeyError):
            await client.session_metrics("ghost")
        await client.create_session("s", RECORDS)
        with pytest.raises(ConfigError, match="already exists"):
            await client.create_session("s")
        manager.get("s").close()
        with pytest.raises(SessionClosed):
            await client.stream("s", limit=1)

    run(exercise())


def test_in_process_client_full_lifecycle(manager):
    client = InProcessClient(manager)

    async def exercise():
        assert (await client.health())["sessions"] == 0
        await client.create_session("s", RECORDS[:4])
        emitted = await client.ingest("s", RECORDS[4:])
        assert emitted and all(len(triple) == 3 for triple in emitted)
        scored = await client.probe("s", [PROBE])
        assert scored[0]
        batch = await client.stream("s", limit=3)
        assert len(batch) == 3
        # Client paths are relative to the service snapshot_dir.
        manifest = await client.snapshot("s", "saved/s")
        assert manifest["profiles"] == len(RECORDS)
        assert (await client.session_metrics("s"))["probes"] == 1
        await client.delete_session("s")
        restored = await client.restore_session("s", "saved/s")
        assert restored["profiles"] == len(RECORDS)
        assert await client.sessions() == ["s"]
        assert (await client.metrics())["session_count"] == 1

    run(exercise())


def test_client_snapshot_paths_are_sandboxed(manager, tmp_path):
    """A socket-reachable 'path' must resolve inside snapshot_dir."""
    app = ServiceApp(manager)

    async def exercise():
        await app.handle("POST", "/sessions", {"name": "s",
                                               "records": RECORDS})
        for path in ["../evil", str(tmp_path / "outside"), "a/../../b", ""]:
            status, body = await app.handle(
                "POST", "/sessions/s/snapshot", {"path": path}
            )
            assert status == 400, (path, body)
            status, body = await app.handle(
                "POST", "/sessions",
                {"name": "r", "restore": True, "path": path},
            )
            assert status == 400, (path, body)
        # Absolute paths *inside* the snapshot_dir stay accepted (the
        # benchmark drives restore that way).
        inside = str(tmp_path / "snapshots" / "s")
        status, body = await app.handle(
            "POST", "/sessions/s/snapshot", {"path": inside}
        )
        assert status == 200, body

    run(exercise())


def test_restoring_a_corrupt_snapshot_answers_400(manager):
    """A snapshot whose profile line is torn is refused with 400 naming
    the file, and no session is left registered under the name."""
    app = ServiceApp(manager)

    async def exercise():
        await app.handle("POST", "/sessions", {"name": "s", "records": RECORDS})
        status, body = await app.handle(
            "POST", "/sessions/s/snapshot", {"path": "saved"}
        )
        assert status == 200, body
        cut_profiles(body["path"], "mid-line")
        status, body = await app.handle(
            "POST", "/sessions", {"name": "r", "restore": True, "path": "saved"}
        )
        assert status == 400 and "profiles.jsonl line" in body["error"], body
        assert manager.names() == ["s"]

    run(exercise())


@pytest.mark.parametrize("case", sorted(MALFORMED_MANIFESTS))
def test_restoring_a_malformed_manifest_answers_400(manager, case):
    """A manifest missing a required key, or naming an unknown ER type,
    is refused with 400 (not the unknown-session 404), no session kept."""
    app = ServiceApp(manager)

    async def exercise():
        await app.handle("POST", "/sessions", {"name": "s", "records": RECORDS})
        status, body = await app.handle(
            "POST", "/sessions/s/snapshot", {"path": "saved"}
        )
        assert status == 200, body
        key, value = MALFORMED_MANIFESTS[case]
        edit_manifest(body["path"], key, value)
        status, body = await app.handle(
            "POST", "/sessions", {"name": "r", "restore": True, "path": "saved"}
        )
        assert status == 400 and key in body["error"], body
        assert manager.names() == ["s"]

    run(exercise())


def test_a_restored_session_reports_the_saved_generation(manager):
    """``/sessions/{name}`` metrics do not go backwards over a restore."""
    app = ServiceApp(manager)

    async def exercise():
        await app.handle("POST", "/sessions", {"name": "s", "records": RECORDS[:2]})
        for record in RECORDS[2:4]:
            await app.handle("POST", "/sessions/s/ingest", {"records": [record]})
        await app.handle("POST", "/sessions/s/snapshot", {"path": "saved"})
        await app.handle(
            "POST", "/sessions", {"name": "r", "restore": True, "path": "saved"}
        )
        _, saved = await app.handle("GET", "/sessions/s", None)
        _, restored = await app.handle("GET", "/sessions/r", None)
        assert saved["generation"] == 2
        assert restored["generation"] == saved["generation"]
        assert manager.get("r").resolver.index.generation == 2

    run(exercise())


class GatedTier(JaccardMatcher):
    """A last tier that holds every decided probe open until released."""

    name = "gated"

    def __init__(self) -> None:
        super().__init__()
        self.entered = threading.Event()
        self.release = threading.Event()

    def similarity(self, a, b):
        self.entered.set()
        assert self.release.wait(10)
        return super().similarity(a, b)


def test_a_restored_session_keeps_the_saved_matches(tmp_path):
    """``POST /sessions`` restore: the restored session's matches,
    clusters and confirmed-match count are the live session's."""

    async def exercise():
        pipeline = service_pipeline(snapshot_dir=str(tmp_path)).match()
        with SessionManager(pipeline) as manager:
            app = ServiceApp(manager)
            await app.handle("POST", "/sessions", {"name": "s", "records": RECORDS})
            duplicates = {"records": [RECORDS[0], RECORDS[3]]}
            await app.handle("POST", "/sessions/s/ingest", duplicates)
            await app.handle("POST", "/sessions/s/snapshot", {"path": "saved"})
            status, body = await app.handle(
                "POST", "/sessions", {"name": "r", "restore": True, "path": "saved"}
            )
            assert status == 200, body
            live, back = (manager.get(name).resolver for name in "sr")
            assert back.matches == live.matches == {(0, 6), (1, 6), (3, 7)}
            assert back.clusters() == live.clusters()
            assert back.progress().matches_confirmed == 3

    run(exercise())


def test_session_profiles_never_count_a_probe_in_flight():
    """A probe is stored for the length of its call; ``/sessions/{name}``
    is read on the event loop without the session lock, and reports the
    ingested corpus only."""
    tier = GatedTier()

    async def exercise():
        with SessionManager(service_pipeline().match(tier)) as manager:
            app = ServiceApp(manager)
            await app.handle("POST", "/sessions", {"name": "s", "records": RECORDS})
            probe = asyncio.ensure_future(
                app.handle("POST", "/sessions/s/probe", {"records": [PROBE]})
            )
            while not tier.entered.is_set():
                # a probe that fails before the tier surfaces here
                assert not probe.done(), await probe
                await asyncio.sleep(0.001)
            # the probe is held in the store right now...
            assert len(manager.get("s").resolver.store) == len(RECORDS) + 1
            status, body = await app.handle("GET", "/sessions/s", None)
            tier.release.set()
            assert (status, body["profiles"]) == (200, len(RECORDS))
            status, decided = await probe
            assert status == 200 and decided["results"][0], decided
            _, body = await app.handle("GET", "/sessions/s", None)
            assert body["profiles"] == len(RECORDS)

    run(exercise())


def test_restoring_a_snapshot_that_sets_the_retired_hook_answers_400(manager):
    """A manifest whose match stage sets the removed ``expensive`` hook
    is refused with 400, and no session is registered under the name."""
    app = ServiceApp(manager)

    async def exercise():
        await app.handle("POST", "/sessions", {"name": "s", "records": RECORDS})
        status, body = await app.handle(
            "POST", "/sessions/s/snapshot", {"path": "saved"}
        )
        assert status == 200, body
        put_match_keys(body["path"], expensive="edit-distance")
        status, body = await app.handle(
            "POST", "/sessions", {"name": "r", "restore": True, "path": "saved"}
        )
        assert status == 400 and "sixth round" in body["error"], body
        assert manager.names() == ["s"]

    run(exercise())


def test_client_paths_require_a_snapshot_dir(pipeline):
    """No snapshot_dir configured -> client-supplied paths are refused."""
    with SessionManager(pipeline) as bare:
        app = ServiceApp(bare)

        async def exercise():
            await app.handle("POST", "/sessions", {"name": "s",
                                                   "records": RECORDS})
            status, body = await app.handle(
                "POST", "/sessions/s/snapshot", {"path": "anywhere"}
            )
            assert status == 400 and "snapshot_dir" in body["error"]

        run(exercise())


# -- the served socket ---------------------------------------------------------


def test_http_client_against_real_server(manager):
    async def exercise():
        server = await ServiceServer(manager).start()
        try:
            async with HTTPClient("127.0.0.1", server.port) as client:
                await client.create_session("s", RECORDS[:4])
                emitted = await client.ingest("s", RECORDS[4:])
                assert emitted
                scored = await client.probe("s", [PROBE, PROBE])
                assert len(scored) == 2 and scored[0] == scored[1]
                manifest = await client.snapshot("s", "s")
                assert manifest["profiles"] == len(RECORDS)
                # keep-alive: many calls over one connection
                for _ in range(5):
                    assert (await client.health())["status"] == "ok"
                with pytest.raises(KeyError):
                    await client.session_metrics("ghost")
        finally:
            await server.stop()

    run(exercise())


def test_a_later_batch_is_matched_against_an_earlier_one_over_http():
    """Cross-batch identity in a served session (the python path is
    pinned in tests/incremental/test_resolver.py): a probe of a reworded
    copy of record 0 is confirmed against it at tier exact and keeps
    nothing; ingesting the copy decides the same pair and clusters()
    grows by it."""
    first_batch = [
        {"name": "carl white", "profession": "tailor", "city": "ny"},
        {"name": "ellen green", "profession": "teacher", "city": "la"},
    ]
    reworded = {"about": "Tailor Carl White", "livesIn": "NY"}

    async def exercise():
        with SessionManager(service_pipeline().match()) as manager:
            server = await ServiceServer(manager).start()
            try:
                async with HTTPClient("127.0.0.1", server.port) as client:
                    await client.create_session("s", first_batch)
                    resolver = manager.get("s").resolver
                    [probed] = await client.probe("s", [reworded])
                    assert [row[:2] + row[3:5] for row in probed] == [
                        [0, 2, True, "exact"]
                    ]
                    assert resolver.clusters() == []
                    emitted = await client.ingest("s", [reworded])
                    assert emitted == probed
                    assert resolver.clusters() == [[0, 2]]
            finally:
                await server.stop()

    run(exercise())


def test_http_and_in_process_results_agree(manager):
    """Everything above the socket is shared; results are identical."""

    async def exercise():
        local = InProcessClient(manager)
        await local.create_session("s", RECORDS)
        server = await ServiceServer(manager).start()
        try:
            async with HTTPClient("127.0.0.1", server.port) as remote:
                over_wire = await remote.probe("s", [PROBE])
        finally:
            await server.stop()
        in_process = await local.probe("s", [PROBE])
        assert over_wire == in_process

    run(exercise())


def test_http_budget_rejection_round_trips_reason():
    async def exercise():
        with SessionManager(service_pipeline(request_seconds=0)) as manager:
            server = await ServiceServer(manager).start()
            try:
                async with HTTPClient("127.0.0.1", server.port) as client:
                    await client.create_session("s", RECORDS)
                    with pytest.raises(BudgetExceeded) as excinfo:
                        await client.probe("s", [PROBE])
                    assert excinfo.value.reason == "request-seconds"
            finally:
                await server.stop()

    run(exercise())


def test_raw_protocol_edges(manager):
    """Bad JSON, non-object bodies and garbage request lines."""

    async def exercise():
        server = await ServiceServer(manager).start()
        try:
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )

            async def roundtrip(payload: bytes) -> tuple[int, dict]:
                head = (
                    b"POST /sessions HTTP/1.1\r\n"
                    b"Content-Length: " + str(len(payload)).encode()
                    + b"\r\n\r\n"
                )
                writer.write(head + payload)
                await writer.drain()
                status_line = await reader.readline()
                status = int(status_line.split()[1])
                length = 0
                while True:
                    line = await reader.readline()
                    if line in (b"\r\n", b"\n", b""):
                        break
                    if line.lower().startswith(b"content-length"):
                        length = int(line.split(b":")[1])
                body = json.loads(await reader.readexactly(length))
                return status, body

            status, body = await roundtrip(b"{not json")
            assert status == 400 and "JSON" in body["error"]
            status, body = await roundtrip(b"[1, 2, 3]")
            assert status == 400 and "object" in body["error"]
            writer.close()
            await writer.wait_closed()
        finally:
            await server.stop()

    run(exercise())


def test_malformed_framing_answers_400_and_closes(manager):
    """Bad Content-Length and header floods get a 400, not a dead task."""

    async def send_raw(port: int, head: bytes) -> tuple[int, bytes]:
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        try:
            writer.write(head)
            await writer.drain()
            status_line = await reader.readline()
            assert status_line, "connection died without a response"
            status = int(status_line.split()[1])
            rest = await reader.read()  # server closes after a 400
            return status, rest
        finally:
            writer.close()
            await writer.wait_closed()

    async def exercise():
        server = await ServiceServer(manager).start()
        try:
            port = server.port
            status, _ = await send_raw(
                port, b"GET /health HTTP/1.1\r\nContent-Length: abc\r\n\r\n"
            )
            assert status == 400
            status, _ = await send_raw(
                port, b"GET /health HTTP/1.1\r\nContent-Length: -5\r\n\r\n"
            )
            assert status == 400
            flood = b"".join(
                b"X-Junk-%d: filler\r\n" % i for i in range(200)
            )
            status, _ = await send_raw(
                port, b"GET /health HTTP/1.1\r\n" + flood + b"\r\n"
            )
            assert status == 400
        finally:
            await server.stop()

    run(exercise())


def test_main_module_boots_and_stops():
    """python -m repro.service prints its serving line and exits on TERM."""
    import os
    import signal
    import subprocess
    import sys
    import urllib.request

    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")
    with subprocess.Popen(
        [sys.executable, "-m", "repro.service"],
        stdout=subprocess.PIPE,
        text=True,
        env=env,
    ) as proc:
        try:
            line = proc.stdout.readline().strip()
            assert line.startswith("serving on http://127.0.0.1:")
            url = line.split("serving on ", 1)[1]
            with urllib.request.urlopen(
                f"{url}/health", timeout=10
            ) as response:
                assert json.loads(response.read())["status"] == "ok"
        finally:
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=15) == 0


def test_main_module_keeps_one_malloc_arena():
    """Threads that allocate after share_one_malloc_arena() get no arena
    of their own (glibc only: counted in malloc_info's report)."""
    import os
    import subprocess
    import sys

    code = """
import ctypes, sys, threading
libc = ctypes.CDLL(None)
if not hasattr(libc, "malloc_info"):
    sys.exit(77)
if sys.argv[1] == "shared":
    from repro.service.__main__ import share_one_malloc_arena
    share_one_malloc_arena()
hold = threading.Barrier(5)
def allocate():
    block = bytearray(1 << 16)  # past pymalloc: a malloc on this thread
    hold.wait(timeout=30)
threads = [threading.Thread(target=allocate) for _ in range(4)]
for thread in threads:
    thread.start()
hold.wait(timeout=30)
libc.fdopen.restype = ctypes.c_void_p
out = ctypes.c_void_p(libc.fdopen(1, b"w"))
libc.malloc_info(0, out)
libc.fflush(out)
"""
    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("MALLOC_ARENA_MAX", None)
    env.pop("GLIBC_TUNABLES", None)
    arenas = {}
    for mode in ("default", "shared"):
        done = subprocess.run(
            [sys.executable, "-c", code, mode],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        if done.returncode == 77:
            pytest.skip("the C library has no malloc_info (not glibc)")
        assert done.returncode == 0, done.stderr
        arenas[mode] = done.stdout.count("<heap nr=")
    if arenas["default"] == 1:
        pytest.skip("this C library is already held to one arena")
    assert arenas["shared"] == 1
