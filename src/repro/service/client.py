"""Clients for the resolution service: in-process and over TCP.

Both speak the JSON API of :mod:`repro.service.http` through one shared
``request(method, path, body)`` seam, so tests, benchmarks and
applications get the same surface whether they hold the
:class:`~repro.service.session.SessionManager` in-process or talk to a
served port.  Non-2xx responses are raised back as the *same* typed
exceptions the service layer threw - the HTTP status mapping is a
bijection, applied in reverse here:

* 429 → :class:`~repro.errors.BudgetExceeded` (with its ``reason``)
* 409 → :class:`~repro.errors.SessionClosed`
* 404 → ``KeyError``
* anything else non-2xx → :class:`~repro.errors.ConfigError`
"""

from __future__ import annotations

import asyncio
import json
from typing import Any

from repro.errors import BudgetExceeded, ConfigError, SessionClosed
from repro.service.http import ServiceApp
from repro.service.session import SessionManager


def _raise_for_status(
    status: int, payload: dict[str, Any], method: str, path: str
) -> dict[str, Any]:
    if 200 <= status < 300:
        return payload
    message = payload.get("error", f"{method} {path} failed ({status})")
    if status == 429:
        raise BudgetExceeded(message, reason=payload.get("reason", "budget"))
    if status == 409:
        raise SessionClosed(message)
    if status == 404:
        raise KeyError(message)
    raise ConfigError(f"{message} ({method} {path} -> {status})")


class _BaseClient:
    """The convenience surface shared by both transports."""

    async def request(
        self, method: str, path: str, body: dict[str, Any] | None = None
    ) -> tuple[int, dict[str, Any]]:
        raise NotImplementedError

    async def _call(
        self, method: str, path: str, body: dict[str, Any] | None = None
    ) -> dict[str, Any]:
        status, payload = await self.request(method, path, body)
        return _raise_for_status(status, payload, method, path)

    # -- service --------------------------------------------------------------

    async def health(self) -> dict[str, Any]:
        return await self._call("GET", "/health")

    async def metrics(self) -> dict[str, Any]:
        return await self._call("GET", "/metrics")

    async def sessions(self) -> list[str]:
        return (await self._call("GET", "/sessions"))["sessions"]

    # -- session lifecycle ----------------------------------------------------

    async def create_session(
        self, name: str, records: list[Any] | None = None
    ) -> dict[str, Any]:
        body: dict[str, Any] = {"name": name}
        if records is not None:
            body["records"] = records
        return await self._call("POST", "/sessions", body)

    async def restore_session(
        self, name: str, path: str | None = None
    ) -> dict[str, Any]:
        body: dict[str, Any] = {"name": name, "restore": True}
        if path is not None:
            body["path"] = path
        return await self._call("POST", "/sessions", body)

    async def session_metrics(self, name: str) -> dict[str, Any]:
        return await self._call("GET", f"/sessions/{name}")

    async def delete_session(self, name: str) -> dict[str, Any]:
        return await self._call("DELETE", f"/sessions/{name}")

    # -- resolution -----------------------------------------------------------

    async def ingest(
        self,
        name: str,
        records: list[Any],
        sources: list[int] | None = None,
    ) -> list[list[Any]]:
        body: dict[str, Any] = {"records": records}
        if sources is not None:
            body["sources"] = sources
        response = await self._call("POST", f"/sessions/{name}/ingest", body)
        return response["comparisons"]

    async def probe(
        self,
        name: str,
        records: list[Any],
        sources: list[int] | None = None,
        decide: bool = False,
    ) -> list[list[list[Any]]]:
        body: dict[str, Any] = {"records": records}
        if sources is not None:
            body["sources"] = sources
        if decide:
            body["decide"] = True
        response = await self._call("POST", f"/sessions/{name}/probe", body)
        return response["results"]

    async def stream(self, name: str, limit: int = 100) -> list[list[Any]]:
        response = await self._call(
            "POST", f"/sessions/{name}/stream", {"limit": limit}
        )
        return response["comparisons"]

    async def snapshot(
        self, name: str, path: str | None = None
    ) -> dict[str, Any]:
        body = {} if path is None else {"path": path}
        return await self._call("POST", f"/sessions/{name}/snapshot", body)


class InProcessClient(_BaseClient):
    """The API without a socket: dispatch straight into the app.

    Everything above the transport - routing, error mapping, JSON
    shapes - is byte-identical to the served surface, which makes this
    the right harness for tests and for embedding the service in an
    existing asyncio application.
    """

    def __init__(self, manager: SessionManager) -> None:
        self.app = ServiceApp(manager)

    async def request(
        self, method: str, path: str, body: dict[str, Any] | None = None
    ) -> tuple[int, dict[str, Any]]:
        return await self.app.handle(method, path, body)


class HTTPClient(_BaseClient):
    """A minimal keep-alive HTTP/1.1 client for the served API.

    One TCP connection per client instance, opened lazily and reused
    across requests (the server keeps connections alive); ``close()``
    or ``async with`` releases it.  Not thread-safe - use one client
    per concurrent task, as the benchmark does.
    """

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None
        self._io_lock = asyncio.Lock()

    async def request(
        self, method: str, path: str, body: dict[str, Any] | None = None
    ) -> tuple[int, dict[str, Any]]:
        async with self._io_lock:
            if self._writer is None:
                self._reader, self._writer = await asyncio.open_connection(
                    self.host, self.port
                )
            assert self._reader is not None and self._writer is not None
            payload = (
                b""
                if body is None
                else json.dumps(body, separators=(",", ":")).encode()
            )
            head = (
                f"{method} {path} HTTP/1.1\r\n"
                f"Host: {self.host}:{self.port}\r\n"
                "Content-Type: application/json\r\n"
                f"Content-Length: {len(payload)}\r\n"
                "\r\n"
            ).encode("latin1")
            self._writer.write(head + payload)
            await self._writer.drain()
            return await self._read_response(self._reader)

    async def _read_response(
        self, reader: asyncio.StreamReader
    ) -> tuple[int, dict[str, Any]]:
        status_line = await reader.readline()
        if not status_line:
            raise ConnectionError("server closed the connection")
        status = int(status_line.split()[1])
        length = 0
        close = False
        while True:
            raw = await reader.readline()
            if raw in (b"\r\n", b"\n", b""):
                break
            key, _, value = raw.decode("latin1").partition(":")
            key = key.strip().lower()
            if key == "content-length":
                length = int(value.strip())
            elif key == "connection" and value.strip().lower() == "close":
                close = True
        payload = await reader.readexactly(length) if length else b""
        if close:
            await self.close()
        return status, json.loads(payload) if payload else {}

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except ConnectionError:  # pragma: no cover - platform quirk
                pass
            self._reader = None
            self._writer = None

    async def __aenter__(self) -> "HTTPClient":
        return self

    async def __aexit__(self, *exc_info: Any) -> None:
        await self.close()
