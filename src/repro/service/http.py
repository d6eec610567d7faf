"""The asyncio HTTP/1.1 front-end over a :class:`SessionManager`.

Stdlib-only (``asyncio.start_server`` + hand-rolled request parsing).
The JSON API:

====== ================================== ===================================
method path                               action
====== ================================== ===================================
GET    ``/health``                        liveness + session count
GET    ``/metrics``                       service-wide metrics
GET    ``/sessions``                      session names
POST   ``/sessions``                      create (``{"name", "records"?}``)
                                          or restore (``{"name",
                                          "restore": true, "path"?}``)
GET    ``/sessions/{name}``               one session's metrics
DELETE ``/sessions/{name}``               close and forget the session
POST   ``/sessions/{name}/ingest``        ``{"records", "sources"?}``
POST   ``/sessions/{name}/probe``         ``{"records", "sources"?,
                                          "decide"?}``
POST   ``/sessions/{name}/stream``        ``{"limit"}`` - next batch of the
                                          globally ranked stream
POST   ``/sessions/{name}/snapshot``      ``{"path"?}``
====== ================================== ===================================

A client-supplied ``"path"`` (snapshot and restore) is interpreted
*relative to the configured* ``serve(snapshot_dir=...)`` and must
resolve inside it - socket clients can never point the process at
arbitrary filesystem locations.  Free-form paths remain available to
trusted in-process callers through :class:`SessionManager` directly.

Comparisons travel as ``[i, j, weight]`` triples; decided probe results
(``"decide": true``) as ``[i, j, weight, decision, tier, similarity]``
rows.  Errors map onto
status codes by *type*, and the body always carries ``{"error": ...}``
(:class:`~repro.errors.BudgetExceeded` adds its machine-readable
``"reason"`` token):

* 400 - :class:`~repro.errors.ConfigError` / ``ValueError`` / bad JSON
* 404 - unknown session or route (``KeyError``)
* 405 - wrong method on a known route
* 409 - :class:`~repro.errors.SessionClosed`
* 429 - :class:`~repro.errors.BudgetExceeded` (admission rejections)

The dispatch core, :meth:`ServiceApp.handle`, is transport-free; the
in-process client calls it directly, so everything above the socket is
exercised identically with and without TCP.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import os
from typing import Any

from repro.core.comparisons import Comparison
from repro.errors import BudgetExceeded, ConfigError, SessionClosed
from repro.service.session import SessionManager

#: Largest accepted request body (a blunt guard against unbounded reads).
MAX_BODY_BYTES = 64 * 1024 * 1024

#: Caps on the request head (count and total bytes of header lines) -
#: a client streaming endless headers gets a 400, not unbounded memory.
MAX_HEADER_COUNT = 100
MAX_HEADER_BYTES = 64 * 1024

_STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
}


def _triples(ranked: list[Comparison]) -> list[list[Any]]:
    return [[c.i, c.j, c.weight] for c in ranked]


def _decided(records: list[Any]) -> list[list[Any]]:
    """Decision records as ``[i, j, weight, decision, tier, similarity]``."""
    return [
        [
            r.comparison.i,
            r.comparison.j,
            r.comparison.weight,
            r.decision,
            r.tier,
            r.similarity,
        ]
        for r in records
    ]


class ServiceApp:
    """Transport-free request dispatch over a :class:`SessionManager`."""

    def __init__(self, manager: SessionManager) -> None:
        self.manager = manager

    async def handle(
        self, method: str, path: str, body: dict[str, Any] | None
    ) -> tuple[int, dict[str, Any]]:
        """Dispatch one request; returns ``(status, json_payload)``."""
        try:
            return 200, await self._dispatch(method, path, body or {})
        except BudgetExceeded as exc:
            return 429, {"error": str(exc), "reason": exc.reason}
        except SessionClosed as exc:
            return 409, {"error": str(exc)}
        except ConfigError as exc:
            return 400, {"error": str(exc)}
        except KeyError as exc:
            # KeyError repr-quotes its argument; unwrap for the payload.
            (message,) = exc.args or ("not found",)
            return 404, {"error": str(message)}
        except _MethodNotAllowed as exc:
            return 405, {"error": str(exc)}
        except (TypeError, ValueError) as exc:
            return 400, {"error": str(exc)}

    async def _dispatch(
        self, method: str, path: str, body: dict[str, Any]
    ) -> dict[str, Any]:
        parts = [part for part in path.split("/") if part]
        if parts == ["health"]:
            _require(method, "GET")
            return {
                "status": "ok",
                "sessions": len(self.manager.names()),
            }
        if parts == ["metrics"]:
            _require(method, "GET")
            return self.manager.metrics()
        if parts == ["sessions"]:
            if method == "GET":
                return {"sessions": self.manager.names()}
            _require(method, "POST")
            return await self._create(body)
        if len(parts) == 2 and parts[0] == "sessions":
            name = parts[1]
            if method == "GET":
                return self.manager.get(name).metrics()
            _require(method, "DELETE")
            # delete() blocks on the session's lock until in-flight
            # resolver work drains - never run it on the event loop.
            await self.manager.offload(lambda: self.manager.delete(name))
            return {"deleted": name}
        if len(parts) == 3 and parts[0] == "sessions":
            _require(method, "POST")
            return await self._operate(parts[1], parts[2], body)
        raise KeyError(f"no route for {path!r}")

    async def _create(self, body: dict[str, Any]) -> dict[str, Any]:
        name = body.get("name")
        if not isinstance(name, str):
            raise ConfigError("session creation needs a string 'name'")
        # Both branches are blocking work (restore reads and rebuilds a
        # snapshot from disk, create fits the seed batch) - off-load so
        # the event loop keeps serving other connections meanwhile.
        if body.get("restore"):
            path = self._client_path(body.get("path"))
            session = await self.manager.offload(
                lambda: self.manager.restore(name, path)
            )
        else:
            records = body.get("records")
            session = await self.manager.offload(
                lambda: self.manager.create(name, records)
            )
        return {"created": name, "profiles": len(session.resolver.store)}

    def _client_path(self, path: Any) -> str | None:
        """Sandbox a client-supplied snapshot path under ``snapshot_dir``.

        The HTTP surface (and the in-process client, which shares this
        dispatch) treats ``"path"`` as *relative to the configured
        ``serve(snapshot_dir=...)``*; a path that resolves outside that
        directory - absolute, ``..``-climbing or via symlink - is
        rejected, so a socket client can never make the process read or
        write snapshot data at arbitrary filesystem locations.  Trusted
        in-process callers that need free-form paths use
        :class:`~repro.service.session.SessionManager` directly.
        """
        if path is None:
            return None
        if not isinstance(path, str) or not path:
            raise ConfigError("'path' must be a non-empty string")
        root = self.manager.config.snapshot_dir
        if root is None:
            raise ConfigError(
                "client-supplied snapshot paths need a configured "
                "serve(snapshot_dir=...) to resolve against - omit "
                "'path' or configure a snapshot_dir"
            )
        root_real = os.path.realpath(root)
        resolved = os.path.realpath(os.path.join(root_real, path))
        if resolved != root_real and not resolved.startswith(
            root_real + os.sep
        ):
            raise ConfigError(
                f"snapshot path {path!r} escapes the service snapshot "
                "directory"
            )
        return resolved

    async def _operate(
        self, name: str, action: str, body: dict[str, Any]
    ) -> dict[str, Any]:
        session = self.manager.get(name)
        if action == "ingest":
            ranked = await session.ingest(
                _records(body), sources=body.get("sources")
            )
            return {"comparisons": _triples(ranked)}
        if action == "probe":
            decide = body.get("decide", False)
            if not isinstance(decide, bool):
                raise ConfigError(f"'decide' must be a bool, got {decide!r}")
            scored = await session.probe(
                _records(body),
                sources=body.get("sources"),
                decide=decide,
            )
            if decide:
                return {"results": [_decided(ranked) for ranked in scored]}
            return {"results": [_triples(ranked) for ranked in scored]}
        if action == "stream":
            limit = body.get("limit", 100)
            if not isinstance(limit, int) or limit < 0:
                raise ConfigError(f"'limit' must be an int >= 0, got {limit!r}")
            batch = await session.stream(limit)
            return {"comparisons": _triples(batch)}
        if action == "snapshot":
            return await session.snapshot(self._client_path(body.get("path")))
        raise KeyError(f"no session action {action!r}")


class _MethodNotAllowed(Exception):
    pass


class _BadRequest(Exception):
    """Malformed request framing (answered with a 400, then close)."""


def _require(method: str, expected: str) -> None:
    if method != expected:
        raise _MethodNotAllowed(f"use {expected}, not {method}")


def _records(body: dict[str, Any]) -> list[Any]:
    records = body.get("records")
    if not isinstance(records, list):
        raise ConfigError("the request body needs a 'records' list")
    return records


class ServiceServer:
    """A keep-alive HTTP/1.1 server wrapping a :class:`ServiceApp`.

    ``start()`` binds (``port=0`` picks a free port - read it back from
    :attr:`port`); ``stop()`` closes the listener and in-flight
    connections.  The protocol subset: one JSON request per
    ``Content-Length``-framed message, responses framed the same way,
    connections stay open until the client closes or sends
    ``Connection: close``.
    """

    def __init__(
        self, manager: SessionManager, host: str = "127.0.0.1", port: int = 0
    ) -> None:
        self.app = ServiceApp(manager)
        self.host = host
        self._requested_port = port
        self._server: asyncio.AbstractServer | None = None

    @property
    def port(self) -> int:
        """The actually bound port (after ``start()``)."""
        if self._server is None:
            raise RuntimeError("server not started")
        sockets = self._server.sockets or []
        return int(sockets[0].getsockname()[1])

    async def start(self) -> "ServiceServer":
        self._server = await asyncio.start_server(
            self._serve_connection, self.host, self._requested_port
        )
        return self

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        await self._server.serve_forever()

    # -- the wire -------------------------------------------------------------

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    request = await self._read_request(reader)
                except _BadRequest as exc:
                    # Malformed framing: answer 400 and drop the
                    # connection (request boundaries are lost).
                    await self._write_response(
                        writer, 400, {"error": str(exc)}, keep_alive=False
                    )
                    break
                if request is None:
                    break
                method, path, headers, payload = request
                status, response = await self._respond(method, path, payload)
                keep_alive = headers.get("connection", "").lower() != "close"
                await self._write_response(
                    writer, status, response, keep_alive
                )
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away mid-request; nothing to answer
        except asyncio.CancelledError:
            pass  # server shutdown cancelled the handler mid-await
        finally:
            writer.close()
            with contextlib.suppress(ConnectionError, asyncio.CancelledError):
                await writer.wait_closed()

    async def _respond(
        self, method: str, path: str, payload: bytes | None
    ) -> tuple[int, dict[str, Any]]:
        if payload is None:
            return 413, {"error": "request body too large"}
        if payload:
            try:
                body = json.loads(payload)
            except ValueError:
                return 400, {"error": "request body is not valid JSON"}
            if not isinstance(body, dict):
                return 400, {"error": "request body must be a JSON object"}
        else:
            body = None
        try:
            return await self.app.handle(method, path, body)
        except Exception as exc:  # pragma: no cover - the 500 safety net
            return 500, {"error": f"{type(exc).__name__}: {exc}"}

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> tuple[str, str, dict[str, str], bytes | None] | None:
        try:
            line = await reader.readline()
        except (ConnectionError, asyncio.IncompleteReadError):
            return None
        except ValueError:
            # The StreamReader limit tripped: request line too long.
            raise _BadRequest("request line too long") from None
        if not line.strip():
            return None
        try:
            method, target, _version = line.decode("latin1").split()
        except ValueError:
            return None
        headers: dict[str, str] = {}
        header_bytes = 0
        while True:
            try:
                raw = await reader.readline()
            except ValueError:
                raise _BadRequest("header line too long") from None
            if raw in (b"\r\n", b"\n", b""):
                break
            header_bytes += len(raw)
            if (
                len(headers) >= MAX_HEADER_COUNT
                or header_bytes > MAX_HEADER_BYTES
            ):
                raise _BadRequest("too many request headers")
            key, _, value = raw.decode("latin1").partition(":")
            headers[key.strip().lower()] = value.strip()
        # Strip any query string: routes are path-only, bodies are JSON.
        path = target.split("?", 1)[0]
        try:
            length = int(headers.get("content-length", "0") or "0")
        except ValueError:
            raise _BadRequest(
                f"invalid Content-Length "
                f"{headers.get('content-length')!r}"
            ) from None
        if length < 0:
            raise _BadRequest(f"invalid Content-Length {length!r}")
        if length > MAX_BODY_BYTES:
            # Cannot skip the oversized body without reading it; answer
            # 413 and drop the connection (framing is lost anyway).
            headers["connection"] = "close"
            return method.upper(), path, headers, None
        payload = await reader.readexactly(length) if length else b""
        return method.upper(), path, headers, payload

    async def _write_response(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: dict[str, Any],
        keep_alive: bool,
    ) -> None:
        body = json.dumps(payload, separators=(",", ":")).encode()
        head = (
            f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
            "\r\n"
        ).encode("latin1")
        writer.write(head + body)
        await writer.drain()
