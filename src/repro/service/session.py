"""Named live sessions, admission control and per-session metrics.

The :class:`SessionManager` is the service core the HTTP front-end and
the in-process client both talk to: it owns named
:class:`~repro.incremental.resolver.IncrementalResolver` sessions and
exposes their operations as coroutines.  Resolver calls are blocking
CPU work, so every operation is off-loaded to a shared thread pool;
*within* a session the resolver's own lock serializes ingests and
probes (probes mutate and roll back the shared index);
:meth:`ServiceSession.probe` scores a whole batch under one lock hold
through ``resolve_many``.

Admission control reuses the pipeline's
:class:`~repro.pipeline.config.BudgetConfig` semantics (``None`` means
unlimited, ``0`` admits nothing).  An over-budget request is *rejected*
with :class:`~repro.errors.BudgetExceeded` - never queued - carrying a
machine-readable ``reason`` token:

========================  ====================================================
reason                    trigger
========================  ====================================================
``queue-full``            session already has ``max_pending`` requests in
                          flight
``session-comparisons``   the session has served its lifetime comparison
                          budget
``session-seconds``       the session has outlived its lifetime seconds
                          budget
``request-seconds``       the request waited in the queue longer than its
                          own seconds budget
========================  ====================================================

``request_budget.comparisons`` is not a rejection but a cap: each
probe's (or ingest's) result list keeps the best-ranked ``comparisons``
entries.  A probe decides only what it keeps; an ingest decides every
pair it admits, so a session's matches never depend on the cap.
"""

from __future__ import annotations

import asyncio
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Iterable,
    Mapping,
    Sequence,
    TypeAlias,
    TypeVar,
)

from repro.core.comparisons import Comparison
from repro.core.profiles import EntityProfile
from repro.errors import BudgetExceeded, ConfigError, SessionClosed
from repro.incremental.resolver import IncrementalResolver, Resolved
from repro.pipeline.builder import ERPipeline
from repro.pipeline.config import ServiceConfig
from repro.service.snapshot import read_manifest

_T = TypeVar("_T")

#: Latency samples kept per session (a ring of the most recent probes).
_LATENCY_WINDOW = 1024

#: Anything the resolver's ingestion coercion accepts as one record.
Record: TypeAlias = (
    "EntityProfile | Mapping[str, object] | Iterable[tuple[str, object]]"
)


def _percentile(samples: Sequence[float], fraction: float) -> float | None:
    """Nearest-rank percentile of ``samples`` (``None`` when empty)."""
    if not samples:
        return None
    ordered = sorted(samples)
    rank = min(len(ordered) - 1, max(0, round(fraction * (len(ordered) - 1))))
    return ordered[rank]


@dataclass
class SessionMetrics:
    """Mutable per-session counters behind :meth:`ServiceSession.metrics`."""

    probes: int = 0
    ingests: int = 0
    rejected: int = 0
    comparisons_served: int = 0
    snapshots: int = 0
    last_snapshot_unix: float | None = None
    probe_latencies: list[float] = field(default_factory=list)


class ServiceSession:
    """One named live session: a resolver plus service bookkeeping.

    Not constructed directly - :meth:`SessionManager.create` and
    :meth:`SessionManager.restore` build these.  All coroutine methods
    run their resolver work on the manager's thread pool; admission
    happens on the event loop before the work is queued.
    """

    def __init__(
        self,
        name: str,
        resolver: IncrementalResolver,
        config: ServiceConfig,
        executor: ThreadPoolExecutor,
    ) -> None:
        self.name = name
        self.resolver = resolver
        self.config = config
        self._executor = executor
        self._pending = 0
        self._created = time.monotonic()
        self._metrics = SessionMetrics()
        #: Guards the metrics/pending counters: admission runs on the
        #: event loop, latency recording on pool threads.
        self._stats_lock = threading.Lock()

    # -- admission control ----------------------------------------------------

    def _admit(self) -> None:
        """Admit one request or raise the typed rejection."""
        if self.resolver.closed:
            raise SessionClosed(
                f"session {self.name!r} is closed; create or restore a "
                "fresh one"
            )
        budget = self.config.session_budget
        with self._stats_lock:
            if self._pending >= self.config.max_pending:
                self._metrics.rejected += 1
                raise BudgetExceeded(
                    f"session {self.name!r} already has "
                    f"{self._pending} requests in flight "
                    f"(max_pending={self.config.max_pending})",
                    reason="queue-full",
                )
            if (
                budget.comparisons is not None
                and self._metrics.comparisons_served >= budget.comparisons
            ):
                self._metrics.rejected += 1
                raise BudgetExceeded(
                    f"session {self.name!r} has served "
                    f"{self._metrics.comparisons_served} comparisons "
                    f"(session budget {budget.comparisons})",
                    reason="session-comparisons",
                )
            if (
                budget.seconds is not None
                and time.monotonic() - self._created >= budget.seconds
            ):
                self._metrics.rejected += 1
                raise BudgetExceeded(
                    f"session {self.name!r} is older than its lifetime "
                    f"budget of {budget.seconds}s",
                    reason="session-seconds",
                )
            self._pending += 1

    async def _run(self, work: Callable[[], _T]) -> _T:
        """Admit, then run ``work`` on the pool; always settle counters."""
        self._admit()
        queued = time.monotonic()
        deadline = self.config.request_budget.seconds
        loop = asyncio.get_running_loop()

        def guarded() -> _T:
            # The queue-wait check runs on the pool thread right before
            # the work starts: a request that could not *start* within
            # its seconds budget is rejected, not served late.
            waited = time.monotonic() - queued
            if deadline is not None and waited >= deadline:
                with self._stats_lock:
                    self._metrics.rejected += 1
                raise BudgetExceeded(
                    f"request waited {waited:.3f}s in the queue of session "
                    f"{self.name!r} (request budget {deadline}s)",
                    reason="request-seconds",
                )
            return work()

        try:
            return await loop.run_in_executor(self._executor, guarded)
        finally:
            with self._stats_lock:
                self._pending -= 1

    # -- operations -----------------------------------------------------------

    async def ingest(
        self,
        records: Iterable[Record],
        sources: Iterable[int] | None = None,
    ) -> Resolved:
        """Ingest a batch; returns what ``add_profiles`` returns, capped."""
        items = list(records)

        def work() -> Resolved:
            cap = self.config.request_budget.comparisons
            ranked = self.resolver.add_profiles(items, sources)[:cap]
            with self._stats_lock:
                self._metrics.ingests += 1
                self._metrics.comparisons_served += len(ranked)
            return ranked

        return await self._run(work)

    async def probe(
        self,
        records: Iterable[Record],
        sources: Iterable[int] | None = None,
    ) -> list[Resolved]:
        """Read-only probes for a batch (``resolve_many``), each capped
        before a match stage decides it."""
        items = list(records)

        def work() -> list[Resolved]:
            started = time.monotonic()
            capped = self.resolver.resolve_many(
                items,
                sources=sources,
                limit=self.config.request_budget.comparisons,
            )
            with self._stats_lock:
                stats = self._metrics
                stats.probes += 1
                stats.comparisons_served += sum(map(len, capped))
                stats.probe_latencies.append(time.monotonic() - started)
                del stats.probe_latencies[: -_LATENCY_WINDOW]
            return capped

        return await self._run(work)

    async def stream(self, limit: int) -> list[Comparison]:
        """The next ``limit`` comparisons of the global ranked stream."""

        def work() -> list[Comparison]:
            batch = self.resolver.next_batch(limit)
            with self._stats_lock:
                self._metrics.comparisons_served += len(batch)
            return batch

        return await self._run(work)

    async def snapshot(self, path: str | None = None) -> dict[str, Any]:
        """Persist the session; returns the written manifest without
        its ``matches``, so the answer does not grow with them."""
        if path is None:
            if self.config.snapshot_dir is None:
                raise ConfigError(
                    "no snapshot path given and the service has no "
                    "snapshot_dir - pass a path or configure "
                    "serve(snapshot_dir=...)"
                )
            path = os.path.join(self.config.snapshot_dir, self.name)

        def work() -> dict[str, Any]:
            manifest = read_manifest(self.resolver.save(path))
            del manifest["matches"]
            with self._stats_lock:
                self._metrics.snapshots += 1
                self._metrics.last_snapshot_unix = manifest["created_unix"]
            return {"path": path, **manifest}

        return await self._run(work)

    # -- introspection --------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self.resolver.closed

    def metrics(self) -> dict[str, Any]:
        """A JSON-able point-in-time view of the session's counters."""
        with self._stats_lock:
            stats = self._metrics
            latencies = list(stats.probe_latencies)
            snapshot_age = (
                None
                if stats.last_snapshot_unix is None
                else max(0.0, time.time() - stats.last_snapshot_unix)
            )
            return {
                "name": self.name,
                "closed": self.resolver.closed,
                "profiles": self.resolver.corpus_size,
                "generation": self.resolver.index.generation,
                "age_seconds": time.monotonic() - self._created,
                "queue_depth": self._pending,
                "probes": stats.probes,
                "ingests": stats.ingests,
                "rejected": stats.rejected,
                "comparisons_served": stats.comparisons_served,
                "probe_latency_p50": _percentile(latencies, 0.50),
                "probe_latency_p95": _percentile(latencies, 0.95),
                "cascade": self.resolver.cascade_stats(),
                "snapshots": stats.snapshots,
                "snapshot_age_seconds": snapshot_age,
            }

    def close(self) -> None:
        """Close the underlying resolver (idempotent, probe-safe)."""
        self.resolver.close()


class SessionManager:
    """The registry of named sessions behind one served pipeline spec.

    Every session fits the same pipeline (its ``.serve(...)`` stage
    supplies the :class:`ServiceConfig`; a pipeline without one gets
    ``serve()`` defaults).  Sessions share a thread pool sized for
    lock-serialized resolver work.
    """

    def __init__(
        self,
        pipeline: ERPipeline | None = None,
        *,
        max_threads: int | None = None,
    ) -> None:
        if pipeline is None:
            pipeline = ERPipeline().serve()
        if pipeline.config.service is None:
            # Normalize through the spec round-trip (no caller mutation)
            # and attach the default service stage.
            pipeline = ERPipeline.from_dict(pipeline.to_dict()).serve()
        self.pipeline = pipeline
        service = pipeline.config.service
        assert service is not None
        self.config: ServiceConfig = service
        self._sessions: dict[str, ServiceSession] = {}
        #: Guards the session registry: lifecycle operations may run on
        #: pool threads (the HTTP front-end off-loads them) while reads
        #: happen on the event loop.
        self._registry_lock = threading.Lock()
        self._executor = ThreadPoolExecutor(
            max_workers=max_threads or min(8, (os.cpu_count() or 1) + 2),
            thread_name_prefix="repro-service",
        )
        self._closed = False

    async def offload(self, work: Callable[[], _T]) -> _T:
        """Run blocking ``work`` on the manager's thread pool.

        The seam the HTTP front-end uses for lifecycle operations
        (create's seed ``fit``, restore's disk load, delete's
        lock-acquiring ``close``) so they never stall the event loop.
        """
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(self._executor, work)

    # -- lifecycle ------------------------------------------------------------

    def create(
        self, name: str, records: Iterable[Record] | None = None
    ) -> ServiceSession:
        """Fit a fresh named session (optionally seeded with records)."""
        self._check_open()
        _check_name(name)
        if name in self._sessions:
            raise ConfigError(f"session {name!r} already exists")
        resolver = self.pipeline.fit(list(records or []))
        assert isinstance(resolver, IncrementalResolver)
        session = ServiceSession(name, resolver, self.config, self._executor)
        return self._register(name, session)

    def restore(self, name: str, path: str | None = None) -> ServiceSession:
        """Rebuild a named session from a snapshot directory.

        ``path`` defaults to ``snapshot_dir/name`` - the location
        :meth:`ServiceSession.snapshot` writes without an explicit path.
        The restored session *keeps the snapshot's pipeline spec* (that
        is what makes its stream bit-identical), not the manager's.
        """
        self._check_open()
        _check_name(name)
        if name in self._sessions:
            raise ConfigError(f"session {name!r} already exists")
        if path is None:
            if self.config.snapshot_dir is None:
                raise ConfigError(
                    "no snapshot path given and the service has no "
                    "snapshot_dir - pass a path or configure "
                    "serve(snapshot_dir=...)"
                )
            path = os.path.join(self.config.snapshot_dir, name)
        resolver = IncrementalResolver.load(path)
        session = ServiceSession(name, resolver, self.config, self._executor)
        return self._register(name, session)

    def _register(self, name: str, session: ServiceSession) -> ServiceSession:
        """Atomically claim ``name``; the loser of a race is closed."""
        with self._registry_lock:
            if not self._closed and name not in self._sessions:
                self._sessions[name] = session
                return session
        session.close()
        if self._closed:
            raise SessionClosed("this SessionManager is closed")
        raise ConfigError(f"session {name!r} already exists")

    def get(self, name: str) -> ServiceSession:
        """The named session (:class:`KeyError` when unknown)."""
        self._check_open()
        try:
            return self._sessions[name]
        except KeyError:
            raise KeyError(f"no session named {name!r}") from None

    def names(self) -> list[str]:
        with self._registry_lock:
            return sorted(self._sessions)

    def delete(self, name: str) -> None:
        """Close and forget the named session."""
        self._check_open()
        with self._registry_lock:
            try:
                session = self._sessions.pop(name)
            except KeyError:
                raise KeyError(f"no session named {name!r}") from None
        # Close outside the registry lock: it waits for the session's
        # in-flight resolver work and must not block other lifecycle ops.
        session.close()

    def metrics(self) -> dict[str, Any]:
        """Service-wide metrics: per-session views plus totals.

        The registry is copied under its lock and the views are built
        after releasing it: a session deleted meanwhile still reports.
        """
        with self._registry_lock:
            registered = sorted(self._sessions.items())
        sessions = [session.metrics() for _, session in registered]
        return {
            "sessions": sessions,
            "session_count": len(sessions),
            "comparisons_served": sum(
                view["comparisons_served"] for view in sessions
            ),
            "rejected": sum(view["rejected"] for view in sessions),
        }

    # -- teardown -------------------------------------------------------------

    def _check_open(self) -> None:
        if self._closed:
            raise SessionClosed("this SessionManager is closed")

    def close(self) -> None:
        """Close every session and the shared pool (idempotent)."""
        with self._registry_lock:
            if self._closed:
                return
            self._closed = True
            doomed = list(self._sessions.values())
            self._sessions.clear()
        for session in doomed:
            session.close()
        self._executor.shutdown(wait=True)

    def __enter__(self) -> "SessionManager":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


def _check_name(name: str) -> None:
    """Session names travel in URLs and snapshot paths - keep them tame."""
    if (
        not name
        or not all(ch.isalnum() or ch in "-_." for ch in name)
        or name.startswith(".")
    ):
        raise ConfigError(
            f"invalid session name {name!r}: use letters, digits, '-', "
            "'_' and '.' (not leading)"
        )
