"""The ``"numpy-parallel"`` backend: the CSR engine, sharded.

:class:`ParallelBackend` is the ``numpy`` backend with a different
fan-out: every structure, kernel and assembly is
:mod:`repro.engine`'s, but each range-kernel pass is cut into
:func:`~repro.parallel.fanout.balanced_ranges` and run over a
:class:`~repro.parallel.pool.WorkerPool` - bit-identical streams, more
cores.  The class itself only owns the pool; the bounds of its knobs
have one statement, :func:`check_pool_knobs`.

Configuration travels as a *backend instance*: the registry entry
builds an unconfigured backend (``workers=None`` - one per visible
core), while ``ERPipeline().parallel(workers=..., shards=...)`` and
:func:`repro.resolve` construct configured instances and hand them
straight to the methods (every method's ``backend=`` accepts an
instance as well as a name).

This module must import cleanly without numpy - the backends registry
loads it eagerly - so all array machinery is imported lazily inside the
methods, mirroring :mod:`repro.engine`.
"""

from __future__ import annotations

import os
from typing import Any

from repro.engine import NumpyBackend
from repro.errors import ConfigError
from repro.registry import backends


def check_pool_knobs(workers: int | None, shards: int | None = None) -> None:
    """The bounds of the fan-out knobs - their one statement, reached by
    the ``parallel`` config stage, :class:`ParallelBackend` and
    :class:`~repro.parallel.pool.WorkerPool` alike (``None`` means
    "resolve later" and is always in bounds)."""
    if workers is not None and workers < 0:
        raise ConfigError(f"workers must be >= 0, got {workers!r}")
    if shards is not None and shards < 1:
        raise ConfigError(f"shards must be >= 1, got {shards!r}")


def default_worker_count() -> int:
    """The ``workers=None`` resolution: one worker per *visible* core.

    Visible means the process's CPU affinity mask where the platform
    has one (a container or ``taskset`` may expose fewer cores than the
    machine owns); ``os.cpu_count()`` elsewhere.
    """
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) or 1
    return os.cpu_count() or 1


class ParallelBackend(NumpyBackend):
    """Sharded multi-process execution of the CSR engine.

    Parameters
    ----------
    workers:
        Worker processes: ``None`` (default) resolves to one per
        visible core; ``0``/``1`` runs every shard inline in-process
        (the same code path, no processes - useful for tests and
        single-core machines).
    shards:
        Shard count per fan-out; ``None`` matches the resolved worker
        count (at least 1).  More shards than workers smooths
        imbalance at the cost of per-shard overhead.
    storage, storage_dir:
        As :class:`~repro.engine.NumpyBackend`: ``storage="memmap"``
        serves the merged CSR structures from disk-backed scratch
        arrays instead of RAM.
    """

    name = "numpy-parallel"

    def __init__(
        self,
        workers: int | None = None,
        shards: int | None = None,
        storage: str = "ram",
        storage_dir: str | None = None,
    ) -> None:
        super().__init__(storage=storage, storage_dir=storage_dir)
        check_pool_knobs(workers, shards)
        if workers is None:
            workers = default_worker_count()
        self.workers = workers
        self.shards = shards if shards is not None else max(workers, 1)
        self._pool: Any = None

    def pool(self) -> Any:
        """The backend's (lazily created) worker pool."""
        if self._pool is None:
            from repro.parallel.pool import WorkerPool

            self._pool = WorkerPool(self.workers)
        return self._pool

    def fanout(self) -> Any:
        """``shards`` ranges per engine pass, run over :meth:`pool`."""
        from repro.parallel.fanout import PoolFanout

        return PoolFanout(self.shards, self.pool())

    def close(self) -> None:
        """Tear down the pool and scratch store (both also die with
        the backend)."""
        if self._pool is not None:
            self._pool.close()
            self._pool = None
        super().close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ParallelBackend(workers={self.workers}, "
            f"shards={self.shards})"
        )


backends.register(
    "numpy-parallel",
    ParallelBackend,
    aliases=("parallel", "np-parallel", "sharded"),
)
