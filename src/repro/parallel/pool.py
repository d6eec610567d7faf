"""The worker pool: process fan-out with one-shot payload shipping.

A :class:`WorkerPool` runs *shard tasks* - module-level functions
``task(payload, shard_arg)``, the engine's range kernels - over a
shared read-only payload of numpy arrays:

* ``workers=0`` (and any single-shard run) executes inline in the
  calling process: the exact same shard code and merge path, no
  processes.  This is the mode the parity suite sweeps exhaustively,
  and the sensible default on single-core machines.
* ``workers>=2`` spawns a ``multiprocessing`` pool (fork start method
  when the platform offers it) and ships the payload **once per pool**
  through the initializer, not once per task - shard tasks then carry
  only their ``(lo, hi)`` ranges.

Payload shipping is pluggable:

* ``ship="pickle"`` (default) - arrays travel through the initializer's
  pickle; simple, always works.
* ``ship="memmap"`` - arrays are written once to ``.npy`` files in a
  private temp directory and workers open them with
  ``np.load(mmap_mode="r")``: the OS page cache shares one physical
  copy across every worker, which is the right call when the CSR
  payload is large relative to the per-shard compute.

The pool re-ships lazily: consecutive :meth:`~WorkerPool.run` calls
with the same payload object reuse the live pool, a new payload
recreates it, and a ``None`` payload (shard arguments that carry their
own data) runs on whatever pool is live.
"""

from __future__ import annotations

import multiprocessing
import os
import shutil
import tempfile
import weakref
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro.engine import require_numpy

require_numpy("repro.parallel.pool")

import numpy as np  # noqa: E402  (guarded optional dependency)

from repro.parallel.backend import check_pool_knobs, default_worker_count  # noqa: E402

#: Worker-process global holding the resolved payload (set by the pool
#: initializer, read by :func:`_worker_run`).
_PAYLOAD: dict[str, Any] | None = None


@dataclass(frozen=True)
class _ArrayRef:
    """A memmap-shipped array: enough metadata to reopen it read-only."""

    path: str

    def resolve(self) -> np.ndarray:
        return np.load(self.path, mmap_mode="r")


def _resolve_payload(shipped: dict[str, Any]) -> dict[str, Any]:
    return {
        key: value.resolve() if isinstance(value, _ArrayRef) else value
        for key, value in shipped.items()
    }


def _worker_init(shipped: dict[str, Any]) -> None:
    global _PAYLOAD
    _PAYLOAD = _resolve_payload(shipped)


def _worker_run(call: tuple[Callable[..., Any], Any, bool]) -> Any:
    task, shard_arg, resident = call
    if not resident:
        return task(None, shard_arg)
    assert _PAYLOAD is not None, "worker used before initialization"
    return task(_PAYLOAD, shard_arg)


#: Initializer payload for pools that have only run payload-free tasks.
_NO_PAYLOAD: dict[str, Any] = {}


class WorkerPool:
    """Fan shard tasks over a payload, inline or across processes.

    Parameters
    ----------
    workers:
        ``0``/``1`` - inline execution (no processes); ``>= 2`` - a
        process pool of that size; ``None`` - one per visible core.
    ship:
        Payload transport for process mode: ``"pickle"`` or
        ``"memmap"`` (see module docstring).  Ignored inline.
    """

    def __init__(self, workers: int | None = 0, ship: str = "pickle") -> None:
        check_pool_knobs(workers, ship=ship)
        self.workers = default_worker_count() if workers is None else int(workers)
        self.ship = ship
        self._pool: Any = None
        self._payload: dict[str, Any] | None = None  # identity for reuse
        self._tempdir: str | None = None
        self._finalizer = weakref.finalize(self, WorkerPool._cleanup, None, None)

    # -- lifecycle -----------------------------------------------------------

    @property
    def parallel(self) -> bool:
        """Whether this pool actually uses worker processes."""
        return self.workers >= 2

    def _ship_payload(self, payload: dict[str, Any]) -> dict[str, Any]:
        if self.ship != "memmap":
            return payload
        self._tempdir = tempfile.mkdtemp(prefix="repro-parallel-")
        shipped: dict[str, Any] = {}
        for key, value in payload.items():
            if isinstance(value, np.ndarray):
                path = os.path.join(self._tempdir, f"{key}.npy")
                np.save(path, value)
                shipped[key] = _ArrayRef(path)
            else:
                shipped[key] = value
        return shipped

    def _ensure_pool(self, payload: dict[str, Any]) -> Any:
        if self._pool is not None and self._payload is payload:
            return self._pool
        self.close()
        methods = multiprocessing.get_all_start_methods()
        context = multiprocessing.get_context(
            "fork" if "fork" in methods else None
        )
        pool = context.Pool(
            processes=self.workers,
            initializer=_worker_init,
            initargs=(self._ship_payload(payload),),
        )
        self._pool = pool
        self._payload = payload
        tempdir = self._tempdir
        self._finalizer.detach()
        self._finalizer = weakref.finalize(
            self, WorkerPool._cleanup, pool, tempdir
        )
        return pool

    @staticmethod
    def _cleanup(pool: Any, tempdir: str | None) -> None:
        if pool is not None:
            pool.terminate()
            pool.join()
        if tempdir is not None:
            shutil.rmtree(tempdir, ignore_errors=True)

    def close(self) -> None:
        """Tear down the live pool (and any memmap files) now."""
        WorkerPool._cleanup(self._pool, self._tempdir)
        self._pool = None
        self._payload = None
        self._tempdir = None

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- execution -----------------------------------------------------------

    def run(
        self,
        task: Callable[[Any, Any], Any],
        payload: dict[str, Any] | None,
        shard_args: Sequence[Any],
    ) -> list[Any]:
        """``[task(payload, arg) for arg in shard_args]``, maybe in parallel.

        Results come back in shard order regardless of execution order.
        Falls back to inline execution when the pool has no workers or
        there is at most one shard to run.

        ``payload=None`` is for tasks whose arguments carry their own
        (per-shard) data instead of reading a resident payload: it
        reuses whatever pool is live, so interleaving resident and
        payload-free runs never re-ships anything; only if no pool
        exists yet is one started.
        """
        if not self.parallel or len(shard_args) <= 1:
            return [task(payload, arg) for arg in shard_args]
        if payload is None and self._pool is not None:
            pool = self._pool
        else:
            pool = self._ensure_pool(_NO_PAYLOAD if payload is None else payload)
        calls = [(task, arg, payload is not None) for arg in shard_args]
        try:
            return pool.map(_worker_run, calls, chunksize=1)
        except BaseException:
            # A worker crash (or parent interrupt) leaves the pool - and
            # any memmap-shipped payload files - unusable; tear both down
            # now instead of waiting for garbage collection.
            self.close()
            raise

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "live" if self._pool is not None else "idle"
        return f"WorkerPool(workers={self.workers}, ship={self.ship!r}, {state})"
