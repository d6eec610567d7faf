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
  only their ``(lo, hi)`` ranges.  Under fork the workers inherit the
  initializer's arguments, so the payload is not even pickled; where
  fork is unavailable it travels through the initializer's pickle.

The pool re-ships lazily: consecutive :meth:`~WorkerPool.run` calls
with the same payload object reuse the live pool, a new payload
recreates it, and a ``None`` payload (shard arguments that carry their
own data) runs on whatever pool is live.
"""

from __future__ import annotations

import multiprocessing
import weakref
from typing import Any, Callable, Sequence

from repro.engine import require_numpy

require_numpy("repro.parallel.pool")

from repro.parallel.backend import check_pool_knobs, default_worker_count  # noqa: E402

#: Worker-process global holding the payload (set by the pool
#: initializer, read by :func:`_worker_run`).
_PAYLOAD: dict[str, Any] | None = None


def _worker_init(payload: dict[str, Any]) -> None:
    global _PAYLOAD
    _PAYLOAD = payload


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
    """

    def __init__(self, workers: int | None = 0) -> None:
        check_pool_knobs(workers)
        self.workers = default_worker_count() if workers is None else int(workers)
        self._pool: Any = None
        self._payload: dict[str, Any] | None = None  # identity for reuse
        self._finalizer = weakref.finalize(self, WorkerPool._cleanup, None)

    # -- lifecycle -----------------------------------------------------------

    @property
    def parallel(self) -> bool:
        """Whether this pool actually uses worker processes."""
        return self.workers >= 2

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
            initargs=(payload,),
        )
        self._pool = pool
        self._payload = payload
        self._finalizer.detach()
        self._finalizer = weakref.finalize(self, WorkerPool._cleanup, pool)
        return pool

    @staticmethod
    def _cleanup(pool: Any) -> None:
        if pool is not None:
            pool.terminate()
            pool.join()

    def close(self) -> None:
        """Tear down the live pool now."""
        WorkerPool._cleanup(self._pool)
        self._pool = None
        self._payload = None

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
            # A worker crash (or parent interrupt) leaves the pool
            # unusable; tear it down now instead of waiting for garbage
            # collection.
            self.close()
            raise

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "live" if self._pool is not None else "idle"
        return f"WorkerPool(workers={self.workers}, {state})"
