"""Sharded multi-core execution: the ``numpy-parallel`` backend.

The array engine (:mod:`repro.engine`) made every hot path a handful of
numpy passes, each written once as a *range kernel* over a contiguous
slice of its row axis - but a single process caps them at one core.
This package is the other answer to "which ranges, and who runs them":
it cuts each pass into shards, runs them across worker processes and
puts the outputs back together in range order - the *globally correct*
progressive stream.  It holds no kernel of its own:

* :mod:`repro.parallel.pool` - :class:`WorkerPool`: a fork-based process
  pool that ships a payload of CSR arrays once per pool (pickled, or via
  a shared ``np.memmap``) and fans shard tasks over it; ``workers=0``
  runs the identical shard code inline, which is what the parity suite
  exercises exhaustively;
* :mod:`repro.parallel.fanout` - :func:`balanced_ranges` partitions
  profiles (or blocks, or positions) into contiguous ranges,
  size-balanced by postings mass read off a CSR ``indptr``, and
  :class:`PoolFanout` is those ranges over the pool as the
  :class:`~repro.engine.fanout.Fanout` the engine's structures are
  handed (shards are contiguous slices of the exact event streams the
  kernels walk, so per-key accumulation order is preserved and the
  streams are *bit-identical* to ``numpy``'s; rankings are never
  sharded);
* :mod:`repro.parallel.backend` - :class:`ParallelBackend`, registered
  as ``"numpy-parallel"`` in :data:`repro.registry.backends`: the
  ``numpy`` backend with that fan-out.

Select it like any other backend - ``resolve(data, method="PPS",
backend="numpy-parallel")``, ``ERPipeline().parallel(workers=4)``,
``PPS(store, backend="numpy-parallel")`` - and the emission stream is
the same stream ``"numpy"`` produces, comparison for comparison
(property-tested under ``tests/parallel/``).

Parallelism pays off when candidate scoring dominates: large block
collections (graph build) and wide window ranges (GS-PSN).  See
``docs/parallel.md`` for the sharding model and worker-count guidance.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - typing only
    # Give type checkers the real symbols behind the lazy __getattr__
    # below (which they cannot see through).
    from repro.parallel.backend import ParallelBackend
    from repro.parallel.fanout import PoolFanout, balanced_ranges
    from repro.parallel.pool import WorkerPool

__all__ = ["WorkerPool", "PoolFanout", "ParallelBackend", "balanced_ranges"]

# Submodules import numpy at module level (they are array code through
# and through); the package itself stays importable without it - like
# repro.engine - because the backends registry imports
# repro.parallel.backend to register "numpy-parallel" on machines that
# may only ever use backend="python".
_EXPORTS = {
    "WorkerPool": "repro.parallel.pool",
    "PoolFanout": "repro.parallel.fanout",
    "balanced_ranges": "repro.parallel.fanout",
    "ParallelBackend": "repro.parallel.backend",
}


def __getattr__(name: str) -> Any:
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module 'repro.parallel' has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module), name)
