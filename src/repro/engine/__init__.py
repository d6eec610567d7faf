"""Array-backed engine core: the ``numpy`` execution backend.

The paper's progressive methods are dominated by candidate-scoring data
structures: the Profile Index (PPS/PBS, Section 5.2) and the Position
Index over the Neighbor List (LS-PSN/GS-PSN, Section 5.1).  This package
re-implements the hot paths as contiguous numpy arrays:

* :mod:`repro.engine.substrate` - ``ArraySubstrate``: one tokenization
  sweep to CSR postings, vectorized purge/filter, the Neighbor List;
* :mod:`repro.engine.csr` - ``ArrayProfileIndex``: the Profile Index as
  CSR ``(indptr, indices)`` int arrays, holding what the kernels read;
* :mod:`repro.engine.weights` - vectorized implementations of all five
  Blocking Graph weighting schemes (ARCS/CBS/ECBS/JS/EJS) that score an
  entire neighborhood in one array pass - the rows of an
  ``ArrayBlockingGraph``, built on first use - or a batch of pairs
  straight off the Profile Index (PBS);
* :mod:`repro.engine.topk` - exact top-k emission via ``argpartition``
  instead of per-pair heap pushes;
* :mod:`repro.engine.equality` / :mod:`repro.engine.similarity` - the
  emission cores of PPS, PBS, LS-PSN and GS-PSN (the PSN core slides
  the Neighbor List's ``entries`` directly - no position index).

A method on this backend reads only these structures: an injected
reference substrate is refused, never converted.

Every kernel is engineered to reproduce the pure-Python reference
*bit-identically*: accumulations run in the same left-to-right order the
Python loops use (``np.bincount`` and ``np.cumsum`` are sequential),
logarithm factors are precomputed with :func:`math.log`, and ties are
broken with the same ``(-weight, i, j)`` order.  The parity suite under
``tests/engine/`` asserts identical emission streams for all scheme x
method combinations.

Backend selection is a registry concern: ``"python"`` (the reference
implementation, always available) and ``"numpy"`` (this package) are
registered in :data:`repro.registry.backends`; select per method
(``PPS(store, backend="numpy")``), per pipeline
(``ERPipeline().backend("numpy")``) or per call
(``resolve(data, method="PPS", backend="numpy")``).

numpy itself is an optional dependency (the ``repro[speed]`` extra);
importing :mod:`repro.engine` never imports numpy, and requesting the
numpy backend without it raises a clear, actionable error.
"""

from __future__ import annotations

import importlib.util
from typing import Any, cast

from repro.errors import ConfigError
from repro.registry import backends

#: Whether numpy is importable in this environment (checked without
#: importing it, so ``import repro.engine`` stays dependency-free).
HAS_NUMPY: bool = importlib.util.find_spec("numpy") is not None


#: Valid values for the ``storage=`` seam: ``"ram"`` keeps every array
#: in process memory (the default); ``"memmap"`` builds and serves the
#: CSR structures from disk-backed ``np.memmap`` scratch files so the
#: resident set stays bounded on million-profile workloads (see
#: :mod:`repro.engine.storage` and docs/scale.md).
STORAGE_MODES: tuple[str, ...] = ("ram", "memmap")


def check_storage_mode(mode: str) -> str:
    """Validate a ``storage=`` mode, returning it unchanged (an unknown
    one is a :class:`~repro.errors.ConfigError`)."""
    if mode not in STORAGE_MODES:
        raise ConfigError(
            f"unknown storage mode {mode!r}: expected one of {STORAGE_MODES}"
        )
    return mode


def require_numpy(feature: str = "the numpy backend") -> None:
    """Raise a clear error when numpy is missing for ``feature``.

    The repo treats numpy as an optional accelerator (the ``[speed]``
    extra in pyproject.toml); the pure-Python reference backend covers
    every feature without it.
    """
    if not HAS_NUMPY:
        raise ModuleNotFoundError(
            f"{feature} requires numpy, which is not installed. "
            "Install the speed extra (pip install 'repro[speed]') or "
            "plain numpy, or use backend='python' (the reference "
            "implementation, no dependencies)."
        )


class Backend:
    """One execution backend: the seam the progressive methods call.

    This class is the seam's one statement: every backend subclasses
    it, and ``mypy --strict`` holds each override to these signatures.
    It has eight factories, each with a caller in :mod:`repro`.  The
    python backend provides only :meth:`blocking_substrate` (the methods
    build the reference structures themselves); the vectorized backends
    provide all eight.
    """

    name: str = "abstract"

    @property
    def available(self) -> bool:
        """Whether this backend can run in the current environment."""
        return True

    @property
    def vectorized(self) -> bool:
        """Whether methods should use the array emission cores."""
        return False

    def require(self) -> "Backend":
        """Validate availability (no-op when available); returns self."""
        return self

    def close(self) -> None:
        """Release per-instance resources (scratch files, worker pools).

        The stock registry backends are stateless shared singletons and
        this is a no-op for them; *configured* instances (a memmap
        :class:`NumpyBackend`, a :class:`~repro.parallel.backend.\
ParallelBackend` with a live pool) override it.  Idempotent.
        """
        return None

    # -- structure factories (the backend seam) ---------------------------

    def blocking_substrate(self, store: Any, spec: Any) -> Any:
        """A session blocking front end over one tokenization sweep.

        Every structure the progressive methods need (final blocks,
        profile indexes in either processing order, the Neighbor List)
        derives lazily from the one cached sweep - see
        :class:`repro.contracts.BlockingSubstrate`.
        """
        from repro.blocking.substrate import ReferenceSubstrate

        return ReferenceSubstrate(store, spec)

    # -- array factories (vectorized backends only) ------------------------
    #
    # The array methods build their structures and execution cores
    # through these seams, and the backend hands each core its fan-out
    # (the parallel backend's cuts the same kernels into shards over
    # workers) without the methods changing.  The python backend never
    # reaches them: methods check ``vectorized`` first.

    def profile_index(self, collection: Any) -> Any:
        """The CSR profile index over scheduled blocks or the backend's
        own array substrate (schedule order)."""
        raise NotImplementedError(
            f"backend {self.name!r} has no vectorized profile index"
        )

    def blocking_graph(self, index: Any, weighting: str) -> Any:
        """The weighted Blocking Graph over ``index`` (rows on demand)."""
        raise NotImplementedError(
            f"backend {self.name!r} has no vectorized blocking graph"
        )

    def pps_core(self, scheduled: Any, weighting: str, k_max: int | None) -> Any:
        """The PPS initialization/emission core over scheduled blocks."""
        raise NotImplementedError(
            f"backend {self.name!r} has no vectorized PPS core"
        )

    def pbs_core(self, index: Any, graph: Any) -> Any:
        """The PBS core: weights and emits a range of scheduled blocks
        at a time; ``graph`` is its weight authority, never its rows."""
        raise NotImplementedError(
            f"backend {self.name!r} has no vectorized PBS core"
        )

    def psn_core(self, neighbor_list: Any, substrate: Any, weighting: Any) -> Any:
        """The LS/GS-PSN window-scoring core over one Neighbor List of
        the backend's own array ``substrate``."""
        raise NotImplementedError(
            f"backend {self.name!r} has no vectorized PSN core"
        )

    def pruned_edges(self, graph: Any, algorithm: str, k: int) -> Any:
        """Meta-blocking pruning: the retained edges of ``graph`` under
        ``algorithm`` (canonical name; ``k`` is the CNP/RCNP per-node
        budget), ranked by ``(-weight, i, j)``."""
        raise NotImplementedError(
            f"backend {self.name!r} has no vectorized pruning kernels"
        )


class PythonBackend(Backend):
    """The pure-Python reference backend (always available)."""

    name = "python"


class NumpyBackend(Backend):
    """The numpy/CSR backend (requires the ``repro[speed]`` extra).

    ``storage`` selects where the session's CSR arrays live: ``"ram"``
    (plain ndarrays, the default) or ``"memmap"`` (disk-backed scratch
    arrays in a private temp directory, removed on :meth:`close` or
    garbage collection).  Storage is *backend-instance* configuration -
    it rides on the constructed backend object rather than widening the
    factory seam.  The registry's shared ``"numpy"`` singleton always runs
    ``storage="ram"``; the pipeline builds a private configured instance
    when ``storage="memmap"`` is requested.
    """

    name = "numpy"

    def __init__(
        self, storage: str = "ram", storage_dir: "str | None" = None
    ) -> None:
        self.storage = check_storage_mode(storage)
        self.storage_dir = storage_dir
        self._scratch: Any = None

    @property
    def available(self) -> bool:
        return HAS_NUMPY

    @property
    def vectorized(self) -> bool:
        return True

    def require(self) -> "NumpyBackend":
        require_numpy(f"backend={self.name!r}")
        return self

    def array_store(self) -> Any:
        """Where the instance's engine arrays live: the shared
        :data:`~repro.engine.storage.RAM` store, or under ``"memmap"``
        the instance's scratch :class:`~repro.engine.storage.ArrayStore`
        (created on first use)."""
        from repro.engine.storage import RAM, ArrayStore

        if self.storage == "ram":
            return RAM
        if self._scratch is None:
            self._scratch = ArrayStore(dir=self.storage_dir)
        return self._scratch

    def fanout(self) -> Any:
        """Which ranges each engine pass is cut into, and who runs them
        (see :mod:`repro.engine.fanout`): here one inline range."""
        from repro.engine.fanout import INLINE

        return INLINE

    def close(self) -> None:
        scratch, self._scratch = self._scratch, None
        if scratch is not None:
            scratch.close()

    def blocking_substrate(self, store: Any, spec: Any) -> Any:
        self.require()
        from repro.engine.substrate import ArraySubstrate

        return ArraySubstrate(
            store, spec, storage=self.array_store(), fanout=self.fanout()
        )

    def profile_index(self, collection: Any) -> Any:
        self.require()
        from repro.engine.csr import ArrayProfileIndex
        from repro.engine.substrate import ArraySubstrate

        if isinstance(collection, ArraySubstrate):
            # Straight from the postings - no Block objects, no
            # re-scheduling.
            return collection.profile_index("schedule")
        return ArrayProfileIndex(collection)

    def blocking_graph(self, index: Any, weighting: str) -> Any:
        self.require()
        from repro.engine.weights import ArrayBlockingGraph

        return ArrayBlockingGraph(
            index, weighting, storage=self.array_store(), fanout=self.fanout()
        )

    def pps_core(self, scheduled: Any, weighting: str, k_max: int | None) -> Any:
        self.require()
        from repro.engine.equality import ArrayPPSCore

        index = self.profile_index(scheduled)
        graph = self.blocking_graph(index, weighting)
        return ArrayPPSCore(index, graph, k_max, fanout=self.fanout())

    def pbs_core(self, index: Any, graph: Any) -> Any:
        self.require()
        from repro.engine.equality import ArrayPBSCore

        return ArrayPBSCore(index, graph, fanout=self.fanout())

    def psn_core(self, neighbor_list: Any, substrate: Any, weighting: Any) -> Any:
        self.require()
        from repro.engine.similarity import ArrayPSNCore

        return ArrayPSNCore(neighbor_list, substrate, weighting, fanout=self.fanout())

    def pruned_edges(self, graph: Any, algorithm: str, k: int) -> Any:
        self.require()
        from repro.engine.pruning import prune_array_graph

        return prune_array_graph(graph, algorithm, k, self.fanout())


# Register instances (not classes): a backend is stateless configuration,
# so every lookup may share one object.
_PYTHON = PythonBackend()
_NUMPY = NumpyBackend()
backends.register("python", lambda: _PYTHON, aliases=("py", "pure-python"))
backends.register("numpy", lambda: _NUMPY, aliases=("np", "array", "csr"))


def get_backend(name: "str | Backend") -> Backend:
    """The backend registered under ``name`` (any spelling).

    A :class:`Backend` *instance* passes through unchanged - that is how
    a configured backend (e.g. a
    :class:`~repro.parallel.backend.ParallelBackend` with explicit
    ``workers``/``shards``) reaches the methods, which otherwise only
    see registry names.

    Availability is *not* checked here - config validation must work on
    machines without numpy; call :meth:`Backend.require` before building
    structures.
    """
    if isinstance(name, Backend):
        return name
    return cast(Backend, backends.build(name))


def available_backends() -> list[str]:
    """Canonical names of the backends usable in this environment."""
    return [name for name in backends.names() if backends.build(name).available]


__all__ = [
    "HAS_NUMPY",
    "STORAGE_MODES",
    "check_storage_mode",
    "require_numpy",
    "Backend",
    "PythonBackend",
    "NumpyBackend",
    "get_backend",
    "available_backends",
]
