"""The two-phase progressive method contract (Section 3.1).

Every progressive method splits into:

* an **initialization phase** - builds the method's data structures and
  produces the overall best comparison; runs exactly once;
* an **emission phase** - returns the next best comparison on each call,
  refilling an internal Comparison List when it runs empty.

:class:`ProgressiveMethod` encodes this as: ``initialize()`` (idempotent,
measurable by the timing harness) plus ``chunks()`` for emission - the
unit the pipeline consumes; iteration and ``next_comparison()`` flatten
it.  Subclasses implement ``_setup()`` and the ``_emit()`` generator,
which is grouped into chunks unless ``_chunks()`` builds them itself.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from itertools import chain
from typing import Callable, Iterator

from repro.core.comparisons import Comparison, chunked
from repro.core.profiles import ProfileStore
from repro.registry import normalize, progressive_methods


class ProgressiveMethod(ABC):
    """Base class for all progressive ER methods.

    Subclasses must set a class-level ``name`` (the acronym used in the
    paper) and implement ``_setup`` (initialization phase) and ``_emit``
    (a generator yielding comparisons in non-increasing estimated matching
    likelihood until the method's search space is exhausted).
    """

    name: str = "abstract"

    def __init__(self, store: ProfileStore) -> None:
        self.store = store
        self._initialized = False
        self._emitter: Iterator[Comparison] | None = None

    # -- initialization phase ------------------------------------------------

    def initialize(self) -> None:
        """Build the method's data structures (idempotent)."""
        if not self._initialized:
            self._setup()
            self._initialized = True

    @abstractmethod
    def _setup(self) -> None:
        """Initialization phase body (runs once)."""

    # -- emission phase --------------------------------------------------------

    @abstractmethod
    def _emit(self) -> Iterator[Comparison]:
        """Yield comparisons from most to least promising."""

    def _chunks(self) -> Iterator[list[Comparison]]:
        """The emission in chunks: ``_emit()`` grouped."""
        return chunked(self._emit())

    def chunks(self) -> Iterator[list[Comparison]]:
        """The emission as consecutive non-empty chunks (lists of at most
        :data:`~repro.core.comparisons.CHUNK_SIZE`); initializes first."""
        self.initialize()
        return self._chunks()

    def __iter__(self) -> Iterator[Comparison]:
        return chain.from_iterable(self.chunks())

    def next_comparison(self) -> Comparison | None:
        """Emit the next best comparison, or None when exhausted.

        Step-wise counterpart of the iterator protocol for callers that
        interleave emissions with their own control flow (e.g. a time
        budget loop).
        """
        if self._emitter is None:
            self._emitter = iter(self)
        return next(self._emitter, None)

    def reset(self) -> None:
        """Forget all emission progress (initialization is kept)."""
        self._emitter = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "initialized" if self._initialized else "fresh"
        return f"{type(self).__name__}({state}, |P|={len(self.store)})"


MethodFactory = Callable[..., ProgressiveMethod]


def register_method(name: str) -> Callable[[type], type]:
    """Class decorator registering a method in the shared registry.

    The canonical spelling is the class's ``name`` attribute (the paper
    acronym, hyphens included); the decorator argument is kept as an
    alias, so both ``"SA-PSN"`` and ``"SAPSN"`` resolve.
    """

    def decorator(cls: type) -> type:
        # Only the class's *own* `name` may define the canonical spelling;
        # an inherited one (subclass of a stock method without a new
        # `name`) must not hijack the parent's registry entry.
        canonical = cls.__dict__.get("name") or name
        aliases = (name,) if normalize(name) != normalize(canonical) else ()
        progressive_methods.register(canonical, cls, aliases=aliases)
        return cls

    return decorator
