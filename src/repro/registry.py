"""Shared component registry for every pluggable layer of the system.

One registry class serves blocking schemes, meta-blocking weighting
schemes, progressive methods and match functions uniformly, replacing the
three ad-hoc module-level dicts the seed grew (``progressive.base``,
``metablocking.weights`` and the implicit matcher classes).

Names are *normalized* on both registration and lookup - every
non-alphanumeric character is dropped and the rest upper-cased - so the
paper's spelling and any reasonable user spelling address the same
component: ``"SA-PSN" == "sapsn" == "sa_psn"``.  The canonical (display)
spelling is whatever the component was registered under, which for the
progressive methods is the paper's acronym with hyphens.

Error messages surface the accepted constructor signature of the
component, so a wrong kwarg tells the caller what the component actually
takes instead of a bare ``TypeError``.

User extensions register through the same entry points::

    from repro.registry import progressive_methods

    @progressive_methods.register("MY-PM", aliases=("mypm",))
    class MyMethod(ProgressiveMethod):
        ...

The four stock registries lazily import their defining modules on first
lookup, so ``import repro.registry`` alone stays cheap and cycle-free.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import Any, Callable


def normalize(name: str) -> str:
    """Canonical lookup key: upper-cased alphanumerics only.

    >>> normalize("SA-PSN") == normalize("sapsn") == normalize("sa_psn")
    True
    """
    key = "".join(ch for ch in name if ch.isalnum()).upper()
    if not key:
        raise ValueError(f"unusable component name {name!r}")
    return key


@dataclass
class _Entry:
    """One registered component: its display name, factory and aliases."""

    name: str
    factory: Callable[..., Any]
    aliases: tuple[str, ...] = ()

    def signature(self) -> str:
        """Human-readable constructor signature of the factory."""
        try:
            return str(inspect.signature(self.factory))
        except (TypeError, ValueError):  # pragma: no cover - builtins only
            return "(...)"


class ComponentRegistry:
    """A name -> factory mapping with normalized keys and aliases.

    Parameters
    ----------
    kind:
        Human-readable component category ("progressive method",
        "weighting scheme", ...); used in every error message.
    loader:
        Optional zero-argument callable run once before the first lookup,
        typically importing the modules whose import side effect is the
        registration of the stock components.
    """

    def __init__(
        self, kind: str, loader: Callable[[], None] | None = None
    ) -> None:
        self.kind = kind
        self._loader = loader
        self._loaded = loader is None
        self._loading = False
        self._entries: dict[str, _Entry] = {}
        self._aliases: dict[str, str] = {}

    # -- population --------------------------------------------------------

    def _ensure_loaded(self) -> None:
        if self._loaded or self._loading:
            return
        self._loading = True
        try:
            assert self._loader is not None
            self._loader()
            self._loaded = True
        finally:
            self._loading = False

    def register(
        self,
        name: str | None = None,
        factory: Callable[..., Any] | None = None,
        *,
        aliases: tuple[str, ...] | list[str] = (),
    ) -> Callable[..., Any]:
        """Register a component; usable directly or as a class decorator.

        ``name`` defaults to the factory's ``name`` class attribute (the
        convention every component family in this codebase follows), then
        to ``__name__``.  Re-registering a name overwrites the previous
        entry, which is what user extensions and tests want.

        Examples
        --------
        >>> registry = ComponentRegistry("demo component")
        >>> @registry.register("My-Comp", aliases=("mc",))
        ... class MyComp:
        ...     def __init__(self, knob=1):
        ...         self.knob = knob
        >>> registry.canonical("my_comp"), registry.canonical("MC")
        ('My-Comp', 'My-Comp')
        >>> registry.build("mycomp", knob=2).knob
        2
        """
        if factory is None and name is not None and not isinstance(name, str):
            # bare-decorator form: @registry.register (no parentheses)
            name, factory = None, name

        def _add(obj: Callable[..., Any]) -> Callable[..., Any]:
            display = name or getattr(obj, "name", None) or obj.__name__
            entry = _Entry(display, obj, tuple(aliases))
            key = normalize(display)
            self._entries[key] = entry
            for alias in entry.aliases:
                self._aliases[normalize(alias)] = key
            return obj

        if factory is not None:
            return _add(factory)
        return _add

    def unregister(self, name: str) -> None:
        """Drop a component (and any aliases pointing at it)."""
        key = self._resolve_key(name)
        del self._entries[key]
        self._aliases = {a: k for a, k in self._aliases.items() if k != key}

    # -- lookup ------------------------------------------------------------

    def _resolve_key(self, name: str) -> str:
        self._ensure_loaded()
        key = normalize(name)
        # Exact entries win over aliases, so registering a component whose
        # name collides with an existing alias makes it reachable.
        if key not in self._entries:
            key = self._aliases.get(key, key)
        if key not in self._entries:
            raise ValueError(
                f"unknown {self.kind} {name!r}; available: {self.names()}"
            )
        return key

    def entry(self, name: str) -> _Entry:
        """The full registration record for ``name``."""
        return self._entries[self._resolve_key(name)]

    def get(self, name: str) -> Callable[..., Any]:
        """The factory registered under ``name`` (any spelling)."""
        return self.entry(name).factory

    def canonical(self, name: str) -> str:
        """The display spelling a component was registered under."""
        return self.entry(name).name

    def build(self, name: str, *args: Any, **kwargs: Any) -> Any:
        """Instantiate a component, surfacing its signature on bad kwargs."""
        entry = self.entry(name)
        try:
            return entry.factory(*args, **kwargs)
        except TypeError as exc:
            raise TypeError(
                f"cannot build {self.kind} {entry.name!r}: {exc}; "
                f"accepted signature: {entry.name}{entry.signature()}"
            ) from exc

    def accepts(self, name: str, parameter: str) -> bool:
        """Whether the constructor *declares* ``parameter`` by name.

        Deliberately False for a bare ``**kwargs`` catch-all: callers use
        this to decide whether to *inject* optional arguments (blocks,
        weighting, key_function), and a component that did not name the
        parameter should not silently receive it.
        """
        try:
            signature = inspect.signature(self.entry(name).factory)
        except (TypeError, ValueError):  # pragma: no cover - builtins only
            return False
        param = signature.parameters.get(parameter)
        return param is not None and param.kind is not inspect.Parameter.VAR_KEYWORD

    # -- introspection -----------------------------------------------------

    def names(self) -> list[str]:
        """Sorted canonical display names of all registered components."""
        self._ensure_loaded()
        return sorted(entry.name for entry in self._entries.values())

    def __contains__(self, name: str) -> bool:
        try:
            self._resolve_key(name)
        except ValueError:
            return False
        return True

    def __len__(self) -> int:
        self._ensure_loaded()
        return len(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ComponentRegistry({self.kind!r}, {len(self._entries)} entries)"


# -- the stock registries ----------------------------------------------------
#
# The loaders import the modules whose import registers the built-in
# components; they run lazily so that this module never participates in an
# import cycle (it imports nothing from repro itself).


def _load_progressive_methods() -> None:
    import repro.incremental.online  # noqa: F401  (registers ONLINE)
    import repro.progressive  # noqa: F401  (registers the 7 methods)


def _load_blocking_schemes() -> None:
    import repro.blocking  # noqa: F401  (registers token/suffix)


def _load_weighting_schemes() -> None:
    import repro.metablocking.weights  # noqa: F401  (registers ARCS..EJS)


def _load_pruning_algorithms() -> None:
    import repro.metablocking.pruning  # noqa: F401  (registers WNP..RCNP)


def _load_matchers() -> None:
    import repro.matching  # noqa: F401  (registers jaccard/edit/oracle)


def _load_backends() -> None:
    import repro.engine  # noqa: F401  (registers python/numpy backends)
    import repro.parallel.backend  # noqa: F401  (registers numpy-parallel)


progressive_methods = ComponentRegistry(
    "progressive method", loader=_load_progressive_methods
)
blocking_schemes = ComponentRegistry(
    "blocking scheme", loader=_load_blocking_schemes
)
weighting_schemes = ComponentRegistry(
    "weighting scheme", loader=_load_weighting_schemes
)
pruning_algorithms = ComponentRegistry(
    "pruning algorithm", loader=_load_pruning_algorithms
)
matchers = ComponentRegistry("match function", loader=_load_matchers)
backends = ComponentRegistry("backend", loader=_load_backends)
