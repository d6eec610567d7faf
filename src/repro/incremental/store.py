"""Mutable profile ingestion: the online counterpart of ProfileStore.

Batch ER assumes the corpus is fixed before ``fit()``; a production
resolver sees profiles *arrive*.  :class:`MutableProfileStore` keeps the
:class:`~repro.core.profiles.ProfileStore` contract (dense ids, task
semantics, statistics) while allowing appends after construction, and
notifies subscribed listeners - the incremental indexes - after every
batch so derived structures stay consistent by construction.

Ids are always assigned by the store.  Ingested records never choose
their own id: an :class:`~repro.core.profiles.EntityProfile` whose
``profile_id`` collides with (or skips past) the dense sequence is
re-identified on the way in, so a duplicate id can never corrupt the
dense ``store[i].profile_id == i`` invariant the flat indexes rely on.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterable, Mapping, Sequence

from repro.core.profiles import EntityProfile, ERType, ProfileStore

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.datasets.base import ChunkedProfileStore

#: A store listener: called with the freshly appended profiles.
IngestListener = Callable[[Sequence[EntityProfile]], None]


class MutableProfileStore(ProfileStore):
    """A ProfileStore that accepts profiles after construction.

    Everything a :class:`~repro.core.profiles.ProfileStore` offers keeps
    working (indexing, task semantics, Table-2 statistics); on top of it:

    * :meth:`add` / :meth:`add_profiles` append records with
      store-assigned dense ids;
    * :meth:`subscribe` registers listeners (incremental indexes) that
      are notified once per ingested batch.

    Examples
    --------
    >>> store = MutableProfileStore()
    >>> profile = store.add({"name": "Carl White", "city": "NY"})
    >>> profile.profile_id, len(store)
    (0, 1)
    >>> store.add_profiles([{"name": "Karl White"}, {"name": "Ellen"}])
    [EntityProfile(id=1, source=0, name='Karl White'), EntityProfile(id=2, source=0, name='Ellen')]
    """

    __slots__ = ("_listeners",)

    def __init__(
        self,
        profiles: Sequence[EntityProfile] = (),
        er_type: ERType = ERType.DIRTY,
    ) -> None:
        super().__init__(profiles, er_type)
        self._listeners: list[IngestListener] = []

    # -- construction ---------------------------------------------------------

    @classmethod
    def from_store(
        cls, store: "ProfileStore | ChunkedProfileStore"
    ) -> "MutableProfileStore":
        """A mutable copy of an existing store (profiles are shared).

        Reads the source through iteration only, so a streamed
        :class:`~repro.datasets.base.ChunkedProfileStore` is accepted
        like a resident one.
        """
        if isinstance(store, cls):
            return store
        return cls(list(store), store.er_type)

    # -- subscriptions --------------------------------------------------------

    def subscribe(self, listener: IngestListener) -> IngestListener:
        """Register a callback invoked with each ingested batch.

        Listeners run synchronously, in subscription order, after the
        profiles are appended - so inside a listener the store already
        contains the new profiles.  Returns the listener (decorator-
        friendly).
        """
        self._listeners.append(listener)
        return listener

    def unsubscribe(self, listener: IngestListener) -> None:
        """Drop a previously subscribed listener (no-op when absent)."""
        try:
            self._listeners.remove(listener)
        except ValueError:
            pass

    # -- pickling -------------------------------------------------------------

    def __getstate__(self) -> dict:
        """Pickle without listeners.

        Listeners are session-local callbacks (typically bound methods
        of a live resolver holding a lock, emitters and budgets); a
        shipped copy - e.g. the store a ``numpy-parallel`` tokenization
        sweep sends to spawned workers - starts with none, so it
        pickles at all and can never reach back into the originating
        session.
        """
        return {
            "profiles": self.profiles,
            "er_type": self.er_type,
            "_source_counts": self._source_counts,
        }

    def __setstate__(self, state: dict) -> None:
        for name, value in state.items():
            setattr(self, name, value)
        self._listeners = []

    # -- ingestion ------------------------------------------------------------

    def _coerce(
        self,
        profile_id: int,
        item: "EntityProfile | Mapping[str, object] | Iterable[tuple[str, object]]",
        source: int | None,
    ) -> EntityProfile:
        """One record -> validated EntityProfile (shared by ingest & probes)."""
        if isinstance(item, EntityProfile):
            # Re-identify: the store owns the id sequence.  This is the
            # duplicate-id rule - ingesting a profile whose id already
            # exists yields a *new* profile, it never overwrites.
            resolved = item.source if source is None else source
            profile = EntityProfile(profile_id, item.pairs, resolved)
        else:
            profile = EntityProfile(
                profile_id, item, 0 if source is None else source
            )
        if self.er_type is ERType.CLEAN_CLEAN and profile.source not in (0, 1):
            raise ValueError(
                "Clean-clean ER requires source 0 or 1, "
                f"got source {profile.source!r}"
            )
        return profile

    def add(
        self,
        item: "EntityProfile | Mapping[str, object] | Iterable[tuple[str, object]]",
        source: int | None = None,
    ) -> EntityProfile:
        """Ingest a single record; returns the stored profile.

        ``item`` may be an attribute mapping, an iterable of
        ``(name, value)`` pairs, or an ``EntityProfile`` (whose id is
        re-assigned).  ``source`` overrides the source id (required to be
        0 or 1 for Clean-clean stores).
        """
        return self.add_profiles(
            [item], sources=None if source is None else [source]
        )[0]

    def add_profiles(
        self,
        items: Iterable[
            "EntityProfile | Mapping[str, object] | Iterable[tuple[str, object]]"
        ],
        sources: Iterable[int] | None = None,
    ) -> list[EntityProfile]:
        """Ingest a batch of records; returns the stored profiles in order.

        The whole batch is validated before anything is appended, so a
        bad record leaves the store untouched.  Listeners are notified
        once, with the full batch; an empty batch is a no-op.
        """
        items = list(items)
        if sources is None:
            source_list: list[int | None] = [None] * len(items)
        else:
            source_list = list(sources)
            if len(source_list) != len(items):
                raise ValueError("sources must align with items")
        if not items:
            return []

        appended: list[EntityProfile] = []
        for offset, (item, source) in enumerate(zip(items, source_list, strict=True)):
            appended.append(self._coerce(len(self.profiles) + offset, item, source))

        self.profiles.extend(appended)
        for profile in appended:
            self._source_counts[profile.source] = (
                self._source_counts.get(profile.source, 0) + 1
            )
        for listener in self._listeners:
            listener(appended)
        return appended
