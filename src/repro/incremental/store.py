"""Mutable profile ingestion: the online counterpart of ProfileStore.

Batch ER assumes the corpus is fixed before ``fit()``; a production
resolver sees profiles *arrive*.  :class:`MutableProfileStore` keeps the
:class:`~repro.core.profiles.ProfileStore` contract (dense ids, task
semantics, statistics) while allowing appends after construction, and
holds a read-only probe as its last profile for the length of one call
(:meth:`~MutableProfileStore.holding`), so a probe is scored as exactly
the stored profile it would become.

Ids are always assigned by the store.  Ingested records never choose
their own id: an :class:`~repro.core.profiles.EntityProfile` whose
``profile_id`` collides with (or skips past) the dense sequence is
re-identified on the way in, so a duplicate id can never corrupt the
dense ``store[i].profile_id == i`` invariant the flat indexes rely on.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, Sequence

from repro.core.profiles import EntityProfile, ERType, ProfileStore

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.datasets.base import ChunkedProfileStore


class MutableProfileStore(ProfileStore):
    """A ProfileStore that accepts profiles after construction.

    Everything a :class:`~repro.core.profiles.ProfileStore` offers keeps
    working (indexing, task semantics, Table-2 statistics); on top of it:

    * :meth:`add` / :meth:`add_profiles` append records with
      store-assigned dense ids;
    * :meth:`holding` stores a read-only probe for the length of a
      ``with`` block and restores the store exactly afterwards.

    Examples
    --------
    >>> store = MutableProfileStore()
    >>> profile = store.add({"name": "Carl White", "city": "NY"})
    >>> profile.profile_id, len(store)
    (0, 1)
    >>> store.add_profiles([{"name": "Karl White"}, {"name": "Ellen"}])
    [EntityProfile(id=1, source=0, name='Karl White'), EntityProfile(id=2, source=0, name='Ellen')]
    """

    __slots__ = ()

    def __init__(
        self,
        profiles: Sequence[EntityProfile] = (),
        er_type: ERType = ERType.DIRTY,
    ) -> None:
        super().__init__(profiles, er_type)

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
        bad record leaves the store untouched; an empty batch is a no-op.
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
        return appended

    @contextmanager
    def holding(self, profile: EntityProfile) -> Iterator[None]:
        """Store ``profile`` for the length of a ``with`` block.

        The read-only probe window: inside it the probe is a stored
        profile like any other (``len``, ``store[i]``, ``source_size``
        and ``valid_comparison`` all see it); on exit, on an exception
        too, the profile list and the source counts are restored
        exactly.  The profile must carry the next dense id.
        """
        if profile.profile_id != len(self.profiles):
            raise ValueError(
                f"a held profile needs the next id {len(self.profiles)}, "
                f"got {profile.profile_id}"
            )
        counts = self._source_counts
        before = counts.get(profile.source)
        self.profiles.append(profile)
        counts[profile.source] = (before or 0) + 1
        try:
            yield
        finally:
            self.profiles.pop()
            if before is None:
                del counts[profile.source]
            else:
                counts[profile.source] = before
