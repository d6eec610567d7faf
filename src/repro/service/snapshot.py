"""Session snapshot/restore: cheap restarts for served sessions.

A snapshot is a plain directory of two files:

* ``manifest.json`` - format tag, the pipeline spec (``to_dict`` form),
  ER type, the profile count, the index generation, the creation time
  and the session's decisions: the ``decided`` count and the confirmed
  ``matches`` as sorted ``[i, j]`` pairs;
* ``profiles.jsonl`` - one ``[source, [[name, value], ...]]`` record per
  line; the line number *is* the dense profile id.

The token index is not stored: a profile's blocking keys are a pure
function of its values, so restoring rebuilds the index from the
profiles exactly as ``fit`` does, and the restored session streams
bit-identically to the saved one - the digest contract
:func:`stream_digest` makes checkable.  A restored session keeps the
saved matches, so its ``clusters()`` and ``progress().matches_confirmed``
are the saved session's.  Formats 1 (which also carried the postings;
its extra files are ignored) and 2 still restore, with no matches.

Emission-side state (budgets consumed, half-drained streams) is *not*
part of a snapshot: a restored session starts a fresh stream over the
saved corpus.
"""

from __future__ import annotations

import contextlib
import json
import os
import time
from typing import TYPE_CHECKING, Iterable

from repro.core.comparisons import Comparison
from repro.core.profiles import EntityProfile, ERType

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.incremental.resolver import IncrementalResolver

#: Snapshot format tag; bumped on any layout change.
SNAPSHOT_FORMAT = "repro-session/3"
#: Formats :func:`read_manifest` accepts (1 and 2 restore with no matches).
READABLE_FORMATS = ("repro-session/1", "repro-session/2", SNAPSHOT_FORMAT)
#: Manifest keys a restore cannot do without.
REQUIRED_KEYS = ("config", "er_type", "generation", "profiles", "decided", "matches")

MANIFEST = "manifest.json"
PROFILES = "profiles.jsonl"


def stream_digest(comparisons: Iterable[Comparison]) -> str:
    """Order- and weight-sensitive digest of an emission stream.

    The snapshot acceptance contract: a restored session's ``stream()``
    must produce the same digest as a fresh ``stream()`` of the saved
    session - same pairs, same order, bit-identical weights (``repr``
    of a float is exact round-trip text).
    """
    import hashlib

    digest = hashlib.blake2b(digest_size=16)
    for comparison in comparisons:
        digest.update(
            f"{comparison.i},{comparison.j},{comparison.weight!r};".encode()
        )
    return digest.hexdigest()


# -- save / load --------------------------------------------------------------


def save_session(resolver: "IncrementalResolver", path: str) -> str:
    """Write ``resolver``'s state as a snapshot directory at ``path``.

    Called through :meth:`IncrementalResolver.save` (which holds the
    session lock, so the state written is a consistent cut).  Both files
    are staged as ``.tmp`` siblings first, so a save that fails while
    writing (a full disk) leaves the previous snapshot restorable.  Only
    then is the old manifest removed, the profiles replaced and the new
    manifest moved in last, so a directory with a readable manifest is
    always a complete snapshot - never a stale manifest over new data.
    The staged files are removed on failure.
    """
    os.makedirs(path, exist_ok=True)
    store = resolver.store
    manifest = {
        "format": SNAPSHOT_FORMAT,
        "config": resolver.config.to_dict(),
        "er_type": store.er_type.name,
        "dataset_name": resolver.dataset_name,
        "profiles": len(store),
        "generation": resolver.index.generation,
        "created_unix": time.time(),
        "decided": resolver._decided,
        "matches": sorted(resolver.matches),
    }
    profiles_path = os.path.join(path, PROFILES)
    manifest_path = os.path.join(path, MANIFEST)
    try:
        with open(profiles_path + ".tmp", "w") as handle:
            for profile in store:
                json.dump(
                    [profile.source, [list(pair) for pair in profile.pairs]],
                    handle,
                    separators=(",", ":"),
                )
                handle.write("\n")
        with open(manifest_path + ".tmp", "w") as handle:
            json.dump(manifest, handle, sort_keys=True)
            handle.write("\n")
        with contextlib.suppress(FileNotFoundError):
            os.remove(manifest_path)
        os.replace(profiles_path + ".tmp", profiles_path)
        os.replace(manifest_path + ".tmp", manifest_path)
    finally:
        for staged in (profiles_path + ".tmp", manifest_path + ".tmp"):
            with contextlib.suppress(FileNotFoundError):
                os.remove(staged)
    return path


def read_manifest(path: str) -> dict:
    """Load and check a snapshot directory's manifest.

    A missing required key, a profile count, generation or decided
    count that is not a non-negative integer, a match that is not a
    pair of profile ids ``0 <= i < j < profiles``, or an unknown ER type
    is refused here, naming the snapshot and the key, before anything
    is rebuilt.
    """
    try:
        with open(os.path.join(path, MANIFEST)) as handle:
            manifest = json.load(handle)
    except FileNotFoundError:
        raise ValueError(
            f"{path!r} is not a session snapshot (no {MANIFEST})"
        ) from None
    found = manifest.get("format") if isinstance(manifest, dict) else None
    if found not in READABLE_FORMATS:
        raise ValueError(
            f"unsupported snapshot format {found!r} at "
            f"{path!r} (expected one of {READABLE_FORMATS})"
        )
    if found != SNAPSHOT_FORMAT:
        manifest = {"decided": 0, "matches": [], **manifest}
    for key in REQUIRED_KEYS:
        if key not in manifest:
            raise ValueError(f"snapshot manifest at {path!r} lacks {key!r}")
    for key in ("profiles", "generation", "decided"):
        value = manifest[key]
        if type(value) is not int or value < 0:
            raise ValueError(
                f"snapshot manifest at {path!r}: {key!r} must be a "
                f"non-negative integer, got {value!r}"
            )
    matches, profiles = manifest["matches"], manifest["profiles"]
    for pair in matches if type(matches) is list else [matches]:
        if not (
            type(pair) is list
            and [type(end) for end in pair] == [int, int]
            and 0 <= pair[0] < pair[1] < profiles
        ):
            raise ValueError(
                f"snapshot manifest at {path!r}: 'matches' must list [i, j] "
                f"ids with 0 <= i < j < {profiles}, got {pair!r}"
            )
    if manifest["er_type"] not in ERType.__members__:
        raise ValueError(
            f"snapshot manifest at {path!r}: unknown 'er_type' "
            f"{manifest['er_type']!r}"
        )
    return manifest


def load_session(path: str) -> "IncrementalResolver":
    """Rebuild an :class:`IncrementalResolver` from a snapshot directory.

    The inverse of :func:`save_session`: the profiles are re-read into a
    fresh :class:`~repro.incremental.store.MutableProfileStore` and the
    resolver is built over it the way ``fit`` builds one, re-tokenizing
    into a new token index - ready to stream (bit-identically to the
    saved session) and to ingest further profiles.  The index carries on
    from the saved generation, and the session from the saved decisions.
    """
    from repro.incremental.resolver import IncrementalResolver
    from repro.incremental.store import MutableProfileStore
    from repro.pipeline.config import PipelineConfig

    manifest = read_manifest(path)
    spec = dict(manifest["config"])
    if spec.get("incremental"):
        # A manifest written by 1.x carries the stage's rebuild_threshold,
        # retired in 2.0: a saved session must keep restoring, while
        # user specs reject the key.  (The retired purge_ratio is read
        # by PipelineConfig.from_dict, for specs and manifests alike.)
        spec["incremental"] = {
            key: value
            for key, value in spec["incremental"].items()
            if key != "rebuild_threshold"
        }
    config = PipelineConfig.from_dict(spec)
    file = os.path.join(path, PROFILES)
    profiles = []
    try:
        handle = open(file)
    except FileNotFoundError:
        raise ValueError(f"{file} is missing") from None
    with handle:
        for line_number, line in enumerate(handle):
            try:
                source, pairs = json.loads(line)
                profiles.append(EntityProfile(line_number, pairs, source))
            except (TypeError, ValueError) as error:
                # A torn or foreign line names its file and 1-based line.
                raise ValueError(
                    f"{file} line {line_number + 1}: {error}"
                ) from None
    if len(profiles) != manifest["profiles"]:
        raise ValueError(
            f"{file} holds {len(profiles)} profiles, "
            f"manifest says {manifest['profiles']}"
        )
    resolver = IncrementalResolver(
        config,
        MutableProfileStore(profiles, ERType[manifest["er_type"]]),
        dataset_name=manifest.get("dataset_name", ""),
    )
    resolver.index.generation = manifest["generation"]
    resolver._decided = manifest["decided"]
    resolver._matched_pairs.update((i, j) for i, j in manifest["matches"])
    return resolver
