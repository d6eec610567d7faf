"""Session snapshot/restore: cheap restarts for served sessions.

A snapshot is a plain directory:

* ``manifest.json`` - format tag, the pipeline spec (``to_dict`` form),
  ER type, element counts, the index generation and the creation time;
* ``profiles.jsonl`` - one ``[source, [[name, value], ...]]`` record per
  line; the line number *is* the dense profile id;
* ``tokens.json`` - the distinct tokens, sorted;
* ``postings_indptr.npy`` / ``postings_ids.npy`` - the postings in CSR
  form (int64): token ``t``'s posting is
  ``ids[indptr[t]:indptr[t + 1]]``, profile ids in ingestion order.

The arrays are standard ``.npy`` (format version 1) files, written and
parsed by one small stdlib codec on every host - byte-identical to what
``numpy.save`` produces, so other tools can open them, and a snapshot
taken on a numpy host restores on a python-only host and vice versa.

Restoring never re-tokenizes: the postings come straight from the
arrays and every derived statistic is recomputed in one pass
(:meth:`~repro.incremental.index.IncrementalTokenIndex.restore`), so a
restored session streams bit-identically to the saved one - the digest
contract :func:`stream_digest` makes checkable.

Emission-side state (budgets consumed, half-drained streams) is *not*
part of a snapshot: a restored session starts fresh over the saved
corpus, like ``reset()`` on the original.
"""

from __future__ import annotations

import ast
import contextlib
import json
import os
import struct
import sys
import time
from array import array
from dataclasses import fields
from typing import TYPE_CHECKING, Iterable, Sequence

from repro.core.comparisons import Comparison
from repro.core.profiles import EntityProfile, ERType

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.incremental.resolver import IncrementalResolver

#: Snapshot format tag; bumped on any layout change.
SNAPSHOT_FORMAT = "repro-session/1"

MANIFEST = "manifest.json"
PROFILES = "profiles.jsonl"
TOKENS = "tokens.json"
INDPTR = "postings_indptr"
IDS = "postings_ids"

_NPY_MAGIC = b"\x93NUMPY"


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


# -- int64 .npy files ---------------------------------------------------------


def _npy_header(count: int) -> bytes:
    """The byte-exact .npy v1 preamble numpy writes for a 1-D int64 array."""
    header = (
        "{'descr': '<i8', 'fortran_order': False, "
        f"'shape': ({count},), }}"
    )
    # Pad with spaces so magic+version+length+header is 64-aligned,
    # newline-terminated - the alignment rule of the .npy format spec.
    base = len(_NPY_MAGIC) + 2 + 2
    padded = -(base + len(header) + 1) % 64
    header = header + " " * padded + "\n"
    return (
        _NPY_MAGIC + b"\x01\x00" + struct.pack("<H", len(header))
        + header.encode("latin1")
    )


def _write_npy_int64(path: str, values: Sequence[int]) -> None:
    """Write a 1-D int64 ``.npy`` (format v1) with the stdlib only."""
    data = array("q", values)
    if sys.byteorder == "big":  # pragma: no cover - little-endian CI
        data.byteswap()
    with open(path, "wb") as handle:
        handle.write(_npy_header(len(data)))
        handle.write(data.tobytes())


def _read_npy_int64(path: str) -> Sequence[int]:
    """Read a 1-D little-endian int64 ``.npy`` with the stdlib only.

    Anything else - foreign magic, another dtype or memory order, more
    than one dimension, fewer bytes than the header promises - raises
    :class:`ValueError`.
    """
    with open(path, "rb") as handle:
        if handle.read(len(_NPY_MAGIC)) != _NPY_MAGIC:
            raise ValueError(f"{path} is not a .npy file")
        try:
            major = handle.read(2)[0]
            length = struct.unpack(
                "<H" if major == 1 else "<I",
                handle.read(2 if major == 1 else 4),
            )[0]
            header = ast.literal_eval(handle.read(length).decode("latin1"))
            descr, fortran = header["descr"], header["fortran_order"]
            shape = tuple(header["shape"])
        except (IndexError, KeyError, SyntaxError, TypeError, struct.error):
            raise ValueError(f"{path}: malformed .npy header") from None
        if descr != "<i8" or fortran or len(shape) != 1:
            raise ValueError(
                f"{path}: expected a C-order '<i8' array of one dimension, "
                f"got {header!r}"
            )
        (count,) = shape
        data = array("q")
        data.frombytes(handle.read(8 * count))  # ValueError on a torn item
        if len(data) != count:
            raise ValueError(f"{path}: truncated array ({len(data)}/{count})")
        if sys.byteorder == "big":  # pragma: no cover - little-endian CI
            data.byteswap()
        return data


def _write_arrays(path: str, indptr: Sequence[int], flat: Sequence[int]) -> None:
    """Write the postings CSR (the step a torn save dies in)."""
    _write_npy_int64(os.path.join(path, f"{INDPTR}.npy"), indptr)
    _write_npy_int64(os.path.join(path, f"{IDS}.npy"), flat)


# -- save / load --------------------------------------------------------------


def save_session(resolver: "IncrementalResolver", path: str) -> str:
    """Write ``resolver``'s state as a snapshot directory at ``path``.

    Called through :meth:`IncrementalResolver.save` (which holds the
    session lock, so the state written is a consistent cut).  Existing
    snapshot files at ``path`` are overwritten; any previous manifest is
    removed *first* and the new one is written last (atomically), so a
    directory with a readable manifest is always a complete snapshot -
    a save torn by a crash leaves no manifest, never a stale one over
    mixed old/new data files.
    """
    os.makedirs(path, exist_ok=True)
    with contextlib.suppress(FileNotFoundError):
        # Invalidate the old snapshot before touching its data files: a
        # crash mid-save must not leave the previous (valid-looking)
        # manifest describing a hybrid of old and new files.
        os.remove(os.path.join(path, MANIFEST))
    store = resolver.store
    with open(os.path.join(path, PROFILES), "w") as handle:
        for profile in store:
            json.dump(
                [profile.source, [list(pair) for pair in profile.pairs]],
                handle,
                separators=(",", ":"),
            )
            handle.write("\n")
    tokens, indptr, flat = resolver.index.postings_csr()
    with open(os.path.join(path, TOKENS), "w") as handle:
        json.dump(tokens, handle)
    _write_arrays(path, indptr, flat)
    manifest = {
        "format": SNAPSHOT_FORMAT,
        "config": resolver.config.to_dict(),
        "er_type": store.er_type.name,
        "dataset_name": resolver.dataset_name,
        "profiles": len(store),
        "tokens": len(tokens),
        "postings": len(flat),
        "generation": resolver.index.generation,
        "created_unix": time.time(),
    }
    manifest_path = os.path.join(path, MANIFEST)
    staging = manifest_path + ".tmp"
    with open(staging, "w") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")
    os.replace(staging, manifest_path)
    return path


def read_manifest(path: str) -> dict:
    """Load and format-check a snapshot directory's manifest."""
    try:
        with open(os.path.join(path, MANIFEST)) as handle:
            manifest = json.load(handle)
    except FileNotFoundError:
        raise ValueError(
            f"{path!r} is not a session snapshot (no {MANIFEST})"
        ) from None
    if manifest.get("format") != SNAPSHOT_FORMAT:
        raise ValueError(
            f"unsupported snapshot format {manifest.get('format')!r} at "
            f"{path!r} (expected {SNAPSHOT_FORMAT!r})"
        )
    return manifest


def load_session(path: str) -> "IncrementalResolver":
    """Rebuild an :class:`IncrementalResolver` from a snapshot directory.

    The inverse of :func:`save_session`: profiles are re-read into a
    fresh :class:`~repro.incremental.store.MutableProfileStore`, the
    token index is restored from the CSR arrays without re-tokenizing,
    and the resolver is constructed over both - ready to stream
    (bit-identically to the saved session) and to ingest further
    profiles.
    """
    from repro.incremental.index import IncrementalTokenIndex
    from repro.incremental.resolver import IncrementalResolver
    from repro.incremental.store import MutableProfileStore
    from repro.pipeline.config import IncrementalConfig, PipelineConfig

    manifest = read_manifest(path)
    spec = dict(manifest["config"])
    if spec.get("incremental"):
        # A manifest written by 1.x carries a stage knob retired since;
        # a saved session must keep restoring, so only the fields the
        # stage still has are read (user specs reject unknown keys).
        known = {field.name for field in fields(IncrementalConfig)}
        spec["incremental"] = {
            key: value
            for key, value in spec["incremental"].items()
            if key in known
        }
    config = PipelineConfig.from_dict(spec)
    profiles = []
    with open(os.path.join(path, PROFILES)) as handle:
        for line_number, line in enumerate(handle):
            source, pairs = json.loads(line)
            profiles.append(EntityProfile(line_number, pairs, source))
    if len(profiles) != manifest["profiles"]:
        raise ValueError(
            f"snapshot at {path!r} holds {len(profiles)} profiles, "
            f"manifest says {manifest['profiles']}"
        )
    store = MutableProfileStore(profiles, ERType[manifest["er_type"]])
    with open(os.path.join(path, TOKENS)) as handle:
        tokens = json.load(handle)
    indptr = _read_npy_int64(os.path.join(path, f"{INDPTR}.npy"))
    flat = _read_npy_int64(os.path.join(path, f"{IDS}.npy"))
    index = IncrementalTokenIndex.restore(
        store,
        tokens,
        indptr[: len(tokens) + 1],
        flat,
        generation=int(manifest["generation"]),
    )
    return IncrementalResolver(
        config,
        store,
        dataset_name=manifest.get("dataset_name", ""),
        index=index,
    )
