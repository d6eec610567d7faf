"""Snapshot/restore: the bit-identical stream-digest contract."""

from __future__ import annotations

import json
import os

import pytest

from repro.errors import SessionClosed
from repro.incremental.resolver import IncrementalResolver
from repro.service.snapshot import (
    MANIFEST,
    PROFILES,
    SNAPSHOT_FORMAT,
    read_manifest,
    stream_digest,
)

from .conftest import PROBE, RECORDS, service_pipeline

BACKENDS = ["python", "numpy"]


def fitted(backend: str) -> IncrementalResolver:
    session = service_pipeline(backend).fit(RECORDS[:4])
    session.add_profiles(RECORDS[4:])
    return session


@pytest.mark.parametrize("backend", BACKENDS)
def test_restored_stream_is_bit_identical(backend, tmp_path):
    if backend == "numpy":
        pytest.importorskip("numpy")
    session = fitted(backend)
    live = stream_digest(session.reset().stream())
    path = session.save(str(tmp_path / "snap"))
    restored = IncrementalResolver.load(path)
    assert stream_digest(restored.stream()) == live
    session.close()
    restored.close()


def test_digests_agree_across_backends(tmp_path):
    pytest.importorskip("numpy")
    digests = set()
    for backend in ("python", "numpy"):
        session = fitted(backend)
        path = session.save(str(tmp_path / backend))
        restored = IncrementalResolver.load(path)
        digests.add(stream_digest(restored.stream()))
        session.close()
        restored.close()
    assert len(digests) == 1


def test_restored_session_keeps_ingesting_in_parity(tmp_path):
    session = fitted("python")
    restored = IncrementalResolver.load(session.save(str(tmp_path / "s")))
    arrival = {"name": "carla white", "city": "ny"}
    live = [(c.i, c.j, c.weight) for c in session.add_profiles([arrival])]
    back = [(c.i, c.j, c.weight) for c in restored.add_profiles([arrival])]
    assert live == back and live  # same emissions, and there are some
    assert stream_digest(session.reset().stream()) == stream_digest(
        restored.reset().stream()
    )


def test_probes_match_after_restore(tmp_path):
    session = fitted("python")
    restored = IncrementalResolver.load(session.save(str(tmp_path / "s")))
    probe = {"text": "emma white, ny tailor"}
    live = session.resolve_one(probe, ingest=False)
    back = restored.resolve_one(probe, ingest=False)
    assert [(c.i, c.j, c.weight) for c in live] == [
        (c.i, c.j, c.weight) for c in back
    ]


def test_emission_progress_is_not_snapshotted(tmp_path):
    """A restored session starts a fresh stream (like reset())."""
    session = fitted("python")
    full = [c.pair for c in session.stream()]
    session.reset()
    drained = [c.pair for c in session.next_batch(3)]
    assert drained == full[:3]
    restored = IncrementalResolver.load(session.save(str(tmp_path / "s")))
    assert [c.pair for c in restored.stream()] == full


def test_a_snapshot_written_by_1x_still_restores():
    """``fixtures/session-1.5`` is what release 1.5.0 saved for
    ``fitted("python")`` (format 1, its manifest carrying the
    ``rebuild_threshold`` key retired in 2.0 and the null ``matcher``
    stage retired after 2.1).  The fixture's postings arrays are now
    ignored: re-tokenizing its profiles reproduces the digest 1.5
    streamed."""
    path = os.path.join(os.path.dirname(__file__), "fixtures", "session-1.5")
    config = read_manifest(path)["config"]
    assert "rebuild_threshold" in config["incremental"]
    assert "matcher" in config and config["matcher"] is None
    restored = IncrementalResolver.load(path)
    assert "matcher" not in restored.config.to_dict()
    assert stream_digest(restored.stream()) == "ff40c28097d4f328cf9df0b791bf5e82"
    assert restored.matches == set() and restored.progress().matches_confirmed == 0
    assert stream_digest(fitted("python").stream()) == stream_digest(
        restored.reset().stream()
    )


def test_a_session_with_the_retired_incremental_purge_still_restores():
    """``fixtures/session-2.1-purge`` is what 2.1 saved for
    ``.blocking("token", purge=None, filter_ratio=None)
    .incremental(purge=0.5)`` over ``RECORDS`` (four at fit, two
    ingested).  The retired ``incremental.purge_ratio`` is read as the
    blocking ratio, so it restores to the digest 2.1 streamed - not the
    unpurged one of session-1.5."""
    path = os.path.join(os.path.dirname(__file__), "fixtures", "session-2.1-purge")
    assert read_manifest(path)["config"]["incremental"] == {"purge_ratio": 0.5}
    restored = IncrementalResolver.load(path)
    assert restored.config.blocking.purge_ratio == 0.5
    assert restored.config.to_dict()["incremental"] == {}
    assert stream_digest(restored.stream()) == "63f98c5815e2549731d9e92a6c529de4"
    assert restored.matches == set() and restored.clusters() == []


def decided_session():
    """A deciding session whose ingest of duplicates of records 0 and 3
    confirms three matches (record 1 is record 0 reworded)."""
    session = service_pipeline().match().fit(RECORDS)
    session.add_profiles([RECORDS[0], RECORDS[3]])
    return session


def test_a_restored_session_keeps_its_matches(tmp_path):
    session = decided_session()
    restored = IncrementalResolver.load(session.save(str(tmp_path / "s")))
    assert restored.matches == session.matches == {(0, 6), (1, 6), (3, 7)}
    assert restored.clusters() == session.clusters() == [[0, 1, 6], [3, 7]]
    assert restored.progress().matches_confirmed == 3
    assert restored._decided == session._decided > 3
    restored.add_profiles([RECORDS[5]])  # ingests keep deciding on top
    assert restored.clusters() == [[0, 1, 6], [3, 7], [5, 8]]


def test_a_live_reset_keeps_what_the_session_decided(tmp_path):
    """``reset()`` restarts the stream, not the ingests' decisions: the
    reset session reads as the same session saved and loaded."""
    session = decided_session()
    restored = IncrementalResolver.load(session.save(str(tmp_path / "s")))
    session.reset()
    assert session.matches == restored.matches == {(0, 6), (1, 6), (3, 7)}
    assert session.clusters() == restored.clusters() == [[0, 1, 6], [3, 7]]
    assert (
        session.progress().matches_confirmed
        == restored.progress().matches_confirmed
        == 3
    )
    assert session._decided == restored._decided


def test_the_manifest_is_one_line_whatever_the_matches(tmp_path):
    lines = {}
    for name, session in (("none", fitted("python")), ("three", decided_session())):
        path = session.save(str(tmp_path / name))
        with open(os.path.join(path, MANIFEST)) as handle:
            lines[name] = handle.read().count("\n")
        assert len(read_manifest(path)["matches"]) == len(session.matches)
    assert lines == {"none": 1, "three": 1}


def test_a_format_3_snapshot_restores_its_matches():
    """``fixtures/session-3-matches`` is ``decided_session()`` saved in
    format 3: it restores the saved decisions and the saved stream."""
    path = os.path.join(os.path.dirname(__file__), "fixtures", "session-3-matches")
    assert read_manifest(path)["format"] == "repro-session/3"
    restored = IncrementalResolver.load(path)
    live = decided_session()
    assert restored.matches == live.matches
    assert restored.clusters() == live.clusters()
    assert restored.progress().matches_confirmed == 3
    assert stream_digest(restored.stream()) == "e094abc3928c99c74a986a3a97ffa563"
    assert stream_digest(live.reset().stream()) == stream_digest(
        restored.reset().stream()
    )


def put_match_keys(path: str, **keys) -> None:
    """Write ``keys`` into the match stage of the manifest at ``path``."""
    manifest = read_manifest(path)
    manifest["config"]["match"] = {**(manifest["config"]["match"] or {}), **keys}
    with open(os.path.join(path, MANIFEST), "w") as handle:
        json.dump(manifest, handle)


def test_a_match_stage_with_the_retired_null_hook_keys_still_restores(tmp_path):
    """Every 2.x manifest with a match stage carries ``expensive`` and
    ``expensive_budget`` as null: it restores and decides as before."""
    session = service_pipeline().match().fit(RECORDS[:4])
    assert session.resolve_one(RECORDS[4])
    path = session.save(str(tmp_path / "s"))
    put_match_keys(path, expensive=None, expensive_budget=None)
    restored = IncrementalResolver.load(path)
    assert restored.config == session.config
    probe = session.resolve_one(PROBE, ingest=False)
    assert probe and restored.resolve_one(PROBE, ingest=False) == probe
    ingest = session.resolve_one(RECORDS[5])
    assert ingest and restored.resolve_one(RECORDS[5]) == ingest
    session.close()
    restored.close()


def test_manifest_contents(tmp_path):
    session = fitted("python")
    path = session.save(str(tmp_path / "s"))
    manifest = read_manifest(path)
    assert manifest["format"] == SNAPSHOT_FORMAT
    assert manifest["profiles"] == len(RECORDS)
    assert manifest["er_type"] == "DIRTY"
    assert manifest["generation"] == session.index.generation
    assert manifest["config"] == session.config.to_dict()


def test_save_returns_path_and_overwrites(tmp_path):
    session = fitted("python")
    path = str(tmp_path / "s")
    assert session.save(path) == path
    session.add_profiles([{"name": "carla white", "city": "ny"}])
    session.save(path)  # overwrite in place
    assert read_manifest(path)["profiles"] == len(RECORDS) + 1


def test_failed_resave_keeps_the_previous_snapshot(tmp_path, monkeypatch):
    """A crash while the new files are staged (a full disk) leaves the
    previous snapshot restorable, with its saved stream digest, and no
    staged file behind."""
    import repro.service.snapshot as snapshot_module

    session = fitted("python")
    path = session.save(str(tmp_path / "s"))
    saved = stream_digest(IncrementalResolver.load(path).stream())
    dump = snapshot_module.json.dump
    calls = []

    def crash_on_third_record(*args, **kwargs):
        calls.append(None)
        if len(calls) == 3:
            raise OSError("disk full")
        return dump(*args, **kwargs)

    monkeypatch.setattr(snapshot_module.json, "dump", crash_on_third_record)
    session.add_profiles([{"name": "carla white", "city": "ny"}])
    with pytest.raises(OSError, match="disk full"):
        session.save(path)
    monkeypatch.undo()
    assert sorted(os.listdir(path)) == [MANIFEST, PROFILES]
    assert read_manifest(path)["profiles"] == len(RECORDS)
    assert stream_digest(IncrementalResolver.load(path).stream()) == saved
    session.save(path)  # a clean retry writes the new snapshot
    assert read_manifest(path)["profiles"] == len(RECORDS) + 1


def test_torn_manifest_replace_leaves_no_stale_manifest(tmp_path, monkeypatch):
    """A crash at the last step - the staged manifest never lands - must
    not leave the old manifest describing the new profiles file."""
    import repro.service.snapshot as snapshot_module

    session = fitted("python")
    path = session.save(str(tmp_path / "s"))
    replace = snapshot_module.os.replace

    def crash_on_manifest(source, target):
        if target.endswith(MANIFEST):
            raise OSError("disk full")
        return replace(source, target)

    monkeypatch.setattr(snapshot_module.os, "replace", crash_on_manifest)
    session.add_profiles([{"name": "carla white", "city": "ny"}])
    with pytest.raises(OSError, match="disk full"):
        session.save(path)
    monkeypatch.undo()
    # The torn save is detectably incomplete, not silently hybrid.
    assert sorted(os.listdir(path)) == [PROFILES]
    with pytest.raises(ValueError, match="not a session snapshot"):
        read_manifest(path)
    session.save(path)  # a clean retry heals the snapshot
    assert read_manifest(path)["profiles"] == len(RECORDS) + 1


def test_read_manifest_rejects_non_snapshots(tmp_path):
    with pytest.raises(ValueError, match="not a session snapshot"):
        read_manifest(str(tmp_path))
    (tmp_path / "manifest.json").write_text(json.dumps({"format": "nope/9"}))
    with pytest.raises(ValueError, match="unsupported snapshot format"):
        read_manifest(str(tmp_path))
    (tmp_path / "manifest.json").write_text(json.dumps(["not", "an", "object"]))
    with pytest.raises(ValueError, match="unsupported snapshot format None"):
        read_manifest(str(tmp_path))


def test_load_rejects_profile_count_mismatch(tmp_path):
    session = fitted("python")
    path = session.save(str(tmp_path / "s"))
    with open(os.path.join(path, "profiles.jsonl"), "a") as handle:
        handle.write(json.dumps([0, [["extra", "row"]]]) + "\n")
    with pytest.raises(ValueError, match="profiles"):
        IncrementalResolver.load(path)


def cut_profiles(path: str, cut: str) -> None:
    """Truncate (or delete) the snapshot's ``profiles.jsonl``."""
    file = os.path.join(path, PROFILES)
    if cut == "missing":
        os.remove(file)
        return
    with open(file, "rb") as handle:
        data = handle.read()
    ends = {
        "mid-line": len(data) - 5,
        "at a line boundary": data.rindex(b"\n", 0, len(data) - 1) + 1,
        "empty file": 0,
    }
    with open(file, "wb") as handle:
        handle.write(data[: ends[cut]])


@pytest.mark.parametrize(
    "cut", ["mid-line", "at a line boundary", "empty file", "missing"]
)
def test_load_rejects_a_truncated_profiles_file(tmp_path, cut):
    """Every cut names ``profiles.jsonl``; none restores a shorter corpus."""
    session = service_pipeline().fit(RECORDS)
    path = session.save(str(tmp_path / "s"))
    session.close()
    cut_profiles(path, cut)
    with pytest.raises(ValueError, match="profiles.jsonl"):
        IncrementalResolver.load(path)


def test_a_torn_profile_line_names_its_line(tmp_path):
    path = fitted("python").save(str(tmp_path / "s"))
    cut_profiles(path, "mid-line")
    with pytest.raises(ValueError, match=f"profiles.jsonl line {len(RECORDS)}:"):
        IncrementalResolver.load(path)
    with open(os.path.join(path, PROFILES), "w") as handle:
        handle.write("[0]\n")
    with pytest.raises(ValueError, match="profiles.jsonl line 1: not enough"):
        IncrementalResolver.load(path)


def edit_manifest(path: str, key: str, value=None) -> None:
    """Set ``key`` in the manifest at ``path``; ``None`` removes it."""
    manifest = read_manifest(path)
    if value is None:
        del manifest[key]
    else:
        manifest[key] = value
    with open(os.path.join(path, MANIFEST), "w") as handle:
        json.dump(manifest, handle)


MALFORMED_MANIFESTS = {
    "no config": ("config", None),
    "no profiles": ("profiles", None),
    "no generation": ("generation", None),
    "unknown er_type": ("er_type", "NOPE"),
    # counts must be non-negative ints: a string count used to be
    # refused as "holds 6 profiles, manifest says 6", a bad generation
    # failed in int() unnamed, and true restored as generation 1
    "string profiles": ("profiles", str(len(RECORDS))),
    "string generation": ("generation", "x"),
    "boolean generation": ("generation", True),
    "negative generation": ("generation", -1),
    # the decisions of format 3
    "no decided": ("decided", None),
    "no matches": ("matches", None),
    "string decided": ("decided", "2"),
    "negative decided": ("decided", -1),
    "matches not a list": ("matches", {"0": 1}),
    "reversed match": ("matches", [[1, 0]]),
    "match past the corpus": ("matches", [[0, len(RECORDS)]]),
    "match of three ids": ("matches", [[0, 1, 2]]),
    "boolean match id": ("matches", [[False, 1]]),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_MANIFESTS))
def test_load_rejects_a_malformed_manifest(tmp_path, case):
    """The error names the snapshot and the key; it is no ``KeyError``."""
    path = fitted("python").save(str(tmp_path / "s"))
    key, value = MALFORMED_MANIFESTS[case]
    edit_manifest(path, key, value)
    with pytest.raises(ValueError, match=key) as caught:
        IncrementalResolver.load(path)
    assert path in str(caught.value)


def test_a_fresh_save_writes_the_manifest_and_the_profiles_only(tmp_path):
    path = fitted("python").save(str(tmp_path / "s"))
    assert sorted(os.listdir(path)) == sorted([MANIFEST, PROFILES])
    assert read_manifest(path)["format"] == SNAPSHOT_FORMAT == "repro-session/3"


def test_a_restored_index_keeps_the_saved_generation(tmp_path):
    session = fitted("python")
    session.add_profiles([{"name": "carla white", "city": "ny"}])
    assert session.index.generation == 2  # fit, then two ingests
    restored = IncrementalResolver.load(session.save(str(tmp_path / "s")))
    assert restored.index.generation == session.index.generation
    restored.add_profiles([{"name": "dora white", "city": "la"}])
    assert restored.index.generation == session.index.generation + 1


def test_save_on_closed_session_raises(tmp_path):
    session = fitted("python")
    session.close()
    with pytest.raises(SessionClosed):
        session.save(str(tmp_path / "s"))
