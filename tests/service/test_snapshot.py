"""Snapshot/restore: the bit-identical stream-digest contract."""

from __future__ import annotations

import json
import os

import pytest

from repro.errors import SessionClosed
from repro.incremental.resolver import IncrementalResolver
from repro.service.snapshot import (
    SNAPSHOT_FORMAT,
    _read_npy_int64,
    _write_npy_int64,
    read_manifest,
    stream_digest,
)

from .conftest import RECORDS, service_pipeline

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
    ``fitted("python")`` (its numpy writer, its manifest - carrying the
    ``rebuild_threshold`` key retired in 2.0); the digest is the one it
    streamed."""
    path = os.path.join(os.path.dirname(__file__), "fixtures", "session-1.5")
    assert "rebuild_threshold" in read_manifest(path)["config"]["incremental"]
    restored = IncrementalResolver.load(path)
    assert stream_digest(restored.stream()) == "ff40c28097d4f328cf9df0b791bf5e82"
    assert stream_digest(fitted("python").stream()) == stream_digest(
        restored.reset().stream()
    )


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


def test_torn_resave_leaves_no_stale_manifest(tmp_path, monkeypatch):
    """A crash mid-overwrite must not leave the old manifest describing
    a mix of old and new data files: the old manifest goes first, the
    new one lands last (atomically)."""
    import repro.service.snapshot as snapshot_module

    session = fitted("python")
    path = str(tmp_path / "s")
    session.save(path)
    assert read_manifest(path)["profiles"] == len(RECORDS)

    def crash(*args, **kwargs):
        raise OSError("disk full")

    monkeypatch.setattr(snapshot_module, "_write_arrays", crash)
    session.add_profiles([{"name": "carla white", "city": "ny"}])
    with pytest.raises(OSError, match="disk full"):
        session.save(path)
    # The torn save is detectably incomplete, not silently hybrid.
    with pytest.raises(ValueError, match="not a session snapshot"):
        read_manifest(path)
    monkeypatch.undo()
    session.save(path)  # a clean retry heals the snapshot
    assert read_manifest(path)["profiles"] == len(RECORDS) + 1


def test_read_manifest_rejects_non_snapshots(tmp_path):
    with pytest.raises(ValueError, match="not a session snapshot"):
        read_manifest(str(tmp_path))
    (tmp_path / "manifest.json").write_text(json.dumps({"format": "nope/9"}))
    with pytest.raises(ValueError, match="unsupported snapshot format"):
        read_manifest(str(tmp_path))


def test_load_rejects_profile_count_mismatch(tmp_path):
    session = fitted("python")
    path = session.save(str(tmp_path / "s"))
    with open(os.path.join(path, "profiles.jsonl"), "a") as handle:
        handle.write(json.dumps([0, [["extra", "row"]]]) + "\n")
    with pytest.raises(ValueError, match="profiles"):
        IncrementalResolver.load(path)


def test_save_on_closed_session_raises(tmp_path):
    session = fitted("python")
    session.close()
    with pytest.raises(SessionClosed):
        session.save(str(tmp_path / "s"))


# -- the stdlib .npy codec -----------------------------------------------------


@pytest.mark.parametrize("values", [[], [0], [1, 2, 3, 2**40, -5]])
def test_stdlib_npy_round_trip(tmp_path, values):
    path = str(tmp_path / "a.npy")
    _write_npy_int64(path, values)
    assert list(_read_npy_int64(path)) == values


@pytest.mark.parametrize("values", [[3, 1, 4, 1, 5, 9, 2**50], []])
def test_stdlib_npy_files_are_numpy_compatible(tmp_path, values):
    """Both writers produce byte-identical files; both readers agree."""
    np = pytest.importorskip("numpy")
    ours = tmp_path / "ours.npy"
    theirs = tmp_path / "theirs.npy"
    _write_npy_int64(str(ours), values)
    np.save(str(theirs), np.asarray(values, dtype=np.int64))
    assert ours.read_bytes() == theirs.read_bytes()
    assert np.load(str(ours)).tolist() == values
    assert list(_read_npy_int64(str(theirs))) == values


def test_stdlib_npy_reader_rejects_other_dtypes(tmp_path):
    from repro.service.snapshot import _npy_header

    path = tmp_path / "floats.npy"
    path.write_bytes(_npy_header(0).replace(b"<i8", b"<f8"))
    with pytest.raises(ValueError, match="expected a C-order"):
        _read_npy_int64(str(path))


def test_stdlib_npy_reader_rejects_other_shapes_and_short_files(tmp_path):
    from repro.service.snapshot import _npy_header

    matrix = tmp_path / "matrix.npy"
    matrix.write_bytes(_npy_header(4).replace(b"(4,), ", b"(2,2),"))
    with pytest.raises(ValueError, match="one dimension"):
        _read_npy_int64(str(matrix))
    whole = tmp_path / "whole.npy"
    _write_npy_int64(str(whole), [1, 2, 3])
    data = whole.read_bytes()
    for cut in (len(data) - 3, len(data) - 8, 70, 9, 7):
        torn = tmp_path / f"torn{cut}.npy"
        torn.write_bytes(data[:cut])
        with pytest.raises(ValueError):
            _read_npy_int64(str(torn))


def test_stdlib_npy_reader_rejects_non_npy_files(tmp_path):
    path = tmp_path / "notes.txt"
    path.write_bytes(b"just some text, long enough to cover the magic")
    with pytest.raises(ValueError, match="not a .npy file"):
        _read_npy_int64(str(path))
