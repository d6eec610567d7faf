"""Doctest every code example in README.md and docs/.

The documentation is executable by contract: every ``>>>`` block in the
markdown pages must run and produce the printed output, so examples can
never silently rot.  This tier-1 runner is the only place the pages are
doctested.  Pages whose examples need numpy are listed in
``NUMPY_DOCUMENTS`` and skip without it; every other page runs on the
dependency-free backend.
"""

from __future__ import annotations

import doctest
import pathlib

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]

DOCUMENTS = sorted((REPO_ROOT / "docs").glob("*.md")) + [REPO_ROOT / "README.md"]


def test_documentation_is_present():
    """The acceptance floor: a README and a docs/ directory exist."""
    assert (REPO_ROOT / "README.md").is_file()
    names = {path.name for path in DOCUMENTS}
    assert {
        "architecture.md",
        "api.md",
        "benchmarks.md",
        "incremental.md",
        "matching.md",
        "metablocking.md",
        "migration.md",
        "parallel.md",
        "service.md",
    } <= names


# Pages whose examples need the repro[speed] extra; they skip on
# dependency-free environments (tier-1 stays runnable without numpy).
NUMPY_DOCUMENTS = {"parallel.md", "scale.md"}


@pytest.mark.parametrize("path", DOCUMENTS, ids=lambda path: path.name)
def test_documentation_examples_run(path: pathlib.Path, monkeypatch):
    if path.name in NUMPY_DOCUMENTS:
        pytest.importorskip("numpy")
    # Examples reference repo-root files (e.g. BENCHMARK.json)
    # relatively, so anchor the working directory.
    monkeypatch.chdir(REPO_ROOT)
    result = doctest.testfile(str(path), module_relative=False)
    assert result.attempted > 0, f"{path.name} has no runnable examples"
    assert result.failed == 0, f"{path.name}: {result.failed} failing examples"
