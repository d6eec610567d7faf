"""The top-level surface is what something names.

Every name ``import repro`` re-exports must appear, as a word, in an
example, a benchmark, a doc page or the README: a re-export nothing
shows a reader is surface to maintain and to keep importable for no
one.  Everything else stays importable from its sub-package.
"""

from __future__ import annotations

import importlib
import pathlib
import re

import pytest

import repro

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]

# The top-level re-exports docs/migration.md ("eleventh round") moved to
# their sub-packages, with the sub-package it tells a reader to use.
MOVED_REEXPORTS = {
    "ResolverProgress": "repro.pipeline",
    "DecisionRecord": "repro.pipeline",
    "BlockingConfig": "repro.pipeline",
    "MetaBlockingConfig": "repro.pipeline",
    "MethodConfig": "repro.pipeline",
    "StorageConfig": "repro.pipeline",
    "ServiceConfig": "repro.pipeline",
    "OnlineRanked": "repro.incremental",
    "BlockCollection": "repro.blocking",
    "BlockFiltering": "repro.blocking",
    "BlockPurging": "repro.blocking",
    "KeyFunction": "repro.blocking",
    "build_blocking_graph": "repro.metablocking",
    "RCFWeighting": "repro.neighborlist",
    "ProgressiveMethod": "repro.progressive",
    "EditDistanceMatcher": "repro.matching",
    "OracleMatcher": "repro.matching",
    "DecisionQuality": "repro.evaluation",
    "timed_run": "repro.evaluation",
    "list_datasets": "repro.datasets",
}


def named_words() -> set[str]:
    paths = [REPO_ROOT / "README.md"]
    for folder in ("examples", "benchmarks", "docs"):
        paths += [
            path
            for path in sorted((REPO_ROOT / folder).rglob("*"))
            if path.suffix in (".py", ".md") and "__pycache__" not in path.parts
        ]
    return {
        word
        for path in paths
        for word in re.findall(r"\w+", path.read_text(encoding="utf-8"))
    }


def test_every_top_level_export_is_named_outside_src():
    words = named_words()
    exported = [name for name in repro.__all__ if name != "__version__"]
    assert [name for name in exported if name not in words] == []


@pytest.mark.parametrize("name", sorted(MOVED_REEXPORTS))
def test_a_moved_reexport_is_exported_by_its_sub_package(name):
    module = importlib.import_module(MOVED_REEXPORTS[name])
    assert name in module.__all__
    assert getattr(module, name) is not None
    assert name not in repro.__all__


def test_the_migration_row_names_every_moved_reexport():
    text = (REPO_ROOT / "docs" / "migration.md").read_text(encoding="utf-8")
    section = text.split("## Removed since 2.1, eleventh round", 1)[1]
    row = next(line for line in section.splitlines() if "at the top level" in line)
    named = re.findall(r"`(?:repro\.)?(\w+)`", row.split("|")[1])
    assert sorted(named) == sorted(MOVED_REEXPORTS)
    for module in set(MOVED_REEXPORTS.values()):
        assert f"`{module}`" in row, module
