"""Every third-party module a test imports at module level is declared.

A test module that imports an undeclared package at module level does
not fail - it stops collection on any host that lacks the package, so
the whole run reports nothing.  The ``test`` extra in pyproject.toml is
what a host installs to run tier-1; this test holds the module-level
imports of ``tests/`` and of every ``benchmarks/`` module to it.  Optional
dependencies (numpy) are imported with ``pytest.importorskip`` instead,
inside the tests that need them.
"""

from __future__ import annotations

import ast
import pathlib
import re
import sys

import pytest

tomllib = pytest.importorskip("tomllib")

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]

FIRST_PARTY = {"repro", "tests", "benchmarks"}


def module_level_imports(path: pathlib.Path) -> set[str]:
    """Top-level package names imported by ``path``'s module body."""
    names = set()
    for node in ast.parse(path.read_text(), filename=str(path)).body:
        if isinstance(node, ast.Import):
            names.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.partition(".")[0])
    return names


def declared_test_requirements() -> set[str]:
    """Import names of the ``test`` extra (``hypothesis>=6`` -> ``hypothesis``)."""
    with open(REPO_ROOT / "pyproject.toml", "rb") as handle:
        project = tomllib.load(handle)["project"]
    return {
        re.match(r"[A-Za-z0-9_.-]+", requirement)[0].lower().replace("-", "_")
        for requirement in project["optional-dependencies"]["test"]
    }


def test_module_level_test_imports_are_declared():
    modules = sorted(REPO_ROOT.glob("tests/**/*.py")) + sorted(
        REPO_ROOT.glob("benchmarks/**/*.py")
    )
    third_party: dict[str, list[str]] = {}
    for path in modules:
        for name in module_level_imports(path):
            if name not in sys.stdlib_module_names and name not in FIRST_PARTY:
                third_party.setdefault(name, []).append(
                    str(path.relative_to(REPO_ROOT))
                )
    assert "pytest" in third_party  # the scan saw the suite
    declared = declared_test_requirements()
    undeclared = {
        name: files for name, files in third_party.items() if name not in declared
    }
    assert not undeclared, (
        "imported at module level but missing from the `test` extra in "
        f"pyproject.toml (declare it, or importorskip it): {undeclared}"
    )
