"""repro-analyze: project-specific static analysis for the parity rules.

Run from the repo root::

    python -m tools.repro_analyze src tests benchmarks

Five rules enforce the invariants the generic linters cannot express -
``guarded-numpy``, ``determinism``, ``fork-safety``,
``budget-semantics`` (AST rules over the scanned files) plus
``registry-metadata`` (a rule over the live registries).  The
catalogue, the suppression syntax and the recipe for adding a rule live
in ``docs/static-analysis.md``.
"""

from __future__ import annotations

from tools.repro_analyze.core import (
    SourceFile,
    Violation,
    parse_snippet,
)
from tools.repro_analyze.runner import main, rule_names, run_paths

__all__ = [
    "SourceFile",
    "Violation",
    "parse_snippet",
    "main",
    "rule_names",
    "run_paths",
]
