"""The rule modules.

A file rule exports ``RULE`` and ``check(source)``; a project rule
exports ``RULE`` and ``check_project()``.  Add a new rule by dropping a
module here and listing it in the matching tuple - the runner, the
``--list-rules`` output and the docs catalogue all read these tuples.
"""

from __future__ import annotations

from tools.repro_analyze.checkers import (
    budget_semantics,
    determinism,
    fork_safety,
    guarded_numpy,
    registry_metadata,
)

#: Rules that scan parsed source files.
FILE_RULES = (guarded_numpy, determinism, fork_safety, budget_semantics)

#: Rules that validate the live registries.
PROJECT_RULES = (registry_metadata,)

ALL_RULES = FILE_RULES + PROJECT_RULES

__all__ = ["FILE_RULES", "PROJECT_RULES", "ALL_RULES"]
