"""Rule ``fork-safety``: pool tasks must pickle by module path.

:class:`repro.parallel.pool.WorkerPool` ships tasks to forked worker
processes; ``pickle`` serializes a function *by reference* - its module
and qualified name - so only module-level functions survive the trip.
A lambda, a nested function, a ``functools.partial`` or a bound method
either fails to pickle outright or (worse, under fork) captures state
the worker should have received through the broadcast payload.

The rule inspects every ``<pool>.run(...)`` / ``<fanout>.run(...)`` call
site (any receiver whose spelling mentions ``pool`` or ``fanout`` - the
engine names its range kernels at ``fanout.run`` sites, and a pooled
fan-out forwards them to its pool) and requires the task argument to
resolve to a module-level function: a local ``def``, an imported name,
or a ``module.function`` attribute.
"""

from __future__ import annotations

import ast
from typing import Iterator

from tools.repro_analyze.core import SourceFile, Violation

RULE = "fork-safety"

_POOL_METHODS = {"run"}


def _collect_bindings(tree: ast.Module) -> tuple[set[str], set[str]]:
    """(module-level task candidates, names that must never be shipped)."""
    shippable: set[str] = set()
    forbidden: set[str] = set()

    # Imports bind picklable references wherever they appear - a
    # function-local ``from repro.engine.topk import rank_slice``
    # still names a module-level function - so imports are collected from
    # the whole file, not just the module body.
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            shippable.update(
                (alias.asname or alias.name.split(".")[0]) for alias in node.names
            )
        elif isinstance(node, ast.ImportFrom):
            shippable.update((alias.asname or alias.name) for alias in node.names)

    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            shippable.add(node.name)
        elif isinstance(node, ast.Assign):
            # Module-level aliases of other functions stay shippable;
            # lambda bindings are collected by the walk below.
            for target in node.targets:
                if isinstance(target, ast.Name) and isinstance(
                    node.value, (ast.Name, ast.Attribute)
                ):
                    shippable.add(target.id)

    # Nested defs and lambda bindings anywhere in the file are poison
    # regardless of spelling collisions with module-level names.
    module_level = {
        node for node in tree.body if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node not in module_level and not _is_method(tree, node):
                forbidden.add(node.name)
        elif isinstance(node, ast.Assign) and isinstance(node.value, ast.Lambda):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    forbidden.add(target.id)
    return shippable, forbidden


def _is_method(tree: ast.Module, func: ast.AST) -> bool:
    """Whether ``func`` is a direct member of a module-level class body."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and func in node.body:
            return True
    return False


def _mentions_pool(node: ast.expr) -> bool:
    spelling = ast.unparse(node).lower()
    return "pool" in spelling or "fanout" in spelling


def check(source: SourceFile) -> Iterator[Violation]:
    shippable, forbidden = _collect_bindings(source.tree)
    for node in ast.walk(source.tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if not (
            isinstance(func, ast.Attribute)
            and func.attr in _POOL_METHODS
            and _mentions_pool(func.value)
        ):
            continue
        if not node.args:
            continue
        task = node.args[0]
        problem: str | None = None
        if isinstance(task, ast.Lambda):
            problem = "a lambda cannot be pickled by reference"
        elif isinstance(task, ast.Call):
            problem = (
                "a constructed callable (partial/closure) does not pickle "
                "by module path; broadcast state through the payload instead"
            )
        elif isinstance(task, ast.Name):
            if task.id in forbidden:
                problem = (
                    f"{task.id!r} is a nested function or lambda binding; "
                    "workers unpickle tasks by module path, so hoist it to "
                    "module level"
                )
            elif task.id not in shippable:
                problem = (
                    f"cannot resolve {task.id!r} to a module-level function "
                    "or import; pool tasks must pickle by module path"
                )
        elif isinstance(task, ast.Attribute):
            base = task.value
            if isinstance(base, ast.Name) and base.id in ("self", "cls"):
                problem = (
                    "a bound method drags its instance through pickle; "
                    "ship a module-level function and pass state in the "
                    "payload"
                )
        if problem is not None:
            yield Violation(RULE, source.path, node.lineno, problem)
