"""Framework for the project checkers: files, suppressions, violations.

Two checker shapes plug into the runner:

* **file rules** - a module with a ``RULE`` name and a
  ``check(source: SourceFile)`` generator; the runner parses every
  ``.py`` file once and feeds the same :class:`SourceFile` to each rule.
* **project rules** - a module with a ``RULE`` name and a
  ``check_project()`` generator; these import the live registries and
  validate their entries (structural checks an AST cannot see through
  lazy registration).

Violations are suppressed line-by-line with::

    risky_code()  # repro-analyze: ignore[rule-name] reason for the waiver

A bare ``ignore`` (no bracket list) waives every rule on that line; the
bracket form takes a comma-separated rule list.  Suppressions are meant
to be rare and always carry the reason in the trailing free text.
"""

from __future__ import annotations

import ast
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

#: ``# repro-analyze: ignore`` or ``# repro-analyze: ignore[rule, rule]``.
_SUPPRESSION = re.compile(
    r"#\s*repro-analyze:\s*ignore(?:\[(?P<rules>[^\]]*)\])?"
)

#: The wildcard stored for a bare ``ignore`` comment.
ALL_RULES = "*"


@dataclass(frozen=True)
class Violation:
    """One rule hit at one location."""

    rule: str
    path: str
    line: int
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


@dataclass
class SourceFile:
    """One parsed python file plus everything the rules need."""

    path: str
    text: str
    tree: ast.Module
    module: str | None
    suppressions: dict[int, set[str]] = field(default_factory=dict)

    def suppressed(self, rule: str, line: int) -> bool:
        rules = self.suppressions.get(line)
        return rules is not None and (rule in rules or ALL_RULES in rules)


def module_name(path: Path, root: Path) -> str | None:
    """The dotted module a repo-relative path would import as.

    ``src`` is the package root for the library; ``tests`` and
    ``benchmarks`` map from the repo root.  Paths outside any known
    root (fixture snippets, scratch files) get no module name, which
    scoped rules treat as "not part of the library".
    """
    try:
        rel = path.resolve().relative_to(root.resolve())
    except ValueError:
        return None
    parts = list(rel.parts)
    if not parts or not parts[-1].endswith(".py"):
        return None
    if parts[0] == "src":
        parts = parts[1:]
    if not parts:
        return None
    parts[-1] = parts[-1][: -len(".py")]
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts) if parts else None


def find_suppressions(text: str) -> dict[int, set[str]]:
    """Line -> waived rule names, parsed from the comment tokens.

    Tokenizing (rather than regex over raw lines) keeps string literals
    that merely *mention* the marker - like the ones in this module and
    in the docs - from acting as suppressions.
    """
    suppressions: dict[int, set[str]] = {}
    try:
        tokens = tokenize.generate_tokens(iter(text.splitlines(True)).__next__)
        for token in tokens:
            if token.type != tokenize.COMMENT:
                continue
            match = _SUPPRESSION.search(token.string)
            if not match:
                continue
            listed = match.group("rules")
            if listed is None:
                rules = {ALL_RULES}
            else:
                rules = {part.strip() for part in listed.split(",") if part.strip()}
            if rules:
                suppressions.setdefault(token.start[0], set()).update(rules)
    except tokenize.TokenError:  # unterminated constructs: no suppressions
        pass
    return suppressions


def parse_file(path: Path, root: Path) -> SourceFile | None:
    """Parse one file; ``None`` when it does not parse (reported upstream)."""
    text = path.read_text(encoding="utf-8")
    try:
        tree = ast.parse(text, filename=str(path))
    except SyntaxError:
        return None
    try:
        rel = str(path.resolve().relative_to(root.resolve()))
    except ValueError:
        rel = str(path)
    return SourceFile(
        path=rel,
        text=text,
        tree=tree,
        module=module_name(path, root),
        suppressions=find_suppressions(text),
    )


def parse_snippet(
    text: str, *, module: str | None = None, path: str = "<snippet>"
) -> SourceFile:
    """A :class:`SourceFile` from an in-memory snippet (tests, doctests).

    ``module`` sets the dotted name scoped rules key off, so a fixture
    can pose as e.g. ``repro.blocking.demo`` without living in src.

    >>> source = parse_snippet("import numpy\\n", module="repro.blocking.demo")
    >>> source.module
    'repro.blocking.demo'
    """
    return SourceFile(
        path=path,
        text=text,
        tree=ast.parse(text),
        module=module,
        suppressions=find_suppressions(text),
    )


def collect_files(paths: Iterable[str], root: Path) -> list[Path]:
    """Every ``.py`` file under the given files/directories, sorted."""
    found: set[Path] = set()
    for raw in paths:
        path = (root / raw) if not Path(raw).is_absolute() else Path(raw)
        if path.is_file() and path.suffix == ".py":
            found.add(path)
        elif path.is_dir():
            found.update(
                candidate
                for candidate in path.rglob("*.py")
                if not any(part.startswith(".") for part in candidate.parts)
            )
    return sorted(found)


def filter_suppressed(
    source: SourceFile, violations: Iterable[Violation]
) -> Iterator[Violation]:
    for violation in violations:
        if not source.suppressed(violation.rule, violation.line):
            yield violation
