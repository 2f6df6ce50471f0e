"""Module discovery and parsing for the linter.

A :class:`Project` is a set of parsed source modules keyed by dotted
module name.  Discovery never imports anything — analysis is pure AST,
so the linter can safely chew on code whose import-time side effects
(or missing optional dependencies) would make ``importlib`` hazardous.

Suppression comments are extracted here too: ``# repro: allow[RULE]``
on a line suppresses findings of that rule on the same line; a comment
that has the whole line to itself covers the following line instead.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path

_SUPPRESS_RE = re.compile(r"#\s*repro:\s*allow\[([A-Za-z0-9_\-,\s*]+)\]")


class LintUsageError(Exception):
    """Bad CLI input: missing paths, unparseable files, unknown rules."""


@dataclass
class SourceModule:
    """One parsed source file."""

    name: str  # dotted module name, e.g. "repro.runtime.tasks"
    path: Path
    source: str
    tree: ast.Module
    #: True for ``__init__.py`` (affects relative-import resolution).
    is_package: bool = False
    #: line number -> set of rule codes suppressed there ("*" = all)
    suppressions: dict[int, set[str]] = field(default_factory=dict)

    @property
    def lines(self) -> list[str]:
        return self.source.splitlines()

    def line_text(self, lineno: int) -> str:
        lines = self.lines
        if 1 <= lineno <= len(lines):
            return lines[lineno - 1]
        return ""

    def is_suppressed(self, rule: str, lineno: int) -> bool:
        codes = self.suppressions.get(lineno)
        if not codes:
            return False
        return "*" in codes or rule in codes


def _extract_suppressions(source: str) -> dict[int, set[str]]:
    """Map line numbers to the rule codes allowed on them.

    Uses ``tokenize`` so comment-looking text inside strings is never
    misread.  A comment-only line forwards its allowance to the next
    line, which keeps long statements suppressible without trailing
    100-column comments.  A source without the marker text anywhere is
    never tokenized.
    """
    out: dict[int, set[str]] = {}
    if _SUPPRESS_RE.search(source) is None:
        return out
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, SyntaxError, IndentationError):
        return out
    code_lines = {
        tok.start[0]
        for tok in tokens
        if tok.type
        not in (
            tokenize.COMMENT,
            tokenize.NL,
            tokenize.NEWLINE,
            tokenize.INDENT,
            tokenize.DEDENT,
            tokenize.ENDMARKER,
        )
    }
    for tok in tokens:
        if tok.type != tokenize.COMMENT:
            continue
        match = _SUPPRESS_RE.search(tok.string)
        if match is None:
            continue
        codes = {part.strip() for part in match.group(1).split(",") if part.strip()}
        line = tok.start[0]
        target = line if line in code_lines else line + 1
        out.setdefault(target, set()).update(codes)
    return out


def load_source(path: Path, module_name: str) -> SourceModule:
    source = path.read_text(encoding="utf-8")
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        raise LintUsageError(f"{path}: cannot parse: {exc}") from exc
    return SourceModule(
        name=module_name,
        path=path,
        source=source,
        tree=tree,
        is_package=path.name == "__init__.py",
        suppressions=_extract_suppressions(source),
    )


def _module_name(py_file: Path, package_root: Path) -> str:
    """Dotted module name of ``py_file`` under ``package_root``'s parent."""
    rel = py_file.relative_to(package_root.parent)
    parts = list(rel.with_suffix("").parts)
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def _find_package_roots(path: Path) -> list[Path]:
    """Top-level package directories reachable from ``path``.

    ``path`` may be a package itself, a directory of packages (``src/``),
    or a plain directory of scripts (each file becomes its own module).
    """
    if (path / "__init__.py").exists():
        return [path]
    roots = [
        child
        for child in sorted(path.iterdir())
        if child.is_dir() and (child / "__init__.py").exists()
    ]
    return roots


@dataclass
class Project:
    """Every module the linter can see, keyed by dotted name."""

    modules: dict[str, SourceModule] = field(default_factory=dict)

    def get(self, name: str) -> "SourceModule | None":
        return self.modules.get(name)

    def __iter__(self):
        return iter(self.modules.values())

    def __len__(self) -> int:
        return len(self.modules)

    def sorted_modules(self) -> "list[SourceModule]":
        return [self.modules[name] for name in sorted(self.modules)]


def load_project(paths: "list[str | Path]") -> Project:
    """Discover and parse every module under the given paths."""
    project = Project()
    for raw in paths:
        path = Path(raw)
        if not path.exists():
            raise LintUsageError(f"path does not exist: {path}")
        if path.is_file():
            if path.suffix != ".py":
                raise LintUsageError(f"not a python file: {path}")
            mod = load_source(path, path.stem)
            project.modules[mod.name] = mod
            continue
        package_roots = _find_package_roots(path)
        if package_roots:
            for root in package_roots:
                for py_file in sorted(root.rglob("*.py")):
                    if "__pycache__" in py_file.parts:
                        continue
                    mod = load_source(py_file, _module_name(py_file, root))
                    project.modules[mod.name] = mod
        else:
            for py_file in sorted(path.glob("*.py")):
                mod = load_source(py_file, py_file.stem)
                project.modules[mod.name] = mod
    if not project.modules:
        raise LintUsageError(f"no python modules found under: {', '.join(map(str, paths))}")
    return project
