"""Every Markdown file that a source, benchmark or example file names exists.

Docstrings point readers at ``docs/*.md`` for the conventions and
contracts the code follows; a reference to a file that is not in the
repository sends them nowhere.  Paths are read relative to the
repository root.  A reference that cites a section (``docs/x.md``,
§ Heading) must name a heading of that file.
"""

from __future__ import annotations

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCANNED = ("src", "benchmarks", "examples")

#: A path-like token ending in ``.md`` (``docs/runtime.md``, ``README.md``).
MD_PATH = re.compile(r"[\w./-]*\w\.md\b")
#: A ``.md`` path followed, past punctuation, by a ``§`` section citation.
SECTION_REF = re.compile(r"(?P<path>[\w./-]*\w\.md)\b\W{0,6}§\s*")
#: A line break plus the next line's indentation and comment marker.
LINE_BREAK = re.compile(r"\n[ \t]*(?:#[ \t]*)?")


def scanned_files(root: Path = ROOT) -> "list[Path]":
    return [
        source
        for folder in SCANNED
        for source in sorted((root / folder).rglob("*.py"))
    ]


def named_markdown_paths(root: Path = ROOT) -> "list[tuple[str, str]]":
    """``(where, path)`` for every ``*.md`` path the scanned files name."""
    found = []
    for source in scanned_files(root):
        text = source.read_text(encoding="utf-8")
        for lineno, line in enumerate(text.splitlines(), start=1):
            for match in MD_PATH.finditer(line):
                where = f"{source.relative_to(root)}:{lineno}"
                found.append((where, match.group()))
    return found


def missing_paths(root: Path = ROOT) -> "list[str]":
    return [
        f"{where}: {path}"
        for where, path in named_markdown_paths(root)
        if not (root / path).is_file()
    ]


def headings(path: Path) -> "list[str]":
    """The Markdown headings of ``path``, outside fenced code blocks."""
    found = []
    fenced = False
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("```"):
            fenced = not fenced
        elif not fenced and line.startswith("#"):
            found.append(line.lstrip("#").strip())
    return found


def section_citations(root: Path = ROOT) -> "list[tuple[str, str, str]]":
    """``(file, path, text after §)`` for every ``§`` section citation.

    Line breaks (and a comment's ``#``) are folded to one space first,
    so a heading wrapped across two lines still reads whole.
    """
    found = []
    for source in scanned_files(root):
        text = LINE_BREAK.sub(" ", source.read_text(encoding="utf-8"))
        for match in SECTION_REF.finditer(text):
            where = str(source.relative_to(root))
            found.append((where, match["path"], text[match.end() :]))
    return found


def unknown_sections(root: Path = ROOT) -> "list[str]":
    out = []
    for where, path, rest in section_citations(root):
        target = root / path
        if target.is_file() and not any(
            rest.startswith(heading) for heading in headings(target)
        ):
            out.append(f"{where}: {path} § {rest[:40]}")
    return out


def test_every_named_markdown_file_exists():
    assert named_markdown_paths(), "no *.md reference found; the scan is broken"
    assert missing_paths() == []


def test_every_cited_section_exists():
    assert section_citations(), "no § citation found; the scan is broken"
    assert unknown_sections() == []


def test_scan_reports_a_dangling_file_and_section(tmp_path):
    (tmp_path / "docs").mkdir()
    (tmp_path / "docs" / "real.md").write_text(
        "# Title\n\n```\n# Fenced, not a heading\n```\n\n## Real section\n"
    )
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "mod.py").write_text(
        '"""See ``docs/gone.md``; ``docs/real.md``, § Real\n'
        "section; and ``docs/real.md`` (§ Fenced, not a heading).\n"
        '"""\n'
        "# docs/real.md, § Invented\n"
    )
    assert missing_paths(tmp_path) == ["src/mod.py:1: docs/gone.md"]
    unknown = unknown_sections(tmp_path)
    assert len(unknown) == 2
    assert unknown[0].startswith("src/mod.py: docs/real.md § Fenced, not a")
    assert unknown[1].startswith("src/mod.py: docs/real.md § Invented")
