#!/usr/bin/env python3
"""Verify that relative markdown links in the repo's documentation resolve.

Checks every ``[text](target)`` link in the given markdown files (default:
README.md, ROADMAP.md, CHANGES.md, PAPER.md, and docs/*.md — PAPERS.md is
excluded: its text is extracted from upstream sources and carries image
references that were never part of this repo):

* relative file targets must exist on disk (relative to the linking file);
* ``path#anchor`` targets must point at an existing file AND a heading in
  it whose GitHub-style slug matches the anchor;
* external links (http/https/mailto) are *not* fetched — CI must not
  depend on the network — but obviously malformed ones (no host) fail;
* backtick-quoted repo paths (````tests/test_sweep.py````,
  ````core/tcpu.py```` …) must exist, resolved against the repo root,
  ``src/``, or ``src/repro/`` — so docs cannot reference files that were
  renamed or never landed;
* a ``path.py::Name`` (or ``path.py::Name::name``) citation must also name
  symbols the file defines: each component needs a ``class``/``def`` line
  of that name in the file (plain text search, nothing is imported) — so
  docs cannot go on citing a test class after it was removed.  The history
  logs (CHANGES.md, ROADMAP.md) are exempt from these two rules only: they
  name files and symbols later PRs deleted, by design.

Python sources (default: ``src/**/*.py``) are scanned for one thing only: a
``NAME.md`` a docstring or comment mentions must exist at the repo root or
under ``docs/`` — so code cannot cite a design document the repository never
had.

Exit status 0 when every link resolves, 1 otherwise (each broken link is
reported as ``file:line: message``).

Usage::

    python tools/check_doc_links.py [file.md | file.py ...]
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

#: Inline markdown links: [text](target).  Reference-style links and bare
#: URLs are out of scope — the repo's docs use inline links exclusively.
LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
HEADING_RE = re.compile(r"^#{1,6}\s+(.*?)\s*#*\s*$")

#: Inline code spans, and the file-looking paths inside them: at least one
#: directory component plus a known extension (bare filenames like
#: ``manifest.json`` name run-time outputs, not repo files, and are skipped;
#: globs are skipped too).
CODE_SPAN_RE = re.compile(r"`([^`]+)`")
CODE_PATH_RE = re.compile(r"(?<![\w./-])([\w.-]+(?:/[\w.-]+)+"
                          r"\.(?:py|md|json|yml|yaml|toml))"
                          r"((?:::\w+)*)(?![\w/-])")

#: Roots a backtick-quoted path may be relative to: repo root for
#: ``tests/...``/``benchmarks/...``, the source roots for module paths the
#: architecture docs quote as ``core/tcpu.py`` or ``repro/sweep/plan.py``.
PATH_ROOTS = ("", "src", "src/repro")

#: Per-PR history: checked for links, not for stale code references.
HISTORY_LOGS = ("CHANGES.md", "ROADMAP.md")

#: A markdown file named in Python source, with any directories in front.
SOURCE_DOC_RE = re.compile(r"(?<![\w./-])((?:[\w.-]+/)*[\w-]+\.md)\b")


def github_slug(heading: str) -> str:
    """GitHub's anchor slug: lowercase, drop punctuation, spaces → hyphens."""
    text = re.sub(r"[`*_~\[\]()]", "", heading).strip().lower()
    text = re.sub(r"[^\w\- ]", "", text)
    return text.replace(" ", "-")


def heading_slugs(path: Path) -> set[str]:
    slugs: set[str] = set()
    in_code_fence = False
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.lstrip().startswith("```"):
            in_code_fence = not in_code_fence
            continue
        if in_code_fence:
            continue
        match = HEADING_RE.match(line)
        if match:
            slugs.add(github_slug(match.group(1)))
    return slugs


def check_file(md_file: Path, repo_root: Path) -> list[str]:
    errors: list[str] = []
    in_code_fence = False
    for lineno, line in enumerate(md_file.read_text(encoding="utf-8").splitlines(),
                                  start=1):
        if line.lstrip().startswith("```"):
            in_code_fence = not in_code_fence
            continue
        if in_code_fence:
            continue
        for target in LINK_RE.findall(line):
            error = check_target(md_file, target)
            if error:
                errors.append(f"{md_file}:{lineno}: {error}")
        if md_file.name in HISTORY_LOGS:
            continue
        for candidate, symbols in code_path_candidates(line):
            found = [repo_root / root / candidate for root in PATH_ROOTS
                     if (repo_root / root / candidate).exists()]
            if not found:
                errors.append(f"{md_file}:{lineno}: stale code reference "
                              f"`{candidate}`: not found under repo root, "
                              f"src/, or src/repro/")
                continue
            source = found[0].read_text(encoding="utf-8")
            for symbol in filter(None, symbols.split("::")):
                if not re.search(rf"^\s*(?:class|def|async def)\s+{symbol}\b",
                                 source, re.MULTILINE):
                    errors.append(f"{md_file}:{lineno}: stale symbol "
                                  f"reference `{candidate}{symbols}`: no "
                                  f"class/def `{symbol}` in {candidate}")
    return errors


def check_source(py_file: Path, repo_root: Path) -> list[str]:
    """Every ``NAME.md`` the source mentions exists at the root or in docs/."""
    errors: list[str] = []
    for lineno, line in enumerate(py_file.read_text(encoding="utf-8").splitlines(),
                                  start=1):
        for cited in SOURCE_DOC_RE.findall(line):
            if not any((repo_root / base / cited).exists() for base in ("", "docs")):
                errors.append(f"{py_file}:{lineno}: cites {cited}, which is "
                              f"neither at the repo root nor under docs/")
    return errors


def code_path_candidates(line: str) -> list[tuple[str, str]]:
    """``(path, "::Symbol…" or "")`` for each file-looking path quoted in
    the line's inline code spans."""
    candidates: list[tuple[str, str]] = []
    for span in CODE_SPAN_RE.findall(line):
        if any(ch in span for ch in "*{<"):   # globs / templates, not paths
            continue
        candidates.extend(CODE_PATH_RE.findall(span))
    return candidates


def check_target(md_file: Path, target: str) -> str | None:
    if target.startswith(("http://", "https://")):
        if not re.match(r"https?://[\w.-]+", target):
            return f"malformed external link {target!r}"
        return None
    if target.startswith("mailto:"):
        return None
    path_part, _, anchor = target.partition("#")
    if not path_part:                     # intra-file anchor: #section
        resolved = md_file
    else:
        resolved = (md_file.parent / path_part).resolve()
        if not resolved.exists():
            return f"broken link {target!r}: {path_part} does not exist"
    if anchor:
        if resolved.suffix.lower() not in (".md", ".markdown"):
            return None                   # anchors into non-markdown: skip
        if anchor not in heading_slugs(resolved):
            return (f"broken anchor {target!r}: no heading in "
                    f"{resolved.name} slugs to #{anchor}")
    return None


def main(argv: list[str]) -> int:
    repo_root = Path(__file__).resolve().parent.parent
    if argv:
        files = [Path(arg) for arg in argv]
    else:
        files = [repo_root / name
                 for name in ("README.md", "ROADMAP.md", "CHANGES.md", "PAPER.md")]
        files += sorted((repo_root / "docs").glob("*.md"))
        files += sorted((repo_root / "src").rglob("*.py"))
    missing = [f for f in files if not f.exists()]
    if missing:
        for path in missing:
            print(f"{path}: file not found", file=sys.stderr)
        return 1
    sources = [f for f in files if f.suffix == ".py"]
    files = [f for f in files if f.suffix != ".py"]
    errors = [error
              for md_file in files
              for error in check_file(md_file, repo_root)]
    errors += [error
               for py_file in sources
               for error in check_source(py_file, repo_root)]
    for error in errors:
        print(error, file=sys.stderr)
    checked = sum(len(LINK_RE.findall(f.read_text(encoding='utf-8'))) for f in files)
    if not errors:
        print(f"OK: {checked} links across {len(files)} files resolve; "
              f"{len(sources)} source files cite only documents that exist")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
