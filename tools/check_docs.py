#!/usr/bin/env python3
"""Markdown lint + intra-repo link checker for ``docs/`` and the README, and
a name check over the Sphinx roles in ``src/`` docstrings.

Stdlib-only, run by the CI ``docs`` job (and by ``tests/test_check_docs.py``
against the checked-in tree). Four classes of checks:

* **Lint** — balanced code fences, exactly one H1 per page, heading levels
  that never skip (``##`` to ``####``), and no malformed link syntax
  (``] (`` with a space).
* **Links** — every relative link target must exist in the repository, and
  every ``#fragment`` must match a heading anchor (GitHub slug rules) in the
  target file. External (``http(s)://``, ``mailto:``) links are not fetched.
* **Names** — every inline-code span that starts with a CamelCase identifier
  must name a class, function or module-level assignment defined under
  ``src/`` (or a Python builtin); a ``Class.member`` span must name a member
  of that class (or of a base class defined under ``src/``).  Every
  ``repro.a.b`` dotted path, in code or prose, must resolve to a module under
  ``src/``, optionally followed by one attribute the module binds.  Stale
  references to deleted code therefore fail the check.
* **Roles** — every ``:class:``, ``:meth:``, ``:func:``, ``:attr:``,
  ``:mod:``, ``:exc:`` and ``:data:`` target in ``src/**/*.py`` must name
  code under ``src/``: a ``repro.…`` target resolves through its module, a
  name the module binds (package re-exports included) and a member of that
  class; a ``Class.member`` target must be a member of a class defined
  under ``src/``; a bare name must be a symbol defined under ``src/`` or a
  member of such a class.  A dotted target rooted elsewhere
  (``random.Random``) is external and not checked.

Exit status: 0 when clean, 1 with one ``file:line: message`` per problem on
stderr otherwise.
"""

from __future__ import annotations

import ast
import builtins
import re
import sys
from collections import defaultdict
from pathlib import Path

LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")
HEADING_RE = re.compile(r"^(#{1,6})\s+(.*?)\s*#*\s*$")
EXTERNAL_PREFIXES = ("http://", "https://", "mailto:")
INLINE_CODE_RE = re.compile(r"`([^`]+)`")
CAMEL_SPAN_RE = re.compile(r"([A-Z][a-z0-9]+[A-Z]\w*)(?:\.(\w+))?")
DOTTED_RE = re.compile(r"\brepro(?:\.\w+)+")
ROLE_RE = re.compile(r":(?:class|meth|func|attr|mod|exc|data):`([^`]+)`")


def default_targets(root: Path) -> list[Path]:
    """The pages the CI job checks: the README plus everything in docs/."""
    pages = [root / "README.md"]
    docs = root / "docs"
    if docs.is_dir():
        pages.extend(sorted(docs.glob("**/*.md")))
    return [page for page in pages if page.is_file()]


def strip_code(lines: list[str]) -> list[str]:
    """Blank out fenced blocks and inline code so their contents aren't
    linted or link-checked (line numbering is preserved)."""
    stripped = []
    in_fence = False
    for line in lines:
        if line.lstrip().startswith("```"):
            in_fence = not in_fence
            stripped.append("")
        elif in_fence:
            stripped.append("")
        else:
            stripped.append(re.sub(r"`[^`]*`", "", line))
    return stripped


def github_slug(heading: str) -> str:
    """The anchor GitHub derives from a heading line's text."""
    text = re.sub(r"`([^`]*)`", r"\1", heading)  # code spans keep their text
    text = re.sub(r"\[([^\]]*)\]\([^)]*\)", r"\1", text)  # links keep the label
    text = text.strip().lower()
    text = re.sub(r"[^\w\s-]", "", text, flags=re.UNICODE)
    return re.sub(r"[\s]+", "-", text)


def heading_anchors(path: Path) -> set[str]:
    anchors: set[str] = set()
    lines = path.read_text(encoding="utf-8").splitlines()
    in_fence = False
    for line in lines:
        if line.lstrip().startswith("```"):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        match = HEADING_RE.match(line)
        if match:
            slug = github_slug(match.group(2))
            # GitHub dedupes repeats as slug-1, slug-2, ...; pages here don't
            # repeat headings, so the base slug is enough.
            anchors.add(slug)
    return anchors


def lint_page(path: Path, lines: list[str]) -> list[str]:
    problems = []
    fence_opens = sum(1 for line in lines if line.lstrip().startswith("```"))
    if fence_opens % 2:
        problems.append(f"{path}: unbalanced code fences ({fence_opens} markers)")

    h1_count = 0
    previous_level = 0
    in_fence = False
    for number, line in enumerate(lines, start=1):
        if line.lstrip().startswith("```"):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        match = HEADING_RE.match(line)
        if not match:
            continue
        level = len(match.group(1))
        if level == 1:
            h1_count += 1
        elif previous_level and level > previous_level + 1:
            problems.append(
                f"{path}:{number}: heading skips from H{previous_level} "
                f"to H{level}"
            )
        previous_level = level
    if h1_count != 1:
        problems.append(f"{path}: expected exactly one H1, found {h1_count}")

    for number, line in enumerate(strip_code(lines), start=1):
        if "] (" in line:
            problems.append(
                f"{path}:{number}: space between link text and target (']( ')"
            )
    return problems


def check_links(path: Path, lines: list[str], root: Path) -> list[str]:
    problems = []
    for number, line in enumerate(strip_code(lines), start=1):
        for match in LINK_RE.finditer(line):
            target = match.group(1)
            if target.startswith(EXTERNAL_PREFIXES):
                continue
            file_part, _, fragment = target.partition("#")
            if file_part:
                resolved = (path.parent / file_part).resolve()
                try:
                    resolved.relative_to(root.resolve())
                except ValueError:
                    problems.append(
                        f"{path}:{number}: link escapes the repository: "
                        f"{target}"
                    )
                    continue
                if not resolved.exists():
                    problems.append(
                        f"{path}:{number}: broken link target: {target}"
                    )
                    continue
            else:
                resolved = path
            if fragment and resolved.is_file() and resolved.suffix == ".md":
                if fragment.lower() not in heading_anchors(resolved):
                    problems.append(
                        f"{path}:{number}: broken anchor #{fragment} "
                        f"in {target or path.name}"
                    )
    return problems


class SourceIndex:
    """What ``src/`` defines: symbol names, class members, module bindings."""

    def __init__(self, src: Path) -> None:
        #: class, function and module-level assignment names
        self.symbols: set[str] = set(dir(builtins))
        #: class name -> member names (methods, class attributes, self.x)
        self.members: dict[str, set[str]] = defaultdict(set)
        #: class name -> names of its bases
        self.bases: dict[str, set[str]] = defaultdict(set)
        #: dotted module name -> names bound at its top level
        self.modules: dict[str, set[str]] = {}
        for path in sorted(src.glob("**/*.py")):
            parts = path.relative_to(src).with_suffix("").parts
            if parts[-1] == "__init__":
                parts = parts[:-1]
            tree = ast.parse(path.read_text(encoding="utf-8"))
            self.modules[".".join(parts)] = self._bindings(tree.body)
            self.symbols.update(self._assigned(tree.body))
            for node in ast.walk(tree):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    self.symbols.add(node.name)
                elif isinstance(node, ast.ClassDef):
                    self.symbols.add(node.name)
                    self._index_class(node)

    @staticmethod
    def _assigned(body: list[ast.stmt]) -> set[str]:
        names = set()
        for node in body:
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
            else:
                continue
            names.update(t.id for t in targets if isinstance(t, ast.Name))
        return names

    def _bindings(self, body: list[ast.stmt]) -> set[str]:
        names = self._assigned(body)
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    names.add((alias.asname or alias.name).split(".")[0])
        return names

    def _index_class(self, node: ast.ClassDef) -> None:
        members = self.members[node.name]
        members.update(self._bindings(node.body))
        for child in ast.walk(node):
            if (
                isinstance(child, ast.Attribute)
                and isinstance(child.ctx, ast.Store)
                and isinstance(child.value, ast.Name)
                and child.value.id == "self"
            ):
                members.add(child.attr)
        self.bases[node.name].update(
            base.id if isinstance(base, ast.Name) else getattr(base, "attr", "")
            for base in node.bases
        )

    def has_member(self, cls: str, member: str) -> bool:
        """Whether ``cls`` (or a base) binds ``member``; a base defined
        outside ``src/`` may bind anything."""
        seen: set[str] = set()
        pending = [cls]
        while pending:
            name = pending.pop()
            if name in seen:
                continue
            seen.add(name)
            if name not in self.members:
                return True  # a builtin or third-party base: not checkable
            if member in self.members[name]:
                return True
            pending.extend(self.bases[name])
        return False

    def resolves(self, dotted: str) -> bool:
        """Whether ``dotted`` is a module, or a module plus one attribute it
        binds."""
        if dotted in self.modules:
            return True
        module, _, attribute = dotted.rpartition(".")
        return module in self.modules and attribute in self.modules[module]

    def resolves_role(self, target: str) -> bool:
        """Whether a Sphinx role target names code under ``src/``."""
        parts = target.split(".")
        if parts[0] == "repro":
            cut = len(parts)
            while cut and ".".join(parts[:cut]) not in self.modules:
                cut -= 1
            if not cut:
                return False
            rest = parts[cut:]
            if not rest:
                return True
            if rest[0] not in self.modules[".".join(parts[:cut])]:
                return False
            return len(rest) == 1 or self.has_member(rest[0], rest[1])
        if len(parts) == 1:
            return target in self.symbols or any(
                target in members for members in self.members.values()
            )
        return parts[0] not in self.members or self.has_member(*parts[:2])


def check_names(path: Path, lines: list[str], index: SourceIndex) -> list[str]:
    problems = []
    in_fence = False
    for number, line in enumerate(lines, start=1):
        if line.lstrip().startswith("```"):
            in_fence = not in_fence
        for dotted in DOTTED_RE.findall(line):
            if not index.resolves(dotted):
                problems.append(
                    f"{path}:{number}: {dotted} is no module under src/ "
                    "nor an attribute one binds"
                )
        if in_fence:
            continue
        for span in INLINE_CODE_RE.findall(line):
            match = CAMEL_SPAN_RE.match(span)
            if match is None:
                continue
            name, member = match.groups()
            if name not in index.symbols:
                problems.append(
                    f"{path}:{number}: `{span}` names nothing defined under src/"
                )
            elif member and not index.has_member(name, member):
                problems.append(
                    f"{path}:{number}: `{span}`: {name} has no member {member}"
                )
    return problems


def check_roles(path: Path, text: str, index: SourceIndex) -> list[str]:
    problems = []
    for match in ROLE_RE.finditer(text):
        # A target may wrap across a line break; ``~`` only shortens the
        # rendered title.
        target = re.sub(r"\s+", "", match.group(1)).lstrip("~")
        if not index.resolves_role(target):
            number = text.count("\n", 0, match.start()) + 1
            problems.append(
                f"{path}:{number}: {match.group(0)!r} names nothing defined "
                "under src/"
            )
    return problems


def check_pages(pages: list[Path], root: Path) -> list[str]:
    problems = []
    index = SourceIndex(root / "src")
    for page in pages:
        lines = page.read_text(encoding="utf-8").splitlines()
        problems.extend(lint_page(page, lines))
        problems.extend(check_links(page, lines, root))
        problems.extend(check_names(page, lines, index))
    for module in sorted((root / "src").glob("**/*.py")):
        text = module.read_text(encoding="utf-8")
        problems.extend(check_roles(module, text, index))
    return problems


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    root = Path(argv[0]) if argv else Path(__file__).resolve().parents[1]
    pages = default_targets(root)
    if not pages:
        print(f"error: no markdown pages found under {root}", file=sys.stderr)
        return 1
    problems = check_pages(pages, root)
    for problem in problems:
        print(problem, file=sys.stderr)
    if problems:
        print(f"FAIL: {len(problems)} documentation problem(s)", file=sys.stderr)
        return 1
    print(f"ok: {len(pages)} pages clean")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
