"""The docs checker (``tools/check_docs.py``): clean tree passes, broken
links and lint violations fail with pointed messages."""

import importlib.util
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def check_docs():
    spec = importlib.util.spec_from_file_location(
        "check_docs", REPO_ROOT / "tools" / "check_docs.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault("check_docs", module)
    spec.loader.exec_module(module)
    return module


def test_repository_docs_are_clean(check_docs, capsys):
    assert check_docs.main([str(REPO_ROOT)]) == 0
    assert "pages clean" in capsys.readouterr().out


def test_handbook_pages_exist():
    for page in ("architecture.md", "events.md", "observability.md"):
        assert (REPO_ROOT / "docs" / page).is_file()


def _page(tmp_path, name, text):
    path = tmp_path / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")
    return path


def test_broken_relative_link_fails(check_docs, tmp_path):
    _page(tmp_path, "README.md", "# Title\n\nSee [gone](docs/missing.md).\n")
    problems = check_docs.check_pages(check_docs.default_targets(tmp_path), tmp_path)
    assert any("broken link target: docs/missing.md" in p for p in problems)


def test_broken_anchor_fails(check_docs, tmp_path):
    _page(tmp_path, "docs/a.md", "# A\n\n## Real section\n")
    _page(
        tmp_path,
        "README.md",
        "# Title\n\n[ok](docs/a.md#real-section) [bad](docs/a.md#nope)\n",
    )
    problems = check_docs.check_pages(check_docs.default_targets(tmp_path), tmp_path)
    assert any("broken anchor #nope" in p for p in problems)
    assert not any("real-section" in p for p in problems)


def test_link_escaping_repository_fails(check_docs, tmp_path):
    _page(tmp_path, "README.md", "# Title\n\n[out](../secrets.md)\n")
    problems = check_docs.check_pages(check_docs.default_targets(tmp_path), tmp_path)
    assert any("escapes the repository" in p for p in problems)


def test_external_links_are_skipped(check_docs, tmp_path):
    _page(
        tmp_path,
        "README.md",
        "# Title\n\n[p](https://ui.perfetto.dev) [m](mailto:x@example.com)\n",
    )
    assert check_docs.check_pages(
        check_docs.default_targets(tmp_path), tmp_path
    ) == []


def test_lint_catches_fences_heading_skips_and_multiple_h1(
    check_docs, tmp_path
):
    _page(
        tmp_path,
        "README.md",
        "# One\n\n#### Way too deep\n\n# Two\n\n```python\nunterminated\n",
    )
    problems = check_docs.check_pages(check_docs.default_targets(tmp_path), tmp_path)
    assert any("unbalanced code fences" in p for p in problems)
    assert any("skips from H1 to H4" in p for p in problems)
    assert any("expected exactly one H1, found 2" in p for p in problems)


def test_links_inside_code_are_ignored(check_docs, tmp_path):
    _page(
        tmp_path,
        "README.md",
        "# Title\n\n```\n[fake](not/a/file.md)\n```\n\n`[also](gone.md)`\n",
    )
    assert check_docs.check_pages(
        check_docs.default_targets(tmp_path), tmp_path
    ) == []


def test_github_slugs(check_docs):
    assert check_docs.github_slug("Performance engineering") == (
        "performance-engineering"
    )
    assert check_docs.github_slug("Observability (`repro.obs`)") == (
        "observability-reproobs"
    )
    assert check_docs.github_slug("The benchmark registry (`repro bench`)") == (
        "the-benchmark-registry-repro-bench"
    )


def _source_tree(tmp_path):
    """A minimal ``src/repro`` package for the name checks."""
    _page(tmp_path, "src/repro/__init__.py", "")
    _page(
        tmp_path,
        "src/repro/service.py",
        "from json import dumps\n\n"
        "CacheKey = str\n\n\n"
        "class PlanCache:\n"
        "    capacity: int = 8\n\n"
        "    def __init__(self):\n"
        "        self.stats = {}\n\n"
        "    def get(self, key):\n"
        "        return None\n\n\n"
        "class PlanStore(PlanCache):\n"
        "    pass\n",
    )


def test_defined_names_and_members_pass(check_docs, tmp_path):
    _source_tree(tmp_path)
    _page(
        tmp_path,
        "README.md",
        "# Title\n\n`PlanCache`, `PlanCache(capacity=4)`, `PlanCache.get`, "
        "`PlanCache.stats`, `PlanStore.capacity`, `CacheKey`, `ValueError`,\n"
        "`repro.service`, `repro.service.PlanCache` and `repro.service.dumps`.\n",
    )
    assert check_docs.check_pages(
        check_docs.default_targets(tmp_path), tmp_path
    ) == []


def test_unknown_class_name_fails(check_docs, tmp_path):
    _source_tree(tmp_path)
    _page(tmp_path, "README.md", "# Title\n\nUse `NoSuchClass(cache=...)`.\n")
    problems = check_docs.check_pages(check_docs.default_targets(tmp_path), tmp_path)
    assert len(problems) == 1
    assert "`NoSuchClass(cache=...)` names nothing defined under src/" in problems[0]


def test_unknown_member_fails(check_docs, tmp_path):
    _source_tree(tmp_path)
    _page(tmp_path, "README.md", "# Title\n\nCall `PlanStore.save`.\n")
    problems = check_docs.check_pages(check_docs.default_targets(tmp_path), tmp_path)
    assert len(problems) == 1
    assert "PlanStore has no member save" in problems[0]


def test_fenced_code_spans_are_not_name_checked(check_docs, tmp_path):
    """Names a code example defines for itself are not src/ names; only
    its ``repro`` paths are checked."""
    _source_tree(tmp_path)
    _page(
        tmp_path,
        "README.md",
        "# Title\n\n```python\nfrom repro.service import PlanCache\n\n\n"
        "class MyPlanner:\n    \"\"\"A `MyPlanner` caches in `PlanCache`.\"\"\"\n"
        "```\n\nThen `MyPlanner`.\n",
    )
    problems = check_docs.check_pages(check_docs.default_targets(tmp_path), tmp_path)
    assert len(problems) == 1
    assert ":11: `MyPlanner` names nothing defined under src/" in problems[0]


def test_docstring_role_naming_a_missing_member_fails(check_docs, tmp_path):
    _source_tree(tmp_path)
    _page(tmp_path, "README.md", "# Title\n")
    _page(
        tmp_path,
        "src/repro/notes.py",
        '"""Use :meth:`PlanCache.get` via :class:`~repro.service.\n'
        '    PlanStore`, not :meth:`PlanStore.compact`; see\n'
        ':func:`random.shuffle` and :data:`CacheKey`."""\n',
    )
    problems = check_docs.check_pages(check_docs.default_targets(tmp_path), tmp_path)
    assert len(problems) == 1
    assert "notes.py:2: ':meth:`PlanStore.compact`' names nothing" in problems[0]


def test_docstring_role_naming_an_unknown_repro_path_fails(check_docs, tmp_path):
    _source_tree(tmp_path)
    _page(tmp_path, "README.md", "# Title\n")
    _page(
        tmp_path,
        "src/repro/notes.py",
        '"""See :mod:`repro.service` and :class:`repro.service.PlanCache`;\n'
        ':mod:`repro.gone`, :class:`repro.service.Gone` and\n'
        ':meth:`repro.service.PlanCache.put` are stale."""\n',
    )
    problems = check_docs.check_pages(check_docs.default_targets(tmp_path), tmp_path)
    assert [p.split(": ", 1)[1].split(" names ")[0] for p in problems] == [
        "':mod:`repro.gone`'",
        "':class:`repro.service.Gone`'",
        "':meth:`repro.service.PlanCache.put`'",
    ]
    assert [p.split(": ", 1)[0].rsplit(":", 1)[1] for p in problems] == [
        "2",
        "2",
        "3",
    ]


def test_docstring_role_naming_an_unknown_bare_name_fails(check_docs, tmp_path):
    _source_tree(tmp_path)
    _page(tmp_path, "README.md", "# Title\n")
    _page(
        tmp_path,
        "src/repro/notes.py",
        '"""Reads :attr:`capacity` through :func:`plan_everything`."""\n',
    )
    problems = check_docs.check_pages(check_docs.default_targets(tmp_path), tmp_path)
    assert len(problems) == 1
    assert "notes.py:1: ':func:`plan_everything`' names nothing" in problems[0]


def test_unknown_module_path_fails(check_docs, tmp_path):
    _source_tree(tmp_path)
    _page(
        tmp_path,
        "README.md",
        "# Title\n\nSee repro.no_such_module and `repro.service.Gone`.\n\n"
        "```python\nfrom repro.no_such_module import x\n```\n",
    )
    problems = check_docs.check_pages(check_docs.default_targets(tmp_path), tmp_path)
    assert [p.split(": ", 1)[1].split(" is ")[0] for p in problems] == [
        "repro.no_such_module",
        "repro.service.Gone",
        "repro.no_such_module",
    ]
    assert all("is no module under src/" in p for p in problems)
