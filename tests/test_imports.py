"""Dead-import check, with the standard library's ast only.

Every top-level import in a module of src/blindq (bar __init__.py, which
re-exports) and of tests/ must bind a name that the module reads as a
plain name (an ast.Name in load context; `pkg.attr` reads `pkg`).  An
import kept on purpose, for a name another module patches or traces, is
marked `# noqa: F401` on its line."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for p in (ROOT / "src" / "blindq").glob("*.py") if p.name != "__init__.py")
MODULES += sorted((ROOT / "tests").glob("*.py"))


def unread_imports(source: str) -> list[str]:
    """'line: name' for each top-level import binding a name never read."""
    tree = ast.parse(source)
    lines = source.splitlines()
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    unread = []
    for stmt in tree.body:
        if isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
            continue
        if not isinstance(stmt, (ast.Import, ast.ImportFrom)):
            continue
        for alias in stmt.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in read and "# noqa: F401" not in lines[alias.lineno - 1]:
                unread.append(f"{alias.lineno}: {name}")
    return unread


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_import_is_read(path):
    assert unread_imports(path.read_text()) == []


def test_check_flags_an_unread_import():
    source = ("import os\nimport os.path as osp\nfrom math import pi, tau  # noqa: F401\n"
              "from math import (\n    e,\n    inf,  # noqa: F401\n    nan,\n)\n"
              "print(osp.sep, e)\n")
    assert unread_imports(source) == ["1: os", "7: nan"]
