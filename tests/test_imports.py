"""Dead-import, dead-private-definition and one-home checks, with the
standard library's ast only.

Every top-level import in a module of src/blindq (bar __init__.py, which
re-exports) and of tests/ must bind a name that the module reads as a
plain name (an ast.Name in load context; `pkg.attr` reads `pkg`).  An
import kept on purpose, for a name another module patches or traces, is
marked `# noqa: F401` on its line.

Every top-level private name (`_name`, not a dunder) that a module of
src/blindq defines by def, class or assignment must be read somewhere in
src/blindq: as a plain name, as an attribute `.name`, or by
`from ... import name`.

Every top-level name (bar dunders) that a module of src/blindq defines by
def, class or assignment is defined in that module only, so one name
never carries two meanings in the package.  Likewise every top-level
function or class of tests/ other than test_* and Test* is defined in one
module only; module constants may differ from test module to test module.

No module of src/blindq holds a `global` statement: module-level names
are bound once, at import."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for p in (ROOT / "src" / "blindq").glob("*.py") if p.name != "__init__.py")
MODULES += sorted((ROOT / "tests").glob("*.py"))
PACKAGE = sorted((ROOT / "src" / "blindq").glob("*.py"))


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


def names_read(source: str) -> set[str]:
    """Names a module reads: plain names, attributes and from-imports."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def defined_names(source: str) -> list[str]:
    """Top-level names the module defines by def, class or assignment, in
    source order."""
    defined = []
    for stmt in ast.parse(source).body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.append(stmt.name)
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            defined += [node.id for t in targets for node in ast.walk(t)
                        if isinstance(node, ast.Name)]
    return defined


def unread_private_definitions(source: str, read: set[str]) -> list[str]:
    """Top-level private names the module defines that are not in read."""
    return [name for name in defined_names(source) if name.startswith("_")
            and not is_dunder(name) and name not in read]


PACKAGE_READS = set().union(*(names_read(p.read_text()) for p in PACKAGE))


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_private_definition_is_read(path):
    assert unread_private_definitions(path.read_text(), PACKAGE_READS) == []


def test_check_flags_an_unread_private_definition():
    source = ("def _used():\n    pass\ndef _dead():\n    pass\nclass _Gone:\n    pass\n"
              "_A = 1\n_B: int = 2\n_c, _d = 3, 4\n__all__ = []\ndef public():\n    _used()\n")
    other = "from mod import _A\nimport mod\nmod._c = mod._B\n"
    read = names_read(source) | names_read(other)
    assert unread_private_definitions(source, read) == ["_dead", "_Gone", "_d"]


def helper_names(source: str) -> list[str]:
    """Top-level functions and classes of a test module, bar test_* and Test*."""
    return [stmt.name for stmt in ast.parse(source).body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not stmt.name.startswith(("test_", "Test"))]


def shared_definitions(sources: dict[str, str], names=defined_names) -> dict[str, list[str]]:
    """Each non-dunder top-level name that names finds in more than one of
    sources (module name -> source), with the modules that define it."""
    owners: dict[str, list[str]] = {}
    for module, source in sources.items():
        for name in dict.fromkeys(names(source)):
            if not is_dunder(name):
                owners.setdefault(name, []).append(module)
    return {name: mods for name, mods in owners.items() if len(mods) > 1}


def test_every_package_name_has_one_home():
    assert shared_definitions({p.name: p.read_text() for p in PACKAGE}) == {}


def test_check_flags_a_name_defined_twice():
    a = "BLOCK = 1\ndef f():\n    pass\n__all__ = []\n_x = 1\n_x += 1\n"
    b = "BLOCK: int = 2\nclass f:\n    pass\n__all__ = []\ng = 3\n"
    assert shared_definitions({"a": a, "b": b, "c": "_x = 0\n"}) == \
        {"BLOCK": ["a", "b"], "f": ["a", "b"], "_x": ["a", "c"]}


def test_every_test_helper_has_one_home():
    tests = sorted((ROOT / "tests").glob("*.py"))
    assert shared_definitions({p.name: p.read_text() for p in tests}, helper_names) == {}


def test_check_flags_a_helper_defined_twice():
    a = ("def helper():\n    pass\nclass Fake:\n    pass\ndef test_x():\n    pass\n"
         "class TestY:\n    pass\nCONFIG = 1\n")
    b = a.replace("CONFIG = 1", "CONFIG = 2") + "def other():\n    pass\n"
    assert shared_definitions({"a": a, "b": b, "c": "def other():\n    pass\n"},
                              helper_names) == \
        {"helper": ["a", "b"], "Fake": ["a", "b"], "other": ["b", "c"]}


def global_statements(source: str) -> list[str]:
    """'line: names' for each global statement in source."""
    return [f"{node.lineno}: {', '.join(node.names)}" for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Global)]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_global_statement(path):
    assert global_statements(path.read_text()) == []


def test_check_flags_a_global_statement():
    source = ("TABLE = []\ndef grow():\n    global TABLE\n    TABLE = TABLE + [1]\n"
              "class C:\n    def m(self):\n        global A, B\n"
              "def f():\n    total = 0\n    def g():\n        nonlocal total\n")
    assert global_statements(source) == ["3: TABLE", "7: A, B"]
