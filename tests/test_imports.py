"""Every name a ``privkg`` module imports is used in that module, and so is
every private name it defines at module level."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "privkg"


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's imports that no expression in it reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return ["line %d: %s" % (line, name) for name, line in sorted(imported.items(), key=lambda x: x[1])
            if name not in used]


def unused_private_names(source: str) -> list[str]:
    """Private (``_x``, not dunder) module-level names that no other top-level
    statement of the module reads; a function calling itself does not count."""
    tree = ast.parse(source)
    defined, reads = {}, []
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [stmt.name]
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            names = []
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                defined[name] = stmt
        reads.append((stmt, {n.id for n in ast.walk(stmt)
                             if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}))
    return ["line %d: %s" % (stmt.lineno, name) for name, stmt in defined.items()
            if not any(name in loads for other, loads in reads if other is not stmt)]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unread_private_names(path):
    assert unused_private_names(path.read_text(encoding="utf-8")) == []


def test_guard_flags_an_unused_import():
    assert unused_imports("import os\nfrom a.b import c, d as e\nprint(c)\n") == \
        ["line 1: os", "line 2: e"]


def test_guard_flags_an_unread_private_name():
    source = ("_a = 1\n_b: int = 2\n__all__ = []\n"
              "def _f(n):\n    return _f(n - 1)\n"
              "class _C:\n    pass\n"
              "def g():\n    return _a\n")
    assert unused_private_names(source) == ["line 2: _b", "line 4: _f", "line 6: _C"]
