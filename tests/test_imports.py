"""Every name a ``privkg`` module imports is used in that module, and so is
every private name it defines at module level and every private attribute
it stores. Every public top-level function and class has a reader in the
program (``src/privkg``, ``perfbench/`` or ``scripts/``) unless it is on an
allowlist with a reason. Every closed set of choices is named once, in its
owning module, and every check and CLI choice reads that name. The arity rule of
an intersection or union is stated once, in ``queries.py``."""

import argparse
import ast
import pathlib
import typing

import pytest

from privkg.cli import build_parser
from privkg.encoders import ENCODERS
from privkg.queries import QUERY_TYPES, QueryNode
from privkg.symbolic import MODES
from privkg.training import PRIVACY_DIRECTIONS

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "privkg"

# public names the program itself does not read, each kept for a stated reason
UNREAD_PUBLIC_ALLOWED = {
    "calibrate_noise_sigma": "the noise calibration of acceptance criterion 6",
    "validation_subset": "the validation answers, for early stopping (ROADMAP item 8)",
}


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


def unread_private_attributes(source: str) -> list[str]:
    """Private (``_x``, not dunder) attributes that the module stores, as
    ``obj._x = ...``, and never reads as ``obj._x``; ``obj._x += 1`` stores
    and does not count as a read."""
    stored, read = {}, set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr.startswith("_") \
                and not node.attr.startswith("__"):
            if isinstance(node.ctx, ast.Store):
                stored.setdefault(node.attr, node.lineno)
            else:
                read.add(node.attr)
    return ["line %d: %s" % (line, name) for name, line in sorted(stored.items(), key=lambda x: x[1])
            if name not in read]


def _loads(node) -> set:
    """Names that ``node`` reads, as a bare name or as an attribute."""
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)}


def unread_public_names(modules: dict, readers=()) -> list[str]:
    """Public top-level functions and classes of ``modules`` (file name ->
    source) that no other top-level statement of ``modules``, and no source
    in ``readers``, reads; a function calling itself does not count."""
    defined, reads = [], []
    for name, source in modules.items():
        for stmt in ast.parse(source).body:
            if (isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and not stmt.name.startswith("_")):
                defined.append((name, stmt))
            reads.append((stmt, _loads(stmt)))
    reads += [(None, _loads(ast.parse(source))) for source in readers]
    return ["%s line %d: %s" % (name, stmt.lineno, stmt.name) for name, stmt in defined
            if not any(stmt.name in loads for other, loads in reads if other is not stmt)]


def restated_sets(source: str) -> list[str]:
    """``in``/``not in`` comparisons and ``choices=`` arguments against a tuple,
    list or set display of two or more names: each restates a set that its owning
    module names once. A display of literals, like ``("a", "p", "rp")``, is allowed."""
    def restated(node):
        return (isinstance(node, (ast.Tuple, ast.List, ast.Set))
                and sum(isinstance(e, (ast.Name, ast.Attribute)) for e in node.elts) >= 2)
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Compare):
            sets = [c for op, c in zip(node.ops, node.comparators)
                    if isinstance(op, (ast.In, ast.NotIn))]
        elif isinstance(node, ast.keyword) and node.arg == "choices":
            sets = [node.value]
        else:
            continue
        found += [(s.lineno, ast.unparse(s)) for s in sets if restated(s)]
    return ["line %d: %s" % item for item in sorted(found)]


def arity_checks(source: str) -> list[str]:
    """Comparisons that read ``len(<expr>.children)``: each restates the arity rule
    that the query node types (``queries.py``) state once."""
    def counts_children(node):
        return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "len" and len(node.args) == 1
                and isinstance(node.args[0], ast.Attribute) and node.args[0].attr == "children")
    found = [(node.lineno, ast.unparse(node)) for node in ast.walk(ast.parse(source))
             if isinstance(node, ast.Compare)
             and any(map(counts_children, [node.left, *node.comparators]))]
    return ["line %d: %s" % item for item in sorted(found)]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unread_private_names(path):
    assert unused_private_names(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unread_private_attributes(path):
    assert unread_private_attributes(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_closed_set_is_restated(path):
    assert restated_sets(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py") if p.name != "queries.py"),
                         ids=lambda p: p.name)
def test_the_arity_rule_has_one_home(path):
    assert arity_checks(path.read_text(encoding="utf-8")) == []


def test_every_cli_choice_is_the_library_set():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    choices = {(command, a.dest): a.choices for command, p in sub.choices.items()
               for a in p._actions if a.choices is not None}
    assert choices.pop(("sample-queries", "qtype")) == ("all",) + QUERY_TYPES
    library = {("sample-queries", "mode"): MODES, ("audit", "mode"): MODES,
               ("train", "model"): ENCODERS, ("train", "privacy_direction"): PRIVACY_DIRECTIONS}
    assert choices.keys() == library.keys()
    assert all(choices[key] is library[key] for key in library)


def test_every_public_name_has_a_reader():
    modules = {p.name: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    readers = [p.read_text(encoding="utf-8")
               for d in ("perfbench", "scripts") for p in sorted((ROOT / d).glob("*.py"))]
    unread = unread_public_names(modules, readers)
    assert [u for u in unread if u.rsplit(": ", 1)[1] not in UNREAD_PUBLIC_ALLOWED] == []
    # an allowlisted name that gains a reader leaves the list
    assert sorted(u.rsplit(": ", 1)[1] for u in unread) == sorted(UNREAD_PUBLIC_ALLOWED)


def test_oracle_is_independent_of_the_walk():
    # criterion 1 compares the walk with the oracle, so the oracle shares none
    # of the walk's code and reads the graph only as a triple set and a size
    tree = ast.parse((ROOT / "tests" / "_oracle.py").read_text(encoding="utf-8"))
    nodes = {cls.__name__ for cls in typing.get_args(QueryNode)} | {"QueryNode"}
    allowed = ({("privkg.graph", "FORWARD"), ("privkg.symbolic", "EvalError")}
               | {("privkg.queries", name) for name in nodes})
    assert not [n for n in ast.walk(tree) if isinstance(n, ast.Import)]
    imported = {("." * n.level + (n.module or ""), a.name)
                for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) for a in n.names}
    assert imported <= allowed
    graph_loads = [n for n in ast.walk(tree) if isinstance(n, ast.Name) and n.id == "g"
                   and isinstance(n.ctx, ast.Load)]
    graph_reads = [n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)
                   and isinstance(n.value, ast.Name) and n.value.id == "g"]
    assert graph_reads and set(graph_reads) == {"triples", "num_vertices"}
    assert len(graph_loads) == len(graph_reads)  # g is passed to nothing
    names = {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(tree)
             if isinstance(n, (ast.Name, ast.Attribute))}
    assert names.isdisjoint({"neighbors", "_index", "evaluate", "_walk", "_image"})


def test_the_program_imports_nothing_from_tests():
    importers = []
    for path in sorted(p for d in ("src/privkg", "perfbench", "scripts")
                       for p in (ROOT / d).rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        modules = [a.name for n in ast.walk(tree) if isinstance(n, ast.Import) for a in n.names]
        modules += [n.module or "" for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)]
        modules += [a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) for a in n.names]
        if "tests" in {m.split(".")[0] for m in modules}:
            importers.append(str(path.relative_to(ROOT)))
    assert importers == []


def test_guard_flags_an_unused_import():
    assert unused_imports("import os\nfrom a.b import c, d as e\nprint(c)\n") == \
        ["line 1: os", "line 2: e"]


def test_guard_flags_an_unread_private_name():
    source = ("_a = 1\n_b: int = 2\n__all__ = []\n"
              "def _f(n):\n    return _f(n - 1)\n"
              "class _C:\n    pass\n"
              "def g():\n    return _a\n")
    assert unused_private_names(source) == ["line 2: _b", "line 4: _f", "line 6: _C"]


def test_guard_flags_an_unread_private_attribute():
    source = ("class C:\n"
              "    def __init__(self):\n"
              "        self._a = {}\n        self._b = 1\n        self.c = 2\n"
              "        self.__d = 3\n        self._e: int = 4\n"
              "    def f(self, other):\n"
              "        other._b += 1\n        return self._a\n")
    assert unread_private_attributes(source) == ["line 4: _b", "line 7: _e"]


def test_guard_flags_a_restated_set():
    source = ("if mode not in (RELAXED, STRICT):\n    pass\n"
              "ok = x in MODES or y in ('a', 'p', 'rp') or z in (A,) or w in (')', None)\n"
              "p.add_argument('--m', choices=[m.A, m.B])\n"
              "p.add_argument('--n', choices=MODES)\n"
              "found = a == b in {C, D}\n"
              "for d in (FORWARD, BACKWARD):\n    pass\n")
    assert restated_sets(source) == ["line 1: (RELAXED, STRICT)", "line 4: [m.A, m.B]",
                                     "line 6: {C, D}"]


def test_guard_flags_an_arity_check():
    source = ("if len(first.children) < 2:\n    pass\n"
              "ok = 2 > len(q.children) or len(kids) < 2 or size(q.children) < 2\n"
              "n = len(q.children)\nfor k in range(len(q.children)):\n    pass\n"
              "same = len(a.children) == len(b.rest)\n")
    assert arity_checks(source) == ["line 1: len(first.children) < 2",
                                    "line 3: 2 > len(q.children)",
                                    "line 7: len(a.children) == len(b.rest)"]


def test_guard_flags_an_unread_public_name():
    modules = {"a.py": ("def f(n):\n    \"\"\"g, h and C are named here.\"\"\"\n"
                        "    return f(n - 1)\n"
                        "def g():\n    pass\n"
                        "class C:\n    pass\n"
                        "def _p():\n    return g\n"),
               "b.py": "def h():\n    pass\nh = None\n"}
    assert unread_public_names(modules) == ["a.py line 1: f", "a.py line 6: C", "b.py line 1: h"]
    assert unread_public_names(modules, ["import a\na.f(a.C)\nh()\n"]) == []
