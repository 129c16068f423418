"""Rules checked over the source of every ``src/arraycode`` module: no
import goes unread, every name in ``__all__`` exists, no module-level name
goes unexported and unread, a function imports a package module only to
break an import cycle, and no line outside the ``codes.FAMILIES`` table
branches on a family name."""

import ast
import importlib
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "arraycode"


def _string_exprs(tree: ast.Module):
    """The strings of a module that parse as an expression (a string
    annotation, an ``__all__`` entry), parsed."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                yield ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue


def _unused_imports(tree: ast.Module) -> list[str]:
    """Names a module imports and never reads, as a name or inside a string
    that parses as an expression (a string annotation, an ``__all__``
    entry re-exporting it)."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {n.id for expr in [tree, *_string_exprs(tree)] for n in ast.walk(expr)
            if isinstance(n, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(ast.parse(path.read_text())) == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_export_exists(path):
    """Each name a module's ``__all__`` lists is defined, so a deletion
    cannot leave a stale export."""
    name = "arraycode" if path.stem == "__init__" else f"arraycode.{path.stem}"
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


def test_unused_import_check_sees_a_leftover():
    tree = ast.parse("from itertools import chain, repeat\n"
                     "from .core import Coord\n"
                     "def f(n) -> 'Coord':\n    return list(repeat(n, 2))\n")
    assert _unused_imports(tree) == ["chain (line 1)"]


def _dead_names(sources: dict[str, str]) -> list[str]:
    """Module-level functions, classes and assigned names that no module's
    ``__all__`` exports and no module reads: as a name, an attribute, an
    imported name or inside a string that parses as an expression, as
    :func:`_unused_imports` looks. Dunder names are left to Python."""
    defined, read = [], set()
    for module, text in sources.items():
        tree = ast.parse(text)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append((module, node.name, node.lineno))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined += [(module, n.id, node.lineno) for target in targets
                            for n in ast.walk(target) if isinstance(n, ast.Name)]
        for expr in [tree, *_string_exprs(tree)]:
            for node in ast.walk(expr):
                if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                    read.add(node.id)
                elif isinstance(node, ast.Attribute):
                    read.add(node.attr)
                elif isinstance(node, ast.alias):
                    read.add(node.name.split(".")[-1])
    return [f"{module}.{name} (line {line})" for module, name, line in defined
            if name not in read and not (name.startswith("__") and name.endswith("__"))]


def test_no_dead_names():
    assert _dead_names({path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}) == []


def test_dead_name_check_sees_each_form():
    sources = {"a": "__all__ = ['f']\n"
                    "def f():\n    return g()\n"
                    "def g():\n    pass\n"
                    "def dead():\n    pass\n"
                    "X = Y = 1\n"
                    "Z: int = 2\n"
                    "class C:\n    pass\n"
                    "class Gone:\n    pass\n",
               "b": "from .a import X as ex\n"
                    "from . import a\n"
                    "W = a.Z, ex\n"
                    "T = 'C'\n"}
    assert _dead_names(sources) == ["a.dead (line 6)", "a.Y (line 8)", "a.Gone (line 12)",
                                    "b.W (line 3)", "b.T (line 4)"]


def _package_imports(node: ast.AST, modules) -> list[str]:
    """The package modules a relative import statement names."""
    if not isinstance(node, ast.ImportFrom) or node.level != 1:
        return []
    if node.module:
        return [node.module.split(".")[0]]
    return [alias.name for alias in node.names if alias.name in modules]


def _acyclic_local_imports(sources: dict[str, str]) -> list[str]:
    """Imports of a package module inside a function that break no import
    cycle: the imported module does not reach the importing one through
    the modules' top-level imports."""
    top, local = {}, {}
    for name, text in sources.items():
        tree = ast.parse(text)
        inner = {id(node) for fn in ast.walk(tree)
                 if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                 for node in ast.walk(fn)}
        top[name] = {m for node in ast.walk(tree) if id(node) not in inner
                     for m in _package_imports(node, sources)}
        local[name] = [(m, node.lineno) for node in ast.walk(tree) if id(node) in inner
                       for m in _package_imports(node, sources)]

    def reaches(start: str, goal: str) -> bool:
        seen, stack = set(), [start]
        while stack:
            if (module := stack.pop()) == goal:
                return True
            if module not in seen:
                seen.add(module)
                stack.extend(top.get(module, ()))
        return False

    return [f"{name} line {line}: {m}" for name, imports in sorted(local.items())
            for m, line in imports if not reaches(m, name)]


def test_local_imports_break_cycles():
    assert _acyclic_local_imports({path.stem: path.read_text()
                                   for path in SRC.glob("*.py")}) == []


def test_local_import_check_sees_an_acyclic_import():
    sources = {"a": "from .b import f\ndef g():\n    from .c import h\n",
               "b": "from . import c\ndef f():\n    from .a import g\n",
               "c": "class C:\n    def m(self):\n        from . import b\n"}
    assert _acyclic_local_imports(sources) == ["a line 3: c"]


def _family_table(tree: ast.Module) -> ast.AST | None:
    """The ``FAMILIES = ...`` statement of a module, if it has one."""
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
        if any(getattr(t, "id", None) == "FAMILIES" for t in targets):
            return node
    return None


def _family_names() -> set[str]:
    """The name each ``FamilySpec`` of the table is built with."""
    table = _family_table(ast.parse((SRC / "codes.py").read_text()))
    return {node.args[0].value for node in ast.walk(table)
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "FamilySpec"}


def _family_branches(tree: ast.Module, names: set[str]) -> list[int]:
    """Lines outside the family table that compare a value with a family
    name, or a collection of them, or match a case on one."""
    table = _family_table(tree)
    inside = {id(node) for node in ast.walk(table)} if table else set()
    lines = []
    for node in ast.walk(tree):
        if id(node) in inside:
            continue
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
        elif isinstance(node, ast.MatchValue):
            operands = [node.value]
        else:
            continue
        for operand in operands:
            values = operand.elts if isinstance(operand, (ast.Tuple, ast.List, ast.Set)) \
                else [operand]
            if any(isinstance(v, ast.Constant) and v.value in names for v in values):
                lines.append(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_branch_on_a_family_name(path):
    assert _family_branches(ast.parse(path.read_text()), _family_names()) == []


def test_family_branch_check_sees_each_form():
    names = _family_names()
    assert names == {"evenodd", "evenodd-ext", "rdp", "xcode", "star"}
    tree = ast.parse("FAMILIES = {'star': 1}\n"
                     "if code.family == 'star':\n    pass\n"
                     "ok = family in ('rdp', 'xcode')\n"
                     "match family:\n    case 'evenodd':\n        pass\n"
                     "code = Code.make('evenodd', 5)\n"
                     "same = code.family != other.family\n")
    assert _family_branches(tree, names) == [2, 4, 6]
