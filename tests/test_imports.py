import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "arraycode"


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
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                expr = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used |= {n.id for n in ast.walk(expr) if isinstance(n, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(ast.parse(path.read_text())) == []


def test_unused_import_check_sees_a_leftover():
    tree = ast.parse("from itertools import chain, repeat\n"
                     "from .core import Coord\n"
                     "def f(n) -> 'Coord':\n    return list(repeat(n, 2))\n")
    assert _unused_imports(tree) == ["chain (line 1)"]
