"""Every module-level import of a voacert module is used in it."""

import ast
from pathlib import Path

import pytest

import voacert

MODULES = sorted(p for p in Path(voacert.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")
_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def unused_imports(source: str) -> list:
    """Names bound by imports outside any def or class, never read."""
    tree = ast.parse(source)
    bound, stack = set(), list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Import):
            bound |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom):
            if node.module != "__future__":
                bound |= {a.asname or a.name for a in node.names}
        elif not isinstance(node, _SCOPES):
            stack.extend(ast.iter_child_nodes(node))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(bound - used)


def test_the_guard_flags_an_unused_import():
    assert unused_imports("import math\nfrom .x import A, B as C\nC\n") == \
        ["A", "math"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_module_level_import_is_used(path):
    assert unused_imports(path.read_text()) == []
