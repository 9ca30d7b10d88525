"""No module but norm_lab imports a private name of norm_lab.

Every float norm is a call of ``norm_lab.graded_norm`` or of a public
function built on it, so the per-degree helpers behind it (``_sigma``,
``_in_window``, ...) stay private to the module.  An import is a
``from .norm_lab import _x`` or ``from voacert.norm_lab import _x``.
"""

import ast
from pathlib import Path

import pytest

import voacert

MODULES = sorted(p for p in Path(voacert.__file__).parent.glob("*.py")
                 if p.name != "norm_lab.py")


def private_norm_lab_imports(source: str) -> list:
    """Line numbers of each `_`-prefixed name imported from norm_lab."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module and \
                node.module.split(".")[-1] == "norm_lab":
            lines += [node.lineno for alias in node.names
                      if alias.name.startswith("_")]
    return lines


def test_the_guard_flags_a_planted_import():
    source = ("from .norm_lab import NormTable, _graded_max\n"
              "from voacert.norm_lab import graded_norm\n"
              "from voacert.norm_lab import _sigma as s\n"
              "from .mode_engine import _vec_block\n")
    assert private_norm_lab_imports(source) == [1, 3]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_other_module_imports_a_private_norm_lab_name(path):
    assert private_norm_lab_imports(path.read_text()) == []
