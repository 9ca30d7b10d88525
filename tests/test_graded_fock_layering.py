"""graded_fock sits below every other voacert module but three.

Models, bases and their builders read only the exact kernel
(``exactlinalg``), the error types and the scalars; the Gram family, the
mode engine and the certifiers are built on top of a model, so an import
of one of them from ``graded_fock`` (even inside a function) would make
the layers circular.
"""

import ast
from pathlib import Path

import voacert

ALLOWED = {"exactlinalg", "errors", "scalars"}


def voacert_imports(source: str) -> list:
    """(line, module) of each voacert module an import names, at any depth;
    ``import voacert`` itself names the package, "voacert"."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                path = alias.name.split(".")
                if path[0] == "voacert":
                    found.append((node.lineno, (path[1:] or path)[0]))
        elif isinstance(node, ast.ImportFrom):
            path = (node.module or "").split(".")
            if node.level == 0:
                if path[0] != "voacert":
                    continue
                path = path[1:]
            if path and path[0]:
                found.append((node.lineno, path[0]))
            else:  # from . import x, from voacert import x
                found += [(node.lineno, a.name) for a in node.names]
    return found


def forbidden(source: str) -> list:
    return sorted((line, mod) for line, mod in voacert_imports(source)
                  if mod not in ALLOWED)


def test_the_guard_flags_planted_imports():
    source = ("from . import exactlinalg as xl\n"
              "from .errors import SpecError\n"
              "from voacert.scalars import Q\n"
              "import numpy\n"
              "def build():\n"
              "    from .unitary_structure import GramFamily\n"
              "    import voacert.mode_engine\n"
              "from . import norm_lab, scalars\n"
              "import voacert\n"
              "from voacert import cli\n")
    assert forbidden(source) == [(6, "unitary_structure"),
                                 (7, "mode_engine"), (8, "norm_lab"),
                                 (9, "voacert"), (10, "cli")]


def test_graded_fock_imports_only_the_kernel_errors_and_scalars():
    path = Path(voacert.__file__).parent / "graded_fock.py"
    assert forbidden(path.read_text()) == []
