"""Every function and method defined in voacert is referenced elsewhere in
voacert, or is exported by the package, or is named below with a reason."""

import ast
from pathlib import Path

import pytest

import voacert

PACKAGE = Path(voacert.__file__).parent
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)

# qualified name -> why it stays without a caller in src/voacert
ALLOWED = {
    "GramFamily.pair_states": "perfbench/spans.py wraps it by name",
    "GramFamily.radical": "perfbench/spans.py wraps it by name",
    "GramFamily.exact_cholesky": "perfbench/spans.py wraps it by name",
}


def exported(init_source: str) -> set:
    """The names the package's __init__ imports from its modules."""
    return {a.asname or a.name for node in ast.parse(init_source).body
            if isinstance(node, ast.ImportFrom) for a in node.names}


def dead_members(sources: dict, keep=frozenset(), allowed=()) -> list:
    """Qualified names of the functions and methods in sources (module
    name -> source) whose name is read, as a name or an attribute, only
    inside their own body, or nowhere; dunders, names in keep and
    qualified names in allowed excepted."""
    defs, reads = [], []  # (qualified name, name, module, line span)
    for module, source in sources.items():
        stack = [(node, "") for node in ast.parse(source).body]
        while stack:
            node, prefix = stack.pop()
            if isinstance(node, _DEFS):
                defs.append((prefix + node.name, node.name, module,
                             (node.lineno, node.end_lineno)))
            if isinstance(node, (ast.ClassDef, *_DEFS)):
                prefix += node.name + "."
            elif isinstance(node, ast.Name) and \
                    isinstance(node.ctx, ast.Load):
                reads.append((node.id, module, node.lineno))
            elif isinstance(node, ast.Attribute) and \
                    isinstance(node.ctx, ast.Load):
                reads.append((node.attr, module, node.lineno))
            stack.extend((child, prefix)
                         for child in ast.iter_child_nodes(node))
    return sorted(
        qual for qual, name, module, (lo, hi) in defs
        if not (name.startswith("__") and name.endswith("__"))
        and name not in keep and qual not in allowed
        and not any(n == name and not (m == module and lo <= line <= hi)
                    for n, m, line in reads))


def test_the_guard_flags_a_member_without_a_caller():
    sources = {"a": "def used():\n    return 1\n\n"
                    "def rec(n):\n    return rec(n - 1)\n\n"
                    "class K:\n    def __len__(self):\n        return 0\n\n"
                    "    def dead(self):\n        return used()\n\n"
                    "    def kept(self):\n        return 2\n",
               "b": "import a\nx = a.used\n"}
    assert dead_members(sources) == ["K.dead", "K.kept", "rec"]
    assert dead_members(sources, keep={"rec"}, allowed={"K.kept"}) == \
        ["K.dead"]


def test_every_function_and_method_has_a_caller():
    sources = {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    keep = exported(sources["__init__"])
    assert dead_members(sources, keep, ALLOWED) == []


@pytest.mark.parametrize("qual", sorted(ALLOWED))
def test_each_allowed_member_is_still_defined(qual):
    cls, name = qual.split(".")
    assert callable(getattr(getattr(voacert, cls), name))


SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


@pytest.mark.parametrize("qual", sorted(
    qual for qual, why in ALLOWED.items() if "perfbench/spans.py" in why))
def test_each_member_kept_for_the_tracer_is_named_there(qual):
    """An entry kept because perfbench/spans.py wraps it goes when the
    tracer stops naming it: then nothing reads the member."""
    names = {node.value for node in ast.walk(ast.parse(SPANS.read_text()))
             if isinstance(node, ast.Constant) and isinstance(node.value, str)}
    assert qual.split(".")[1] in names
