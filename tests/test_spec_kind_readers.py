"""Only graded_fock, config and serialize read the kind of a model spec.

graded_fock decides from the kind which models have charge sectors,
generators and automorphisms; every other module asks the built Model.
A read is an attribute `.kind` on a name ending in `spec` or on an
attribute `.spec`, such as `spec.kind` or `model.spec.kind`.
"""

import ast
from pathlib import Path

import pytest

import voacert

READERS = {"graded_fock.py", "config.py", "serialize.py"}
MODULES = sorted(p for p in Path(voacert.__file__).parent.glob("*.py")
                 if p.name not in READERS)


def spec_kind_reads(source: str) -> list:
    """Line numbers of each `.kind` read of a spec."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Attribute) and node.attr == "kind"):
            continue
        owner = node.value
        if (isinstance(owner, ast.Name) and owner.id.endswith("spec")) or (
                isinstance(owner, ast.Attribute) and owner.attr == "spec"):
            lines.append(node.lineno)
    return lines


def test_the_guard_flags_a_planted_read():
    source = ("def f(model, spec, verdict):\n"
              "    if model.spec.kind == 'lattice':\n"
              "        return spec.kind\n"
              "    return verdict.kind\n")
    assert spec_kind_reads(source) == [2, 3]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_other_module_reads_a_spec_kind(path):
    assert spec_kind_reads(path.read_text()) == []
