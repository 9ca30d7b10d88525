"""``Block.reduced`` works in place, so it is called only on a block its
caller just built: the receiver of every ``.reduced()`` call in voacert is
a call result, or a local name that every assignment in its function binds
to a call result.  A parameter, an attribute, a loop variable or a name
bound once to anything else could be a block that someone else holds."""

import ast
from pathlib import Path

import voacert

PACKAGE = Path(voacert.__file__).parent
_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _own_nodes(scope):
    """The nodes of a module or function outside its nested functions."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, _SCOPES):
            stack.extend(ast.iter_child_nodes(node))


def _bindings(scope) -> dict:
    """name -> the values bound to it in the scope; None stands for a
    binding that is not a plain assignment of one value to the name."""
    out, plain = {}, {}  # plain: id of a Name target -> its value
    if isinstance(scope, _SCOPES):
        a = scope.args
        for arg in a.posonlyargs + a.args + a.kwonlyargs + [a.vararg,
                                                             a.kwarg]:
            if arg is not None:
                out.setdefault(arg.arg, []).append(None)
    nodes = list(_own_nodes(scope))
    for node in nodes:
        if isinstance(node, ast.Assign):
            plain.update((id(t), node.value) for t in node.targets)
        elif isinstance(node, (ast.AnnAssign, ast.NamedExpr)):
            plain[id(node.target)] = node.value
    for node in nodes:
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            out.setdefault(node.id, []).append(plain.get(id(node)))
        elif isinstance(node, (ast.Global, ast.Nonlocal)):
            for name in node.names:
                out.setdefault(name, []).append(None)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                out.setdefault(name, []).append(None)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            out.setdefault(node.name, []).append(None)
    return out


def reduced_receivers(source: str):
    """(line, fresh) of every ``.reduced()`` call in a module's source;
    fresh says whether its receiver is a block the scope just built."""
    tree = ast.parse(source)
    out = []
    for scope in [tree] + [n for n in ast.walk(tree)
                           if isinstance(n, _SCOPES)]:
        binds = None
        for node in _own_nodes(scope):
            if not (isinstance(node, ast.Call) and not node.args
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "reduced"):
                continue
            recv = node.func.value
            if isinstance(recv, ast.Name):
                if binds is None:
                    binds = _bindings(scope)
                values = binds.get(recv.id, [None])
                fresh = all(isinstance(v, ast.Call) for v in values)
            else:
                fresh = isinstance(recv, ast.Call)
            out.append((node.lineno, fresh))
    return sorted(out)


def test_the_guard_flags_a_receiver_that_was_not_just_built():
    source = (
        "def ok(xl, rows):\n"
        "    acc = xl.zero_block(rows, rows)\n"
        "    acc = cache[0] = acc.reduced()\n"       # line 3
        "    return xl.Block(rows, 1, 2).reduced()\n"  # line 4
        "def param(blk):\n"
        "    return blk.reduced()\n"                 # line 6
        "def attr(self):\n"
        "    return self.gram.reduced()\n"           # line 8
        "def rebound(xl, other):\n"
        "    acc = xl.zero_block(1, 1)\n"
        "    acc = other\n"
        "    return acc.reduced()\n"                 # line 12
        "def loop(blocks):\n"
        "    for b in blocks:\n"
        "        b.reduced()\n"                      # line 15
        "def outer(xl):\n"
        "    acc = xl.zero_block(1, 1)\n"
        "    def inner(acc):\n"
        "        return acc.reduced()\n"             # line 19
        "    return inner\n")
    assert reduced_receivers(source) == [
        (3, True), (4, True), (6, False), (8, False), (12, False),
        (15, False), (19, False)]


def test_every_reduced_call_in_voacert_has_a_fresh_receiver():
    calls = {p.stem: reduced_receivers(p.read_text())
             for p in sorted(PACKAGE.glob("*.py"))}
    stale = [(module, line) for module, found in calls.items()
             for line, fresh in found if not fresh]
    assert stale == []
    # the guard sees every call site (ten when it was written)
    assert sum(map(len, calls.values())) >= 10
