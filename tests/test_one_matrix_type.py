"""Every matrix the exact kernels handle is an ``xl.Block``.

Each public ``exactlinalg`` kernel is wrapped from outside the package and
rebound in every ``voacert`` namespace that holds it, so calls between
kernels are seen too.  Models are built under the wrappers, and every
check type runs once through ``cli.run_check``.
"""

import sys

from voacert import cli
from voacert import exactlinalg as xl
from voacert.graded_fock import (build_model, heisenberg_spec, lattice_spec,
                                 virasoro_spec)

# kernel -> (leading positional arguments that are matrices, what the result
# is: "block", "pair" for (block, pivots), or None for no matrix)
KERNELS = {
    "zero_block": (0, "block"), "sparse_block": (0, "block"),
    "identity": (0, "block"), "shape": (1, None),
    "mat_add": (2, "block"), "mat_sub": (2, "block"),
    "mat_scale": (1, "block"), "add_scaled": (2, None),
    "sum_of_products": (0, "block"), "mat_mul": (2, "block"),
    "compose": (2, "block"), "mat_vec": (1, None),
    "transpose": (1, "block"), "max_abs": (1, None), "is_zero": (1, None),
    "to_numpy": (1, None), "rref": (1, "pair"),
    "nonsingular_mod_p": (1, None), "kernel_basis": (1, None),
    "inverse": (1, "block"), "ldl": (1, None),
    "positive_definite": (1, None), "solve_symmetric": (2, "block"),
    "trace": (1, None),
}

MODELS = {
    "heis": (heisenberg_spec(2, 4, metric=[[2, 1], [1, 2]]), None),
    "vir": (virasoro_spec("1/2", 6), 1),
    "lat": (lattice_spec(4, 6), None),
}

# (check, model) for every check type, on small windows
CHECKS = [
    ({"type": "axioms", "samples": 4}, "heis"),
    ({"type": "unitarity"}, "vir"),
    ({"type": "norms", "state": "top:1", "m_max": 1, "n_max": 2}, "lat"),
    ({"type": "bootstrap", "n_max": 2}, "lat"),
    ({"type": "orbifold", "state": "basis:1:0", "n_max": 2}, "heis"),
    ({"type": "trace_domination", "state": "basis:1:1", "n_max": 3}, "heis"),
    ({"type": "virasoro_bound", "state": "nu", "m_max": 1, "n_max": 3},
     "vir"),
    ({"type": "v1_bound", "state": "basis:1:0", "m_max": 1, "n_max": 2},
     "lat"),
    ({"type": "primary_bound", "state": "top:1", "m_max": 1, "n_max": 2},
     "lat"),
    ({"type": "product_lemma", "state": "basis:2:1", "m_max": 1,
      "n_max": 2}, "heis"),
    ({"type": "pair_bound", "state": "top:1", "with": "basis:1:0",
      "m_max": 1, "n_max": 2}, "lat"),
    ({"type": "zero_mode_product", "state": "top:1", "with": "basis:1:0",
      "n_max": 2}, "lat"),
]


def _checked(name, fn, operands, result, seen, wrong):
    def wrapper(*args, **kwargs):
        for i, arg in enumerate(args[:operands]):
            if type(arg) is not xl.Block:
                wrong.add((name, f"operand {i}", type(arg).__name__))
        out = fn(*args, **kwargs)
        got = out[0] if result == "pair" else out
        if result and type(got) is not xl.Block:
            wrong.add((name, "result", type(got).__name__))
        seen.add(name)
        return out

    return wrapper


def test_every_matrix_operand_and_result_is_a_block(monkeypatch):
    seen, wrong = set(), set()
    for name, (operands, result) in KERNELS.items():
        original = getattr(xl, name)
        wrapper = _checked(name, original, operands, result, seen, wrong)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "voacert" or mod_name.startswith("voacert."):
                if getattr(mod, name, None) is original:
                    monkeypatch.setattr(mod, name, wrapper)
    models = {key: build_model(spec, pad=pad)
              for key, (spec, pad) in MODELS.items()}
    for check, key in CHECKS:  # the verdicts are not the point here
        cli.run_check(models[key], check, 1e-8)
    assert not wrong, sorted(wrong)
    assert {c["type"] for c, _ in CHECKS} == set(cli.CHECKS)
    # the elimination, product and adjoint paths all ran under the wrappers
    assert {"rref", "nonsingular_mod_p", "inverse", "mat_mul", "compose",
            "transpose", "mat_vec", "trace", "identity",
            "positive_definite"} <= seen


def test_the_kernel_table_names_every_public_kernel():
    public = {name for name, obj in vars(xl).items()
              if callable(obj) and not name.startswith("_")
              and getattr(obj, "__module__", None) == xl.__name__
              and not isinstance(obj, type)}
    assert public == set(KERNELS)

