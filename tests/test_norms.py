import json
import math

import pytest

from voacert import exactlinalg as xl
from voacert import norm_lab
from voacert.bound_certifier import (certify_orbifold_chain,
                                     certify_pair_bound,
                                     certify_virasoro_bound,
                                     trace_domination_check)
from voacert.errors import ModelBugError, TruncationError
from voacert.graded_fock import (BasisState, StateVector, build_model,
                                 heisenberg_spec, virasoro_spec)
from voacert.mode_engine import _vec_block
from voacert.norm_lab import (cstar_gap, damped_norm, graded_norm,
                              graded_norm_certified, norm_table,
                              write_norm_csv)
from voacert.scalars import Q
from voacert.unitary_structure import family_of, star

REL = 1e-9


def current(model):
    return model.basis.states(1)[0]


def test_creation_mode_norm(heis12):
    # ||a_{-1}||_n = sqrt(n+1): the largest matrix element sits on the top
    a = current(heis12)
    for n in range(11):
        got = graded_norm(heis12, a, -1, n)
        assert got == pytest.approx(math.sqrt(n + 1), rel=REL)


def test_annihilation_mode_norm(heis12):
    a = current(heis12)
    for n in range(11):
        got = graded_norm(heis12, a, 1, n)
        assert got == pytest.approx(math.sqrt(n), rel=REL, abs=1e-12)


def test_l0_norm_is_filtration_top(heis12):
    for n in range(11):
        assert graded_norm(heis12, heis12.nu, 0, n) == pytest.approx(
            float(n), rel=REL, abs=1e-12)


def test_virasoro_creation_norm_at_vacuum(ising8, c1_8):
    # ||L_{-2}||_0 = sqrt((L_{-2}Om | L_{-2}Om)) = sqrt(c/2)
    for model in (ising8, c1_8):
        got = graded_norm(model, model.nu, -2, 0)
        assert got == pytest.approx(math.sqrt(float(model.c) / 2), rel=REL)


def test_certified_interval_brackets_spectral(heis8, ising8, lat2_8):
    cases = [(heis8, current(heis8)), (ising8, ising8.nu),
             (lat2_8, BasisState(0, ((0, -1),)))]
    for model, a in cases:
        for (m, n) in [(1, 4), (0, 3), (-1, 3)]:
            lo, hi = graded_norm_certified(model, a, m, n)
            assert hi - lo <= Q(1, 10 ** 9) * max(1, hi)
            spec = graded_norm(model, a, m, n) ** 2
            assert float(lo) - 1e-9 <= spec <= float(hi) + 1e-9


def test_certified_value_is_exact(heis8):
    # ||a_1||_4^2 = 4 exactly; the enclosure must contain the integer
    a = current(heis8)
    lo, hi = graded_norm_certified(heis8, a, 1, 4)
    assert lo <= Q(4) <= hi


def test_certified_norm_has_no_block_size_cap():
    # ||a_1||_9^2 = 9, read on degree blocks of dimension up to p(9) = 30
    model = build_model(heisenberg_spec(1, 10))
    lo, hi = graded_norm_certified(model, current(model), 1, 9)
    assert model.dim(9) == 30
    assert lo <= Q(9) <= hi


def test_certified_norm_is_seeded_by_the_float_norm(monkeypatch):
    # the float sigma_s brackets sigma_s^2 in two exact checks per degree,
    # next to the one exact positivity test of G_s; no LDL^T factorization
    model = build_model(heisenberg_spec(1, 10))
    calls = {"ldl": [], "positive_definite": []}

    def counting(name):
        real = getattr(xl, name)

        def counted(a):
            calls[name].append(a)
            return real(a)
        return counted

    for name in calls:
        monkeypatch.setattr(xl, name, counting(name))
    lo, hi = graded_norm_certified(model, current(model), 1, 9)
    assert lo <= Q(9) <= hi
    assert hi - lo <= Q(1, 10 ** 9) * hi
    degrees = 9  # source degrees 1..9
    assert not calls["ldl"]
    assert len(calls["positive_definite"]) <= 4 * degrees


@pytest.mark.parametrize("tol", [Q(1, 10 ** 9), Q(1, 10 ** 400), 1e-320])
def test_certified_norm_widens_a_bad_seed(tol):
    # a guess off the mark, missing or not finite only costs checks; a tol
    # far below float range still gives a seed and a bracket
    gram = xl.Block([{0: 1}, {1: 2}], 2)  # diag(1, 2)
    comp = xl.Block([{0: 3}, {1: 2}], 2)  # diag(3, 2): sigma^2 = 3
    for guess in (None, 0.0, -1.0, 1e-30, 1.0, 2.9, 3.0, 7.5, 1e300,
                  math.inf, math.nan):
        lo, hi = norm_lab._bisect_sigma_sq(gram, comp, tol, guess)
        assert lo <= 3 <= hi
        assert hi - lo <= tol * max(1, hi)


@pytest.mark.parametrize("tol", [0, -1, math.nan, math.inf],
                         ids=["zero", "negative", "nan", "inf"])
def test_certified_norm_rejects_a_tolerance_that_is_not_positive(
        monkeypatch, tol):
    # a bisection to within tol <= 0 never ends: the tolerance is refused
    # before any block is built
    model = build_model(heisenberg_spec(1, 6))

    def refuse(*args):
        raise AssertionError("a block was built")

    monkeypatch.setattr(norm_lab, "_vec_block", refuse)
    with pytest.raises(ValueError, match="tolerance"):
        graded_norm_certified(model, current(model), 1, 3, tol=tol)


def test_certified_norm_survives_a_failing_float_seed(monkeypatch):
    def failing(*args):
        raise ModelBugError("float Cholesky failed")

    monkeypatch.setattr(norm_lab, "_sigma", failing)
    model = build_model(heisenberg_spec(1, 6))
    lo, hi = graded_norm_certified(model, current(model), 1, 5)
    assert lo <= Q(5) <= hi
    assert hi - lo <= Q(1, 10 ** 9) * hi


def test_certified_norm_rejects_a_non_positive_gram():
    # without the check the search for an upper bound would never end
    model = build_model(heisenberg_spec(1, 4))
    # planted in the model's shared Gram cache, on a private model
    family_of(model)._mats[2] = xl.Block([{0: -1}, {1: 1}], 2)
    with pytest.raises(ModelBugError):
        graded_norm_certified(model, current(model), 1, 2)


def test_cstar_identity_gap(heis12, ising8, lat2_8):
    # by label: basis position 0 at degree 1 of a lattice model is e(-1)
    probes = [(heis12, current(heis12)), (ising8, ising8.nu),
              (lat2_8, BasisState(0, ((0, -1),)))]
    for model, a in probes:
        for m in (-1, 0, 1, 2):
            assert cstar_gap(model, a, m, 5) <= REL


def test_shift_identity(heis12):
    # ||a_m||_n = ||a*_{-m}||_{n-m}
    a = current(heis12)
    conj = star(heis12, a)
    for m in range(-3, 4):
        for n in range(9):
            if n - m < 0 or n - m > heis12.N:
                continue
            lhs = graded_norm(heis12, a, m, n)
            rhs = graded_norm(heis12, conj, -m, n - m)
            assert lhs == pytest.approx(rhs, rel=REL, abs=1e-12)


def test_damped_norm_monotone_in_damping(heis8):
    a = current(heis8)
    vals = [damped_norm(heis8, a, q, 6) for q in (0.25, 0.5, 0.75)]
    assert vals == sorted(vals)
    with pytest.raises(ValueError):
        damped_norm(heis8, a, 1.5, 4)


def test_norm_window_overflow(heis8):
    a = current(heis8)
    with pytest.raises(TruncationError):
        graded_norm(heis8, a, 0, heis8.N + 1)
    with pytest.raises(TruncationError):
        graded_norm(heis8, a, -3, heis8.N - 1)


def test_norm_table_round_trip(tmp_path, heis8):
    a = current(heis8)
    table = norm_table(heis8, a, range(-2, 3), 5, owner="current")
    payload = json.loads(json.dumps(table.to_dict()))
    assert payload["owner"] == "current"
    assert len(payload["cells"]) == len(list(table.cells()))
    got = {(c["m"], c["n"]): float(c["norm"]) for c in payload["cells"]}
    for m, n, v in table.cells():
        assert got[(m, n)] == pytest.approx(v, rel=1e-15)
    path = tmp_path / "norms.csv"
    write_norm_csv(payload, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "m,n,norm"
    assert len(lines) == 1 + len(list(table.cells()))


class _Unprintable:
    def __str__(self):
        raise RuntimeError("cell cannot be printed")


def test_a_csv_write_that_fails_mid_table_keeps_the_previous_file(tmp_path):
    # write_csv opened and truncated its target first, so a raise between
    # rows left a partial table where the previous one was
    path = tmp_path / "nm.csv"
    cells = [{"m": 0, "n": 1, "norm": "2.5"}]
    norm_lab.write_csv(path, ("m", "n", "norm"), cells)
    before = path.read_bytes()
    assert before == b"m,n,norm\r\n0,1,2.5\r\n"
    with pytest.raises(RuntimeError, match="cannot be printed"):
        norm_lab.write_csv(path, ("m", "n", "norm"), [
            {"m": 1, "n": 1, "norm": "0.5"},
            {"m": 2, "n": 1, "norm": _Unprintable()}])
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["nm.csv"]


# -- the memoized per-degree primitive ---------------------------------------


def test_each_block_norm_is_computed_once(monkeypatch):
    model = build_model(virasoro_spec("1/2", 8))  # cold norm cache
    real = norm_lab._sigma_max
    calls = []

    def counting(mat):
        calls.append(mat.shape)
        return real(mat)

    monkeypatch.setattr(norm_lab, "_sigma_max", counting)
    first = certify_virasoro_bound(model, model.nu, 3, 5)
    touched = {(m, s) for m in range(-3, 4) for n in range(6)
               for s in range(max(m, 0), n + 1)}
    assert len(calls) == len(touched)
    again = certify_virasoro_bound(model, model.nu, 3, 5)
    assert len(calls) == len(touched)
    assert again.to_dict() == first.to_dict()


# The per-degree loops the memoized primitive replaced, kept as references:
# results must agree bit for bit, not merely to a tolerance.


def loop_sigma(model, blk, src, tgt):
    return norm_lab._sigma_max(norm_lab._ortho_block(model, blk, src, tgt))


def loop_norm(model, vec, m, n):
    if n < 0 or vec.is_zero():
        return 0.0
    best = 0.0
    for s in range(n + 1):
        if s - m < 0:
            continue
        val = loop_sigma(model, _vec_block(model, vec, m, s), s, s - m)
        if val > best:
            best = val
    return best


def loop_composite(model, inner, outer, m, n):
    """max over s of the norm of outer_{-m} inner_m on degree s."""
    best = 0.0
    for s in range(n + 1):
        mid = s - m
        if mid < 0:
            continue
        comp = xl.compose(_vec_block(model, outer, -m, mid),
                          _vec_block(model, inner, m, s),
                          model.dim(s), model.dim(s))
        val = loop_sigma(model, comp, s, s)
        if val > best:
            best = val
    return best


def loop_weighted(model, vec, weight, n):
    best = 0.0
    for k in range(n + 1):
        val = loop_sigma(model, _vec_block(model, vec, 0, k), k, k) * \
            weight(k)
        if val > best:
            best = val
    return best


def probes(model):
    """The zero vector, nu, and a multi-term combination of degree 2."""
    mixed = StateVector()
    for i, st in enumerate(model.basis.states(2)):
        mixed.add_term(st, Q(1, i + 1))
    return [StateVector(), model.nu, mixed + model.nu.copy().scale(Q(1, 3))]


REFERENCE_MODELS = ["heis6", "ising8", "lat2_6"]


@pytest.mark.parametrize("name", REFERENCE_MODELS)
def test_norms_equal_the_per_degree_loops(request, name):
    model = request.getfixturevalue(name)
    qf = float(Q(1, 3))
    for vec in probes(model):
        conj = star(model, vec)
        for m in range(-2, 3):
            for n in range(-1, model.N - 1):
                norm = loop_norm(model, vec, m, n)
                assert graded_norm(model, vec, m, n) == norm
                assert cstar_gap(model, vec, m, n) == abs(
                    loop_composite(model, vec, conj, m, n) - norm * norm)
        for n in range(model.N + 1):
            assert damped_norm(model, vec, Q(1, 3), n) == \
                loop_weighted(model, vec, lambda k: qf ** k, n)


@pytest.mark.parametrize("name", REFERENCE_MODELS)
def test_certifier_cells_equal_the_per_degree_loops(request, name):
    model = request.getfixturevalue(name)
    vecs = probes(model)
    # a primary of degree != 1: the charge-2 top of lattice(2, .) has
    # degree 4; the vacuum is the only other one in these models
    prim = StateVector.basis(BasisState(2, ()) if model.spec.kind ==
                             "lattice" else model.vacuum)
    for b in vecs[1:]:
        report = certify_pair_bound(model, prim, b, 2, 4)
        big_b, t = report.constants["B"], report.constants["t"]
        for cell in report.cells:
            m, n = cell["m"], cell["n"]
            assert cell["lhs"] == loop_composite(model, b, prim, m, n)
            assert cell["rhs"] == big_b * ((1 + m) * (1 + n)) ** t * (
                loop_norm(model, prim, 0, n) +
                loop_norm(model, prim, 0, n - m))
    for a in vecs[1:]:
        report = certify_orbifold_chain(model, a, model.nu, 0.5, model.N)
        norm_sq = report.constants["state_norm_sq"]
        for cell in report.cells:
            n = cell["n"]
            assert cell["lhs"] == loop_weighted(
                model, a, lambda k: (k + 1) ** (-0.5), n) ** 2
            assert cell["rhs"] == norm_sq * loop_weighted(
                model, model.nu, lambda k: (k + 1) ** (-1.0), n)
        report = trace_domination_check(model, a, Q(1, 2), model.N)
        for cell in report.cells:
            if cell["m"] == 0:
                assert cell["lhs"] == loop_weighted(
                    model, a, lambda k: 0.5 ** k, cell["n"]) ** 2
