import math

import pytest

from voacert import exactlinalg as xl
from voacert.bound_certifier import trace_domination_check
from voacert.errors import ModelBugError, SpecError
from voacert.graded_fock import (BasisState, StateVector, build_model,
                                 heisenberg_spec, lattice_spec,
                                 virasoro_spec)
from voacert.scalars import Q
from voacert.unitary_structure import (GramFamily, adjoint_residual,
                                       family_of, kac_moody_residual, star)


def test_vacuum_normalization(heis8):
    fam = family_of(heis8)
    assert fam.matrix(0) == [[Q(1)]]


def test_degree_two_gram_of_heisenberg(heis8):
    # states a_{-2} Om and a_{-1}^2 Om have squared lengths 2 and 2
    fam = family_of(heis8)
    assert fam.matrix(2) == [[Q(2), Q(0)], [Q(0), Q(2)]]


def test_gram_symmetric_and_positive(heis8, ising8, c1_8, lat2_6):
    for model in (heis8, ising8, c1_8, lat2_6):
        fam = family_of(model)
        for d in range(model.N + 1):
            g = fam.matrix(d)
            assert xl.transpose(g) == g
            assert fam.positive_definite(d)
            assert fam.radical(d) == []


def test_conformal_state_squared_length(heis8, ising8, c1_8, lat2_6):
    # (nu | nu) = c/2, exactly
    for model in (heis8, ising8, c1_8, lat2_6):
        fam = family_of(model)
        assert fam.pairing(model.nu, model.nu) == model.c / 2


def block(a, cols):
    """The block of a dense matrix with cols columns."""
    return xl.sparse_block([{j: x for j, x in enumerate(row) if x}
                            for row in a], cols)


def dense_mat_mul(a, b, cols):
    """Naive product of dense matrices; b has cols columns."""
    return [[sum((row[t] * b[t][j] for t in range(len(b))), 0)
             for j in range(cols)] for row in a]


def test_exact_cholesky_reconstructs(heis8):
    fam = family_of(heis8)
    for d in (2, 3, 4):
        low, diag = fam.exact_cholesky(d)
        n = len(diag)
        dmat = xl.sparse_block([{i: x} for i, x in enumerate(diag)], n)
        lows = block(low, n)
        assert xl.mat_mul(lows, xl.mat_mul(dmat, xl.transpose(lows))) \
            == fam.matrix(d)


@pytest.mark.parametrize("metric", [
    [[1, 2], [2, 1]],   # leading minors 1, -3
    [[1, 0], [0, 0]],   # singular: second pivot zero
    [[0, 1], [1, 0]],   # nonsingular, first pivot zero
    [[2, 1, 1], [1, 2, 1], [1, 1, -1]],  # minors 2, 3, then -5
])
def test_heisenberg_metric_must_be_positive_definite(metric):
    with pytest.raises(SpecError):
        heisenberg_spec(len(metric), 3, metric=metric).validate()


def test_positive_definite_metric_builds():
    model = build_model(heisenberg_spec(2, 3, metric=[[2, 1], [1, 2]]))
    assert family_of(model).matrix(1) == [[2, 1], [1, 2]]


@pytest.mark.parametrize("c", ["1/2", "1", "-22/5", "7/10", "-2"])
def test_fraction_free_positivity_agrees_with_ldl(c):
    # unitary and non-unitary quotients: some degrees are indefinite
    fam = GramFamily(build_model(virasoro_spec(c, 12), pad=1))
    for d in range(13):
        assert fam.positive_definite(d) == (xl.ldl(fam.matrix(d)) is not None)


def test_non_positive_form_is_flagged(heis8):
    fam = GramFamily(heis8)  # private family: the shared one stays intact
    fam.matrix(2)
    fam._mats[2] = block([[Q(1), Q(2)], [Q(2), Q(1)]], 2)
    assert fam.positive_definite(2) is False
    with pytest.raises(ModelBugError):
        fam.exact_cholesky(2)
    assert fam.positive_definite(1) is True


def test_star_is_an_involution(heis8, lat2_6):
    for model, degrees in ((heis8, (1, 2, 3)), (lat2_6, (1, 2))):
        for d in degrees:
            for st in model.basis.states(d):
                vec = StateVector.basis(st)
                assert star(model, star(model, vec)) == vec


def termwise_star(model, a, inverses):
    """The conjugate of a homogeneous vector from Gram inverses: each
    component of degree e is G_e^{-1} times a's annihilation block
    V_e -> V_0, less the L_{-1}^{e-e'}/(e-e')! images of the components
    below it, each applied afresh.  inverses memoizes the Gauss-Jordan
    G_e^{-1} of the model by degree."""
    from voacert.mode_engine import _vec_block, apply_mode

    d = model.degree_of(a)
    fam = family_of(model)
    comps = {}
    total = StateVector()
    for e in range(d + 1):
        if model.dim(e) == 0:
            continue
        down = _vec_block(model, a, e, e)
        if e not in inverses:
            inverses[e] = xl.inverse(fam.matrix(e))
        corr = model.from_coords(e, xl.mat_vec(inverses[e], down[0]))
        for ep in sorted(comps, reverse=True):
            up = comps[ep]
            for _ in range(e - ep):
                up = apply_mode(model, model.nu, -1, up)
            corr.add(up, Q(-1, math.factorial(e - ep)))
        if not corr.is_zero():
            comps[e] = corr
            total.add(corr)
    return total


# (spec, pad of the model starred, test id); the reference recursion runs
# on a pad-N build of a Virasoro spec, whose peeling never leaves it
STAR_CASES = [
    (heisenberg_spec(1, 7), None, "heisenberg"),
    (heisenberg_spec(1, 7, [[Q(1, 2)]]), None, "heisenberg_half"),
    (heisenberg_spec(2, 6, [[2, 1], [1, 2]]), None, "heisenberg_metric"),
    (heisenberg_spec(3, 5, [[2, 1, Q(1, 2)], [1, 3, 1], [Q(1, 2), 1, 2]]),
     None, "heisenberg_rank3"),
    (lattice_spec(2, 8), None, "lattice2"),
    (lattice_spec(4, 8), None, "lattice4"),
    (lattice_spec(6, 8), None, "lattice6"),
    (virasoro_spec("1/2", 10), 1, "virasoro_half"),
    (virasoro_spec(1, 10), None, "virasoro_one"),
    (virasoro_spec("-22/5", 10), 1, "virasoro_nonunitary"),
    (virasoro_spec("-153/70", 8), 1, "virasoro_zero_minor"),
    (virasoro_spec(25, 10), None, "virasoro_25"),
    (virasoro_spec("7/10", 10), 0, "virasoro_minimal_pad0"),
    (virasoro_spec("1/2", 12), 0, "virasoro_half_pad0")]


@pytest.mark.parametrize("spec,pad", [c[:2] for c in STAR_CASES],
                         ids=[c[2] for c in STAR_CASES])
def test_closed_form_star_equals_the_gram_recursion(spec, pad):
    model = build_model(spec, pad=pad)
    ref = build_model(spec, pad=spec.N) if spec.kind == "virasoro" \
        else model
    inverses = {}
    for d in range(model.N + 1):
        for st in model.basis.states(d):
            vec = StateVector.basis(st)
            assert star(model, vec) == termwise_star(ref, vec, inverses), st
    mixed = StateVector({st: Q(i + 1, 3) for i, st in enumerate(
        model.basis.states(1) + model.basis.states(model.N))})
    assert star(model, mixed) == sum(
        (termwise_star(ref, StateVector.basis(st, co), inverses)
         for st, co in mixed.terms.items()), StateVector())


@pytest.mark.parametrize("spec,pad", [
    (heisenberg_spec(2, 5, [[2, 1], [1, 2]]), None),
    (lattice_spec(2, 6), None), (virasoro_spec("1/2", 8), 0),
    (virasoro_spec(1, 8), None)],
    ids=["heisenberg", "lattice", "virasoro_pad0", "virasoro"])
def test_star_reads_no_gram(monkeypatch, spec, pad):
    def refuse(fam, degree):
        raise AssertionError("star read a Gram matrix")

    model = build_model(spec, pad=pad)
    monkeypatch.setattr(GramFamily, "matrix", refuse)
    for d in range(model.N + 1):
        for st in model.basis.states(d):
            assert star(model, st).terms


@pytest.mark.parametrize("spec", [
    heisenberg_spec(3, 3, [[2, 1, Q(1, 2)], [1, 3, 1], [Q(1, 2), 1, 2]]),
    lattice_spec(2, 3), lattice_spec(6, 3), virasoro_spec("1/2", 3)],
    ids=["heisenberg_rank3", "lattice2", "lattice6", "virasoro"])
def test_star_partners_are_an_involution_of_equal_degree(spec):
    # the closed form maps each factor g_m to a multiple of (g*)_m
    gens = build_model(spec).generators
    for gid, info in gens.items():
        assert info.star in gens
        assert gens[info.star].degree == info.degree
        assert gens[info.star].star == gid


def test_star_swaps_lattice_charges(lat2_6):
    ep = StateVector.basis(BasisState(1, ()))
    em = StateVector.basis(BasisState(-1, ()))
    assert star(lat2_6, ep) == em
    assert star(lat2_6, em) == ep


def test_adjoint_residual_vanishes(heis8, ising8):
    a = heis8.basis.states(1)[0]
    for m in (-2, -1, 0, 1, 2):
        assert adjoint_residual(heis8, a, m).is_zero
    for m in (-1, 0, 1):
        assert adjoint_residual(ising8, ising8.nu, m).is_zero


def test_adjoint_of_non_quasi_primary_states(heis8):
    # the conjugate of a descendant has components below the top degree,
    # and the adjoint relation must hold for every mode index anyway
    for st in heis8.basis.states(2) + heis8.basis.states(3):
        for m in (-1, 0, 1, 2):
            assert adjoint_residual(heis8, st, m).is_zero


def test_adjoint_residual_sees_a_corrupted_current(heis6):
    bad = build_model(heisenberg_spec(1, 6), corrupt=(0, -1, 2, 0, 0, 1))
    a = bad.basis.states(1)[0]
    assert adjoint_residual(bad, a, -1).max_abs == Q(3, 2)
    assert adjoint_residual(bad, a, 1).max_abs == 1
    for m in (-1, 1):
        assert adjoint_residual(heis6, a, m).is_zero


def test_current_algebra_check_rejects_a_degree_two_state(heis8):
    with pytest.raises(ValueError, match="degree-1"):
        kac_moody_residual(heis8, heis8.basis.states(2)[0],
                           heis8.basis.states(1)[0], 0, 0)


def test_current_algebra_bracket(lat2_6):
    tops = [st for st in lat2_6.basis.states(1) if not st.factors]
    ep, em = tops
    # central term m (e+* | e-*)... for m = -n the bracket picks up m(a*|b)
    assert kac_moody_residual(lat2_6, ep, em, 1, -1).is_zero
    assert kac_moody_residual(lat2_6, ep, em, 0, 0).is_zero
    assert kac_moody_residual(lat2_6, ep, ep, 1, 0).is_zero


def dense_gram_reference(model, degree, lower):
    """G_degree on dense views, unchecked: a unit row for each sector top
    and tails * G_up * B for a state g_{n0} tail, with lower[d] = G_d."""
    states = model.basis.states(degree)
    dim = len(states)
    g = [[int(i == j) for j in range(dim)] for i in range(dim)]
    for pos, u in enumerate(states):
        if u.factors:
            gid, n0 = u.factors[0]
            up = degree + n0
            tail = StateVector.basis(BasisState(u.sector, u.factors[1:]))
            tails = [model.coords_by_degree(tail).get(up, [0] * model.dim(up))]
            star_block = model.gen_block(model.generators[gid].star, -n0,
                                         degree)
            g[pos] = dense_mat_mul(dense_mat_mul(tails, lower[up],
                                                 model.dim(up)),
                                   star_block.dense(), dim)[0]
    return g


# (spec, pad, test id); the metric cases share their describe()
GRAM_FORM_CASES = [(s, pad, s.describe()) for s, pad in (
    (heisenberg_spec(2, 6, [[2, 1], [1, 2]]), None),
    (lattice_spec(2, 8), None), (lattice_spec(4, 8), None),
    (virasoro_spec("1/2", 10), 1), (virasoro_spec(1, 10), 1),
    (virasoro_spec("-22/5", 10), 1))] + [
    (heisenberg_spec(1, 8, [[Q(1, 2)]]), None, "heisenberg_half"),
    (heisenberg_spec(1, 8, [[3]]), None, "heisenberg_three"),
    (lattice_spec(6, 8), None, "lattice6"),
    (heisenberg_spec(3, 5, [[2, 1, Q(1, 2)], [1, 3, 1], [Q(1, 2), 1, 2]]),
     None, "heisenberg_rank3")]


@pytest.mark.parametrize("spec,pad", [c[:2] for c in GRAM_FORM_CASES],
                         ids=[c[2] for c in GRAM_FORM_CASES])
def test_gram_block_matches_dense_reference(spec, pad):
    model = build_model(spec, pad=pad)
    fam = GramFamily(model)
    ref = {}
    for d in range(model.N + 1):
        ref[d] = dense_gram_reference(model, d, ref)
        g = fam.matrix(d)
        assert type(g) is xl.Block and g.cols == len(g) == model.dim(d)
        assert g == ref[d]
        nums = [x for row in g.rows for x in row.values()]
        assert all(type(x) is int and x for x in nums)
        assert math.gcd(g.den, *nums) == 1


def test_gram_family_never_multiplies_dense(monkeypatch):
    def refuse(a, b):
        raise AssertionError("dense mat_mul in a Gram build")

    monkeypatch.setattr(xl, "mat_mul", refuse)
    for spec, pad in ((lattice_spec(2, 8), None),
                      (heisenberg_spec(1, 8), None),
                      (virasoro_spec("1/2", 10), 1)):
        model = build_model(spec, pad=pad)
        fam = GramFamily(model)
        for d in range(model.N + 1):
            fam.matrix(d)


@pytest.mark.parametrize("spec,pad", [
    (virasoro_spec("1/2", 10), 1), (virasoro_spec("-22/5", 10), 1),
    (virasoro_spec("7/10", 12), None)],
    ids=["virasoro_half", "virasoro_nonunitary", "virasoro_minimal"])
def test_a_virasoro_build_is_one_sum_of_products_per_degree(monkeypatch,
                                                            spec, pad):
    """The builder's Verma Gram: at most one ``xl.sum_of_products`` call
    per degree <= N, and no rescaling through ``Block.over``."""
    kernel, over = xl.sum_of_products, xl.Block.over
    calls = {"sum_of_products": 0, "over": 0}

    def counted_kernel(*args):
        calls["sum_of_products"] += 1
        return kernel(*args)

    def counted_over(self, den):
        calls["over"] += 1
        return over(self, den)

    monkeypatch.setattr(xl, "sum_of_products", counted_kernel)
    monkeypatch.setattr(xl.Block, "over", counted_over)
    build_model(spec, pad=pad)
    assert calls["sum_of_products"] <= spec.N + 1 and calls["over"] == 0


def test_an_asymmetric_verma_gram_is_caught_at_build(monkeypatch):
    # L_4 L_{-2}^2 Om = 3c Om gains Om: row L_{-4} Om of G_4 reads 3c + 1
    # at L_{-2}^2 Om while the mirror entry stays 3c
    from voacert import graded_fock

    apply = graded_fock._VermaEngine.apply

    def shifted(self, p, word):
        out = apply(self, p, word)
        if (p, word) == (4, (2, 2)):
            out = {**out, (): out.get((), 0) + self.den}
        return out

    monkeypatch.setattr(graded_fock._VermaEngine, "apply", shifted)
    with pytest.raises(ModelBugError, match="not symmetric at degree 4"):
        build_model(virasoro_spec("1/2", 6))


def test_a_zero_central_charge_is_a_spec_error():
    # the degree-2 Verma Gram is [[c/2]]: at c = 0 nu lies in its radical
    with pytest.raises(SpecError, match="'c'"):
        build_model(virasoro_spec(0, 6))


def test_a_float_central_charge_is_refused():
    # it was read as 3152519739159347/4503599627370496, not 7/10
    with pytest.raises(TypeError, match="not an exact rational"):
        virasoro_spec(0.7, 6)
    assert virasoro_spec("0.7", 6).c == Q(7, 10)


def test_a_corrupted_free_field_model_shows_in_the_adjoint_residual(heis6):
    """The closed-form Gram reads no generator block, so a corrupted
    annihilation block no longer breaks the form; the adjoint residual
    sees it instead."""
    bad = build_model(heisenberg_spec(1, 6), corrupt=(0, 1, 2, 0, 0, 1))
    a = BasisState(0, ((0, -1),))
    for m in (-1, 1):
        assert not adjoint_residual(bad, a, m).is_zero
    for m in range(-2, 3):
        assert adjoint_residual(heis6, a, m).is_zero


@pytest.mark.parametrize("spec,pad", [
    (heisenberg_spec(2, 6, [[2, 1], [1, 2]]), None),
    (lattice_spec(2, 8), None), (virasoro_spec("1/2", 10), 1),
    (virasoro_spec(1, 10), None)],
    ids=["heisenberg_metric", "lattice2", "virasoro_half", "virasoro_one"])
def test_a_gram_degree_reads_no_generator_block(monkeypatch, spec, pad):
    """Every builder hands its model the Gram: reading one multiplies no
    blocks and builds no generator block."""
    model = build_model(spec, pad=pad)
    calls = []
    kernel = xl.sum_of_products
    monkeypatch.setattr(xl, "sum_of_products",
                        lambda *args: calls.append(1) or kernel(*args))
    family_of(model).matrix(model.N)
    assert calls == [] and model._gen_blocks == {}


@pytest.mark.parametrize("spec", [lattice_spec(2, 6),
                                  virasoro_spec("1/2", 8)],
                         ids=["lattice2", "virasoro_half"])
def test_a_dropped_model_is_freed_without_a_cyclic_collection(spec):
    import gc
    import weakref

    model = build_model(spec)
    gc.disable()
    try:
        family_of(model).matrix(2)
        dead = weakref.ref(model)
        del model
        assert dead() is None
    finally:
        gc.enable()


FORM_DIGEST_CASES = [
    (virasoro_spec("-22/5", 10), 1), (virasoro_spec("7/10", 10), 1),
    (virasoro_spec(25, 10), 1), (virasoro_spec(-2, 10), 1),
    (heisenberg_spec(2, 6, [[2, 1], [1, 2]]), None)]


def test_invariant_forms_match_pinned_digest():
    """sha256 over the basis labels, every generator block of modes -3..3
    and every Gram matrix through degree N, for non-unitary central
    charges (the quotient has a radical) and a two-generator metric.
    Labels, blocks and Grams of degrees <= N go to one digest, pinned to
    the bytes of the quotient built through the pad; the Virasoro pad
    degrees, kept in Verma coordinates, go to the other."""
    import hashlib
    import json

    from voacert.scalars import rat_to_str

    def text(mat):
        return [[rat_to_str(x) for x in row] for row in mat]

    low, above = hashlib.sha256(), hashlib.sha256()
    for spec, pad in FORM_DIGEST_CASES:
        model = build_model(spec, pad=pad)
        n = model.n_internal
        labels = [[repr(st) for st in model.basis.states(d)]
                  for d in range(n + 1)]
        low.update(json.dumps([spec.describe(), labels[:spec.N + 1]]
                              ).encode())
        above.update(json.dumps([spec.describe(), labels[spec.N + 1:]]
                                ).encode())
        for gid in sorted(model.generators):
            for m in range(-3, 4):
                for s in range(max(m, 0), min(n, n + m) + 1):
                    digest = low if max(s, s - m) <= spec.N else above
                    digest.update(json.dumps(
                        [gid, m, s, text(model.gen_block(gid, m, s))]
                    ).encode())
        fam = GramFamily(model)
        for d in range(model.N + 1):
            low.update(json.dumps([d, text(fam.matrix(d))]).encode())
    assert (low.hexdigest(), above.hexdigest()) == (
        "4877ee01b22698be296bc1e5356f59b4"
        "b5e001da66a74d8e3137f842029c33f1",
        "ed9ef667f4cd72456bc1e82293b922a7"
        "8b3a6d7ab6769f8d835194db2c473458")


# -- Gram solves against Gauss-Jordan ----------------------------------------

GRAM_SOLVE_MODELS = {
    "heisenberg_metric": (heisenberg_spec(2, 6, metric=[[2, 1], [1, 2]]),
                          None),
    "lattice2": (lattice_spec(2, 8), None),
    "lattice4": (lattice_spec(4, 8), None),
    "virasoro_half": (virasoro_spec("1/2", 10), 1),
    "virasoro_one": (virasoro_spec(1, 10), 1),
    "virasoro_nonunitary": (virasoro_spec("-22/5", 10), 1),
    "virasoro_zero_minor": (virasoro_spec("-153/70", 6), 1),
}


@pytest.mark.parametrize("key", list(GRAM_SOLVE_MODELS))
def test_gram_inverses_and_adjoints_equal_gauss_jordan(key):
    spec, pad = GRAM_SOLVE_MODELS[key]
    model = build_model(spec, pad=pad)
    fam = GramFamily(model)
    gj = [xl.inverse(fam.matrix(d)) for d in range(model.N + 1)]
    for gid in range(len(model.generators)):
        for m in range(-2, 3):
            for src in range(max(0, m), model.N + 1 + min(0, m)):
                tgt = src - m
                blk = model.gen_block(gid, m, src)
                want = xl.mat_mul(gj[src], xl.mat_mul(xl.transpose(blk),
                                                      fam.matrix(tgt)))
                assert fam.adjoint(blk, src, tgt) == want


def test_a_nonsingular_gram_with_a_zero_leading_minor_is_inverted():
    # c = -153/70 is not a Kac value, so G_6 is nonsingular, but its
    # leading 2 x 2 minor (L_{-6} and L_{-3}^2) is c^2 (306 + 140 c) = 0:
    # the symmetric sweep has no pivot there (the "virasoro_zero_minor"
    # case above compares its inverse with Gauss-Jordan)
    model = build_model(virasoro_spec("-153/70", 6))
    g = family_of(model).matrix(6).dense()
    assert g[0][0] * g[1][1] - g[0][1] * g[1][0] == 0
    for m in range(-2, 3):
        assert adjoint_residual(model, model.nu, m).is_zero


@pytest.mark.parametrize("spec", [
    heisenberg_spec(2, 6, metric=[[2, 1], [1, 2]]), lattice_spec(2, 8)],
    ids=["heisenberg_metric", "lattice2"])
def test_free_field_adjoints_run_no_gauss_jordan(monkeypatch, spec):
    model = build_model(spec)  # a metric's inverse is built here, not below
    calls = []

    def counted(name, fn):
        def wrapper(*args):
            calls.append(name)
            return fn(*args)
        return wrapper

    for name in ("rref", "inverse"):
        monkeypatch.setattr(xl, name, counted(name, getattr(xl, name)))
    current = BasisState(0, ((0, -1),))
    assert trace_domination_check(model, current, Q(1, 2), 6).passed
    for m in (-1, 0, 1, 2):
        assert adjoint_residual(model, current, m).is_zero
    assert calls == []
