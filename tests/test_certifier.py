import hashlib
import json

import pytest

from voacert import bound_certifier
from voacert import exactlinalg as xl
from voacert.bound_certifier import (BoundReport, bootstrap_analyze,
                                     certify_orbifold_chain,
                                     certify_pair_bound,
                                     certify_primary_bound,
                                     certify_product_lemma,
                                     certify_v1_bound,
                                     certify_virasoro_bound,
                                     certify_zero_mode_product,
                                     fit_exponents, fit_recursion,
                                     measure_sector_growth,
                                     orbifold_average,
                                     trace_domination_check)
from voacert.graded_fock import (BasisState, StateVector, build_model,
                                 heisenberg_spec, virasoro_spec)
from voacert.mode_engine import sample_residuals, state_product
from voacert.norm_lab import norm_table
from voacert.scalars import Q
from voacert.unitary_structure import GramFamily, family_of


def current(model):
    return model.basis.states(1)[0]


@pytest.fixture(scope="module")
def lat4_8():
    from voacert.graded_fock import build_model, lattice_spec

    return build_model(lattice_spec(4, 8))


def test_virasoro_bound_small_window(ising8, c1_8):
    for model in (ising8, c1_8):
        report = certify_virasoro_bound(model, model.nu, 3, 5)
        assert report.passed
        assert report.constants["central_charge"] == float(model.c)


def test_virasoro_bound_rejects_non_virasoro_state(heis8):
    with pytest.raises(ValueError):
        certify_virasoro_bound(heis8, current(heis8), 2, 4)


def test_v1_bound(heis8):
    report = certify_v1_bound(heis8, current(heis8), 4, 4)
    assert report.passed
    assert report.constants["state_norm"] == pytest.approx(1.0)


def test_v1_bound_rejects_wrong_degree(heis8):
    with pytest.raises(ValueError):
        certify_v1_bound(heis8, heis8.nu, 2, 4)


def test_product_lemma_includes_exact_vector_level(heis8):
    for deg in (1, 2):
        for st in heis8.basis.states(deg):
            report = certify_product_lemma(heis8, st, 3, 5)
            assert report.passed
            assert report.notes["vector_level_exact"] is True


def test_product_lemma_reports_an_exact_vector_level_violation(monkeypatch):
    # a square completion a quarter too small breaks ||a_m b||^2 <= (b|x_0 b)
    model = build_model(heisenberg_spec(1, 8))
    real = bound_certifier._square_completion
    monkeypatch.setattr(bound_certifier, "_square_completion",
                        lambda m, a: real(m, a).scale(Q(1, 4)))
    report = certify_product_lemma(model, current(model), 2, 4)
    assert report.notes["vector_level_exact"] is False
    assert report.notes["exact_violation"].startswith(
        "b=<g0[-1]g0[-1]g0[-1]Om> m=1 ")
    assert not report.passed


def test_pair_bound(lat4_8):
    # a degree-2 primary (unit-charge top) paired with the current
    from voacert.graded_fock import BasisState

    prim = BasisState(1, ())
    report = certify_pair_bound(lat4_8, prim, current(lat4_8), 3, 4)
    assert report.passed
    assert report.constants["t"] == report.constants["q"] + 1.5


# a zero state passed the primary test vacuously and then crashed on its
# degree, None, with a TypeError
@pytest.mark.parametrize("certify", [
    lambda model, zero: certify_primary_bound(model, zero, 1, 2),
    lambda model, zero: certify_pair_bound(model, zero, current(model), 1, 2),
    lambda model, zero: certify_zero_mode_product(
        model, current(model), 0, zero, 2)],
    ids=["primary_bound", "pair_bound", "zero_mode_product"])
def test_a_zero_primary_is_a_value_error(lat4_8, certify):
    with pytest.raises(ValueError, match="state is zero"):
        certify(lat4_8, StateVector())


# each of these but the first returned all-zero cells, and so passed, on a
# zero state; the Virasoro bound read its central charge as 0 and said so
@pytest.mark.parametrize("certify", [
    lambda model, zero: certify_virasoro_bound(model, zero, 1, 2).passed,
    lambda model, zero: certify_v1_bound(model, zero, 1, 2).passed,
    lambda model, zero: certify_product_lemma(model, zero, 1, 2).passed,
    lambda model, zero: norm_table(model, zero, range(-1, 2), 2).failures,
    lambda model, zero: certify_pair_bound(
        model, BasisState(1, ()), zero, 1, 2).passed,
    lambda model, zero: certify_zero_mode_product(
        model, zero, 0, BasisState(1, ()), 2).passed,
    lambda model, zero: trace_domination_check(model, zero, "1/2", 4).passed,
    lambda model, zero: certify_orbifold_chain(
        model, zero, orbifold_average(model, 1)[0], 1, 4).passed],
    ids=["virasoro_bound", "v1_bound", "product_lemma", "norm_table",
         "pair_bound_b", "zero_mode_product_b", "trace_domination",
         "orbifold_chain"])
def test_a_zero_state_is_a_value_error(lat4_8, certify):
    with pytest.raises(ValueError, match="state is zero"):
        certify(lat4_8, StateVector())


# each of these returned a report or table of zero cells, which passed,
# or (0, []) for no sample
@pytest.mark.parametrize("call", [
    lambda model, a: certify_v1_bound(model, a, -1, 2),
    lambda model, a: certify_v1_bound(model, a, 1, -1),
    lambda model, a: certify_product_lemma(model, a, -1, 2),
    lambda model, a: certify_virasoro_bound(model, model.nu, -1, 2),
    lambda model, a: certify_primary_bound(model, model.vacuum, -1, 2),
    lambda model, a: trace_domination_check(model, a, Q(1, 2), -1),
    lambda model, a: certify_orbifold_chain(
        model, a, orbifold_average(model, 1)[0], 1, -1),
    lambda model, a: norm_table(model, a, range(0), 2),
    lambda model, a: norm_table(model, a, range(1), -1),
    lambda model, a: sample_residuals(model, "borcherds", 0)],
    ids=["v1_bound_m", "v1_bound_n", "product_lemma", "virasoro_bound",
         "primary_bound", "trace_domination", "orbifold_chain",
         "norm_table_m", "norm_table_n", "sample_residuals"])
def test_an_empty_window_is_a_value_error(heis6, call):
    with pytest.raises(ValueError, match="empty window|sample count"):
        call(heis6, current(heis6))


def test_zero_mode_product(lat4_8):
    from voacert.graded_fock import BasisState

    prim = BasisState(1, ())
    report = certify_zero_mode_product(lat4_8, current(lat4_8), 1, prim, 4)
    assert report.passed
    assert report.constants["r"] > 0


def test_orbifold_average_is_the_current_square(heis8):
    x, report = orbifold_average(heis8, 1)
    a = current(heis8)
    expect = state_product(heis8, a, -1, StateVector.basis(a))
    assert x == expect
    assert report.passed
    assert report.notes["basis_independent"] is True
    assert report.notes["invariant_charge_conjugation_0"] is True


@pytest.mark.parametrize("model", ["ising8", "c1_8"])
def test_a_virasoro_model_has_no_charge_conjugation(request, model):
    vir = request.getfixturevalue(model)
    assert vir.automorphisms == {}
    _, report = orbifold_average(vir, 2)
    assert not any(k.startswith("invariant_") for k in report.notes)


def test_automorphisms_map_basis_states_to_signed_states(lat2_6):
    assert list(lat2_6.automorphisms) == ["charge_conjugation",
                                          "torus_phase"]
    conj = lat2_6.automorphisms["charge_conjugation"]
    torus = lat2_6.automorphisms["torus_phase"]
    cur = BasisState(1, ((0, -1),))
    assert torus(cur) == (cur, -1)
    assert torus(BasisState(-2, ())) == (BasisState(-2, ()), 1)
    assert conj(cur) == (BasisState(-1, ((0, -1),)), -1)
    vec = StateVector.basis(cur, Q(1, 2))
    assert vec.mapped(torus) == StateVector.basis(cur, Q(-1, 2))
    assert vec.mapped(conj) == \
        StateVector.basis(BasisState(-1, ((0, -1),)), Q(-1, 2))


def test_orbifold_chain(heis8):
    x, _ = orbifold_average(heis8, 1)
    for s in (0.5, 1.0):
        report = certify_orbifold_chain(heis8, current(heis8), x, s, 6)
        assert report.passed


def test_trace_domination(heis8):
    for q in ("1/4", "1/2"):
        from voacert.scalars import rational

        report = trace_domination_check(heis8, current(heis8),
                                        rational(q), 8)
        assert report.passed
        assert report.notes["partial_traces"]


def test_a_float_damping_is_refused(heis8):
    # its traces were exact at the binary value of 0.3, not at 3/10
    with pytest.raises(TypeError, match="not an exact rational"):
        trace_domination_check(heis8, current(heis8), 0.3, 4)


def test_trace_domination_reads_each_degree_once(monkeypatch, lat2_8):
    # two exact products per degree: each filtration level n only adds
    # the trace terms of degree n to running sums
    fam = family_of(lat2_8)
    for d in range(9):  # the Gram build multiplies too
        fam.matrix(d)
    real = xl.mat_mul
    calls = []

    def counting(a, b):
        calls.append(1)
        return real(a, b)

    monkeypatch.setattr(xl, "mat_mul", counting)
    report = trace_domination_check(lat2_8, BasisState(0, ((0, -1),)),
                                    Q(1, 2), 8)
    assert len(calls) == 2 * 9
    assert len(report.cells) == 2 * 9


def test_product_lemma_builds_each_gram_degree_once(monkeypatch):
    model = build_model(heisenberg_spec(1, 6))  # cold Gram family
    real = GramFamily.matrix
    built = []

    def counting(fam, degree):
        if degree not in fam._mats:
            built.append(degree)
        return real(fam, degree)

    monkeypatch.setattr(GramFamily, "matrix", counting)
    report = certify_product_lemma(model, current(model), 2, 5)
    assert report.notes["vector_level_exact"] is True
    assert sorted(built) == sorted(set(built))


def test_fit_exponents_majorizes(heis8):
    table = norm_table(heis8, current(heis8), range(-3, 4), 6)
    c, s, t = fit_exponents(table)
    for m, n, v in table.cells():
        assert v <= c * (1 + abs(m)) ** t * (1 + n) ** s + 1e-9


def test_bootstrap_certifies_polynomial_growth():
    kseq = [float((n + 1) ** 2) for n in range(12)]
    d_const, s = fit_recursion(kseq, 1)
    verdict = bootstrap_analyze(kseq, d_const, s, 1)
    assert verdict.kind == "certified"


def test_bootstrap_detects_exponential_growth():
    kseq = [float(2 ** n) for n in range(10)]
    verdict = bootstrap_analyze(kseq, 1.0, 0.0, 1)
    assert verdict.kind == "growth_detected"
    assert verdict.witness_ok
    assert verdict.n_bar >= 0


def test_bootstrap_with_no_recursion_cell_is_inconclusive():
    # len(kseq) <= d: no cell fits, which used to certify on zero cells
    verdict = bootstrap_analyze([0.5, 0.9], 1.0, 0.0, 3)
    assert verdict.kind == "inconclusive"
    assert verdict.failing_cell == 0


@pytest.mark.parametrize("kseq, d", [([2.0], 1), ([2.0, 0.5], 3),
                                     ([0.5, 2.0], 1)])
def test_bootstrap_witness_needs_a_chain_step(kseq, d):
    # alpha_n > 1 but n + d lies past the window: the chain checked nothing
    verdict = bootstrap_analyze(kseq, 1.0, 0.0, d)
    assert verdict.kind == "growth_detected"
    assert verdict.witness_ok is False


def test_sector_growth_needs_charge_sectors(heis8):
    with pytest.raises(ValueError, match="needs a model with charge sectors"):
        measure_sector_growth(heis8, 4)


def test_bootstrap_measured_lattice_growth(lat2_8):
    kseq = measure_sector_growth(lat2_8, 8)
    assert kseq[0] == 0 and kseq[1] > 0
    for d in (1, 2):
        d_const, s = fit_recursion(kseq, d)
        verdict = bootstrap_analyze(kseq, d_const, s, d)
        assert verdict.kind == "certified"


def test_bound_report_margin_logic():
    report = BoundReport("demo", "m", "s", {}, {})
    report.add_cell(0, 0, 1.0, 2.0)
    assert report.passed
    report.add_cell(0, 1, 3.0, 2.0)
    assert not report.passed
    assert min(c["margin"] for c in report.cells) == pytest.approx(-1.0)


@pytest.mark.parametrize("lhs, rhs", [
    (float("nan"), 1.0),           # NaN left side
    (1.0, float("nan")),           # NaN right side
    (float("inf"), float("inf")),  # inf - inf margin is NaN
    (1.0, float("inf")),           # infinite margin
    (float("-inf"), 1.0),
])
def test_bound_report_fails_on_non_finite_cells(lhs, rhs):
    report = BoundReport("demo", "m", "s", {}, {})
    report.add_cell(0, 0, 1.0, 2.0)
    report.add_cell(0, 1, lhs, rhs)
    assert not report.passed


@pytest.mark.parametrize("tolerance", [float("nan"), float("inf")])
def test_bound_report_fails_on_a_non_finite_tolerance(tolerance):
    report = BoundReport("demo", "m", "s", {}, {}, tolerance=tolerance)
    report.add_cell(0, 0, 2.0, 1.0)  # violated by a whole unit
    assert not report.passed
    report.cells.clear()
    report.add_cell(0, 0, 1.0, 2.0)
    assert not report.passed


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("kseq, d_const, s", [
    ([1.0, NAN, 1.0, 1.0], 2, 1), ([1.0, INF, 1.0, 1.0], 2, 1),
    ([1.0] * 4, NAN, 1), ([1.0] * 4, INF, 1),
    ([1.0] * 4, 1, NAN), ([1.0] * 4, 1, INF)],
    ids=["nan", "inf", "D-nan", "D-inf", "s-nan", "s-inf"])
def test_bootstrap_rejects_non_finite_growth_data(kseq, d_const, s):
    with pytest.raises(ValueError, match="malformed bootstrap inputs"):
        bootstrap_analyze(kseq, d_const, s, 1)


def _certifier_reports(name, heis8, ising8, lat2_8, lat4_8):
    """The reports of one certifier on fixed conftest models and windows."""
    prim = BasisState(1, ())
    if name == "virasoro_bound":
        return [certify_virasoro_bound(ising8, ising8.nu, 3, 5)]
    if name == "v1_bound":
        return [certify_v1_bound(heis8, current(heis8), 3, 5),
                certify_v1_bound(lat2_8, prim, 3, 5)]
    if name == "product_lemma":
        return [certify_product_lemma(heis8, heis8.basis.states(2)[0], 3, 5)]
    if name == "primary_bound":
        return [certify_primary_bound(lat4_8, prim, 3, 4)]
    if name == "pair_bound":
        return [certify_pair_bound(lat4_8, prim, current(lat4_8), 3, 4)]
    if name == "zero_mode_product":
        return [certify_zero_mode_product(lat4_8, current(lat4_8), 1, prim,
                                          4)]
    if name == "orbifold":
        x, average = orbifold_average(heis8, 1)
        return [average,
                certify_orbifold_chain(heis8, current(heis8), x, 0.5, 6)]
    assert name == "trace_domination"
    return [trace_domination_check(heis8, current(heis8), Q(1, 2), 8)]


# sha256 of the sorted-key JSON of every report's to_dict(): the byte-level
# guard of each certifier, pair_bound and zero_mode_product included, which
# no suite variant runs
CERTIFIER_DIGESTS = {
    "virasoro_bound":
        "3f90ff03d518cf09f2289dfd73ecca0f3651873a69abb4d8e734ba9e75a437a0",
    "v1_bound":
        "9ede0130524d5a4c041d19154b6b99a67399d17b36e5a1b212ee22d34b75bfb0",
    "product_lemma":
        "643d6a3e52eab2f30c5ae0dc4724edc5c605e7ca8fac463f44ac8a3e72d9c4fa",
    "primary_bound":
        "7392766286a1168f24741dc20fc9f0ca15e1b97aab035accba961a7be4dc04fd",
    "pair_bound":
        "d2d354d34eaec6ba56f19707d0c785bcfa094e7939e0710dec16a3a502200464",
    "zero_mode_product":
        "f4a2262de6f56f7882d07dd3707c076b4d155ebeaf603fb464a72be73219f010",
    "orbifold":
        "6dd096ea19faa8129e236c8fd8c14e91831918c145df8bc0729fa7ea5c66c975",
    "trace_domination":
        "5e91d4edf10acd4f2232108a5b3df695fd6921a6be8ce98f09f21450aa63c8c7",
}


@pytest.mark.parametrize("name", sorted(CERTIFIER_DIGESTS))
def test_certifier_reports_match_pinned_digest(name, heis8, ising8, lat2_8,
                                               lat4_8):
    reports = _certifier_reports(name, heis8, ising8, lat2_8, lat4_8)
    text = json.dumps([r.to_dict() for r in reports], sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == \
        CERTIFIER_DIGESTS[name]


def test_orbifold_average_on_an_empty_degree_is_zero_and_passes():
    # a Virasoro vacuum module has no state of degree 1
    x, report = orbifold_average(build_model(virasoro_spec("1/2", 6)), 1)
    assert x.is_zero() and report.notes["empty_degree"] is True
    assert report.passed and not report.cells


def test_a_growth_chain_step_below_alpha_squared_fails_the_witness():
    # alpha = (10, 99.995): K(0)^2 = 1e-4 exceeds D K(1) = 9.9995e-5 by
    # less than the absolute slack tol * max(1, K(0)^2), so the recursion
    # holds, yet alpha_1 lies below alpha_0^2 = 100
    verdict = bootstrap_analyze([0.01, 0.099995], 1e-3, 0.0, 1)
    assert verdict.kind == "growth_detected" and verdict.n_bar == 0
    assert verdict.alphas[1] < verdict.alphas[0] ** 2
    assert verdict.witness_ok is False


def test_the_majorizing_fit_of_one_point_is_that_point():
    assert bound_certifier._majorizing_fit([((3, 2), 0.5)]) == \
        (0.5, [0.0, 0.0])
