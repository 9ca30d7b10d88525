import pytest

from voacert.bound_certifier import (BoundReport, bootstrap_analyze,
                                     certify_orbifold_chain,
                                     certify_pair_bound,
                                     certify_product_lemma,
                                     certify_v1_bound,
                                     certify_virasoro_bound,
                                     certify_zero_mode_product,
                                     fit_exponents, fit_recursion,
                                     measure_sector_growth,
                                     orbifold_average,
                                     trace_domination_check)
from voacert.graded_fock import Automorphism, StateVector
from voacert.mode_engine import state_product
from voacert.norm_lab import norm_table


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


def test_pair_bound(lat4_8):
    # a degree-2 primary (unit-charge top) paired with the current
    from voacert.graded_fock import BasisState

    prim = BasisState(1, ())
    report = certify_pair_bound(lat4_8, prim, current(lat4_8), 3, 4)
    assert report.passed
    assert report.constants["t"] == report.constants["q"] + 1.5


def test_zero_mode_product(lat4_8):
    from voacert.graded_fock import BasisState

    prim = BasisState(1, ())
    report = certify_zero_mode_product(lat4_8, current(lat4_8), 1, prim, 4)
    assert report.passed
    assert report.constants["r"] > 0


def test_orbifold_average_is_the_current_square(heis8):
    auts = [Automorphism(heis8, "charge_conjugation")]
    x, report = orbifold_average(heis8, 1, auts)
    a = current(heis8)
    expect = state_product(heis8, a, -1, StateVector.basis(a))
    assert x == expect
    assert report.passed
    assert report.notes["basis_independent"] is True
    assert report.notes["invariant_charge_conjugation_0"] is True


def test_orbifold_chain(heis8):
    x, _ = orbifold_average(heis8, 1, ())
    for s in (0.5, 1.0):
        report = certify_orbifold_chain(heis8, current(heis8), x, s, 6)
        assert report.passed


def test_trace_domination(heis8):
    for q in ("1/4", "1/2"):
        from voacert.scalars import rat_from_str

        report = trace_domination_check(heis8, current(heis8),
                                        rat_from_str(q), 8)
        assert report.passed
        assert report.notes["partial_traces"]


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
    assert report.worst_cell()["margin"] == pytest.approx(-1.0)


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


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_bootstrap_rejects_non_finite_growth_data(bad):
    with pytest.raises(ValueError):
        bootstrap_analyze([1.0, bad, 1.0, 1.0], 2, 1, 1)
