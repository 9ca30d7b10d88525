"""End-to-end acceptance gate.

Each test prints one summary line so a full run reads as a seven-line
scorecard.  The heavy models are module-scoped; everything else reuses the
session fixtures.
"""

import math
import time

import pytest

from voacert import exactlinalg as xl
from voacert.bound_certifier import (bootstrap_analyze,
                                     certify_orbifold_chain,
                                     certify_primary_bound,
                                     certify_product_lemma,
                                     certify_v1_bound,
                                     certify_virasoro_bound, fit_recursion,
                                     measure_sector_growth, orbifold_average,
                                     trace_domination_check)
from voacert.errors import TruncationError
from voacert.graded_fock import (Automorphism, BasisState, StateVector,
                                 build_model, canonical_factors,
                                 heisenberg_spec, lattice_spec,
                                 virasoro_spec)
from voacert.mode_engine import (commutator_residual, sample_residuals,
                                 state_product, translation_residual)
from voacert.norm_lab import cstar_gap, graded_norm, norm_table
from voacert.scalars import Q, rat_from_str
from voacert.unitary_structure import family_of, star

REL = 1e-9


def report(capsys, number, label, ok):
    with capsys.disabled():
        print(f"\n[criterion {number}] {label}: {'PASS' if ok else 'FAIL'}")
    assert ok


def current(model):
    return model.basis.states(1)[0]


# -- heavy models, built once per module ------------------------------------


@pytest.fixture(scope="module")
def vir16_half():
    return build_model(virasoro_spec("1/2", 16), pad=1)


@pytest.fixture(scope="module")
def vir16_one():
    return build_model(virasoro_spec(1, 16), pad=1)


@pytest.fixture(scope="module")
def heis14():
    return build_model(heisenberg_spec(1, 14))


@pytest.fixture(scope="module")
def lat2_14():
    return build_model(lattice_spec(2, 14))


@pytest.fixture(scope="module")
def lat4_12():
    return build_model(lattice_spec(4, 12))


# -- 1: exact axiom suite ----------------------------------------------------


def test_criterion_1_axioms(capsys, heis8, ising8, c1_8, lat2_6):
    start = time.monotonic()
    ok = True
    for model in (heis8, ising8, c1_8, lat2_6):
        for identity in ("borcherds", "skewsymmetry", "commutator",
                         "translation"):
            checked, failures = sample_residuals(model, identity, 500,
                                                 seed=0)
            ok = ok and checked == 500 and not failures
    elapsed = time.monotonic() - start
    ok = ok and elapsed <= 120.0
    report(capsys, 1, f"axiom residuals exactly zero "
                      f"(4 models x 4 identities x 500 samples, "
                      f"{elapsed:.1f}s)", ok)


# -- 2: unitarity ------------------------------------------------------------


def test_criterion_2_unitarity(capsys, heis8, ising8, c1_8, lat2_6):
    ok = True
    for model in (heis8, ising8, c1_8, lat2_6):
        fam = family_of(model)
        for d in range(model.N + 1):
            g = fam.matrix(d)
            ok = ok and xl.transpose(g) == g
            ok = ok and fam.positive_definite(d)
            ok = ok and fam.radical(d) == []
        # degree-block: cross-degree pairings vanish identically
        ok = ok and fam.pair_states(model.vacuum,
                                    model.basis.states(2)[0]) == 0
        ok = ok and fam.pairing(model.nu, model.nu) == model.c / 2
    fam = family_of(heis8)
    ok = ok and fam.matrix(2) == [[Q(2), Q(0)], [Q(0), Q(2)]]
    report(capsys, 2, "invariant form symmetric, positive definite, "
                      "G_2 = diag(2,2), (nu|nu) = c/2", ok)


# -- 3: norm oracles ---------------------------------------------------------


def test_criterion_3_norm_oracles(capsys, heis12, ising8, lat2_8):
    ok = True
    a = current(heis12)
    for n in range(11):
        ok = ok and graded_norm(heis12, a, -1, n) == pytest.approx(
            math.sqrt(n + 1), rel=REL)
        ok = ok and graded_norm(heis12, a, 1, n) == pytest.approx(
            math.sqrt(n), rel=REL, abs=1e-12)
        ok = ok and graded_norm(heis12, heis12.nu, 0, n) == pytest.approx(
            float(n), rel=REL, abs=1e-12)
    tables = [
        (heis12, a, range(-3, 4), 8),
        (ising8, ising8.nu, range(-2, 3), 6),
        (lat2_8, StateVector.basis(BasisState(1, ())), range(-2, 3), 6),
    ]
    for model, state, ms, n_max in tables:
        fam = family_of(model)
        conj = star(model, state, fam)
        table = norm_table(model, state, ms, n_max)
        for m, n, v in table.cells():
            if n - m < 0 or n - m > model.N:
                continue
            shifted = graded_norm(model, conj, -m, n - m)
            ok = ok and v == pytest.approx(shifted, rel=REL, abs=1e-9)
        for m in ms:
            try:
                ok = ok and cstar_gap(model, state, m, n_max) <= \
                    REL * max(1.0, graded_norm(model, state, m, n_max) ** 2)
            except TruncationError:
                continue
    report(capsys, 3, "creation/annihilation/L_0 norms, C*-identity, "
                      "shift identity on shipped tables", ok)


# -- 4: explicit-constant bound certification --------------------------------


def test_criterion_4_bounds(capsys, heis8, ising8, lat2_8, heis14, lat2_14,
                            vir16_half, vir16_one, lat4_12):
    start = time.monotonic()
    ok = True
    for model in (vir16_half, vir16_one):
        ok = ok and certify_virasoro_bound(model, model.nu, 6, 10).passed

    currents = [(heis14, [StateVector.basis(current(heis14))])]
    ep = StateVector.basis(BasisState(1, ()))
    em = StateVector.basis(BasisState(-1, ()))
    # by label: basis position 0 at degree 1 of a lattice model is e(-1)
    lattice_current = StateVector.basis(BasisState(0, ((0, -1),)))
    currents.append((lat2_14, [lattice_current, ep, em, ep + em]))
    for model, states in currents:
        for state in states:
            ok = ok and certify_v1_bound(model, state, 6, 8).passed

    for model in (heis8, ising8, lat2_8):
        for deg in (1, 2):
            for st in model.basis.states(deg):
                rep = certify_product_lemma(model, st, 4, 8)
                ok = ok and rep.passed
                ok = ok and rep.notes["vector_level_exact"] is True

    rep = certify_primary_bound(lat4_12, BasisState(1, ()), 4, 8)
    ok = ok and rep.passed
    elapsed = time.monotonic() - start
    ok = ok and elapsed <= 300.0
    report(capsys, 4, f"virasoro/v1/product/primary bounds with explicit "
                      f"constants ({elapsed:.1f}s)", ok)


# -- 5: orbifold, trace, bootstrap mechanisms --------------------------------


def test_criterion_5_mechanisms(capsys, heis12):
    ok = True
    auts = [Automorphism(heis12, "charge_conjugation")]
    x, avg = orbifold_average(heis12, 1, auts)
    square = StateVector.basis(
        BasisState(0, canonical_factors(((0, -1), (0, -1)))))
    ok = ok and x == square and avg.passed
    for s in ("1/2", "1"):
        chain = certify_orbifold_chain(heis12, current(heis12), x,
                                       float(rat_from_str(s)), 10)
        ok = ok and chain.passed
    for q in ("1/4", "1/2"):
        trace = trace_domination_check(heis12, current(heis12),
                                       rat_from_str(q), 12)
        ok = ok and trace.passed

    lat = build_model(lattice_spec(2, 10))
    kseq = measure_sector_growth(lat, 10)
    d_const, s_exp = fit_recursion(kseq, 1)
    verdict = bootstrap_analyze(kseq, d_const, s_exp, 1)
    ok = ok and verdict.kind == "certified"
    synthetic = bootstrap_analyze([float(2 ** n) for n in range(10)],
                                  1.0, 0.0, 1)
    ok = ok and synthetic.kind == "growth_detected" and synthetic.witness_ok
    report(capsys, 5, "orbifold average + damped chain, trace domination, "
                      "bootstrap verdicts", ok)


# -- 6: mutation sensitivity -------------------------------------------------


def _mutation_detected(bad):
    a = current(bad)
    for p in range(-3, 4):
        for q in range(-3, 4):
            try:
                if not commutator_residual(bad, a, p, a, q).is_zero:
                    return True
            except TruncationError:
                continue
    for n in range(-3, 4):
        try:
            if not translation_residual(bad, a, n).is_zero:
                return True
        except TruncationError:
            continue
    _, failures = sample_residuals(bad, "borcherds", 80, seed=0)
    return bool(failures)


def test_criterion_6_mutation_sensitivity(capsys, tmp_path):
    clean = build_model(heisenberg_spec(1, 3))
    missed = []
    for src in range(4):
        for tgt in range(4):
            m = src - tgt
            for row in range(clean.dim(tgt)):
                for col in range(clean.dim(src)):
                    bad = build_model(heisenberg_spec(1, 3),
                                      corrupt=(0, m, src, row, col, 1))
                    if not _mutation_detected(bad):
                        missed.append((m, src, row, col))
    ok = not missed

    config = tmp_path / "suite.cfg"
    config.write_text(
        "model.h.kind = heisenberg\n"
        "model.h.N = 6\n"
        "model.h.corrupt = 0,-1,2,0,0,1\n"
        "check.ax.type = axioms\n"
        "check.ax.model = h\n"
        "check.ax.samples = 50\n")
    from voacert.cli import EXIT_VIOLATION, main

    code = main(["suite", "--config", str(config),
                 "--out", str(tmp_path / "rep")])
    ok = ok and code == EXIT_VIOLATION
    report(capsys, 6, "every single structure-constant perturbation is "
                      "detected and fails the suite (exit 1)"
                      + (f"; missed {missed}" if missed else ""), ok)


# -- 7: determinism ----------------------------------------------------------


def test_criterion_7_determinism(capsys, tmp_path):
    from voacert.cli import run_suite
    from voacert.config import parse_config

    config = parse_config(
        "model.h.kind = heisenberg\n"
        "model.h.N = 6\n"
        "model.v.kind = virasoro\n"
        "model.v.c = 1/2\n"
        "model.v.N = 8\n"
        "check.ax.type = axioms\n"
        "check.ax.model = h\n"
        "check.ax.samples = 40\n"
        "check.un.type = unitarity\n"
        "check.un.model = h\n"
        "check.nm.type = norms\n"
        "check.nm.model = h\n"
        "check.nm.state = basis:1:0\n"
        "check.nm.m_max = 2\n"
        "check.nm.n_max = 4\n"
        "check.vb.type = virasoro_bound\n"
        "check.vb.model = v\n"
        "check.vb.m_max = 2\n"
        "check.vb.n_max = 4\n")
    run_suite(config, str(tmp_path / "a"), jobs=1)
    run_suite(config, str(tmp_path / "b"), jobs=1)
    blob_a = (tmp_path / "a" / "suite.json").read_bytes()
    blob_b = (tmp_path / "b" / "suite.json").read_bytes()
    report(capsys, 7, "consecutive suite runs byte-identical",
           blob_a == blob_b)
