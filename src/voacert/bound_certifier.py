"""Inequality certification with explicit constants.

Each certifier sweeps a window of mode/filtration indices, evaluates the
left side spectrally and the right side from closed-form constants, and
reports per-cell margins.  Constants that the theory merely posits (the
growth data of an energy-bounded input) are measured on the window first
and recorded in the report, so every run exhibits its witnesses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import exactlinalg as xl
from .errors import TruncationError
from .graded_fock import Automorphism, BasisState, Model, StateVector
from .mode_engine import _vec_block, state_product
from .norm_lab import NormTable, _ortho_block, _sigma_max, graded_norm
from .scalars import ONE, Q, ZERO, rational
from .unitary_structure import family_of, star

DEFAULT_TOL = 1e-8


@dataclass
class BoundReport:
    """Window sweep of one inequality with its constants."""

    check: str
    model_desc: str
    state: str
    window: dict
    constants: dict
    cells: list = field(default_factory=list)  # {"m","n","lhs","rhs","margin"}
    tolerance: float = DEFAULT_TOL
    notes: dict = field(default_factory=dict)

    def add_cell(self, m, n, lhs, rhs):
        self.cells.append({"m": m, "n": n, "lhs": float(lhs),
                           "rhs": float(rhs),
                           "margin": float(rhs) - float(lhs)})

    @property
    def passed(self) -> bool:
        for cell in self.cells:
            if not all(math.isfinite(cell[k])
                       for k in ("lhs", "rhs", "margin")):
                return False
            if cell["margin"] < -self.tolerance * max(1.0, cell["rhs"]):
                return False
        return all(self.notes.get(k, True) is not False for k in self.notes)

    def worst_cell(self):
        if not self.cells:
            return None
        return min(self.cells, key=lambda c: c["margin"])

    def to_dict(self) -> dict:
        return {
            "check": self.check,
            "model": self.model_desc,
            "state": self.state,
            "window": self.window,
            "constants": {k: (float(v) if isinstance(v, float) or
                              hasattr(v, "denominator") else v)
                          for k, v in self.constants.items()},
            "cells": self.cells,
            "pass": self.passed,
            "tolerance": self.tolerance,
            "notes": {k: (v if isinstance(v, (bool, int, str)) else float(v))
                      for k, v in self.notes.items()},
        }


def _as_vector(a) -> StateVector:
    if isinstance(a, BasisState):
        return StateVector.basis(a)
    return a


# ---------------------------------------------------------------------------
# generator-level bounds


def _virasoro_central_charge(model: Model, a: StateVector):
    """Verify the Virasoro products of a and return its central charge."""
    two_a = state_product(model, a, 1, a)
    if two_a != a.copy().scale(Q(2)):
        raise ValueError("state does not satisfy a_(1)a = 2a")
    if not state_product(model, a, 2, a).is_zero():
        raise ValueError("state does not satisfy a_(2)a = 0")
    top = state_product(model, a, 3, a)
    coeff = top.terms.get(model.vacuum, ZERO)
    if top != StateVector.basis(model.vacuum, coeff):
        raise ValueError("a_(3)a is not a vacuum multiple")
    return 2 * coeff


def certify_virasoro_bound(model: Model, a, m_max: int, n_max: int,
                           tol: float = DEFAULT_TOL) -> BoundReport:
    """||a_m||_n <= (1 + sqrt(c~/3)) (1+|m|)^{3/2} (1+|n|) for a Virasoro
    vector a of central charge c~."""
    avec = _as_vector(a)
    ctilde = _virasoro_central_charge(model, avec)
    if ctilde <= 0:
        raise ValueError("central charge must be positive")
    const = 1.0 + math.sqrt(float(ctilde) / 3.0)
    report = BoundReport(
        "virasoro_bound", model.spec.describe(), repr(a),
        {"m_max": m_max, "n_max": n_max},
        {"r": const, "central_charge": float(ctilde)}, tolerance=tol)
    for m in range(-m_max, m_max + 1):
        for n in range(n_max + 1):
            lhs = graded_norm(model, avec, m, n)
            rhs = const * (1 + abs(m)) ** 1.5 * (1 + n)
            report.add_cell(m, n, lhs, rhs)
    return report


def certify_v1_bound(model: Model, a, m_max: int, n_max: int,
                     tol: float = DEFAULT_TOL) -> BoundReport:
    """||a_m||_n <= 2^{3/2} ||a|| (1+|m|)^{1/2} (1+|n|)^{1/2} for degree-1
    states."""
    avec = _as_vector(a)
    fam = family_of(model)
    if not avec.is_zero() and model.degree_of(avec) != 1:
        raise ValueError("bound applies to degree-1 states")
    norm_a = math.sqrt(float(fam.pairing(avec, avec)))
    report = BoundReport(
        "v1_bound", model.spec.describe(), repr(a),
        {"m_max": m_max, "n_max": n_max},
        {"state_norm": norm_a, "prefactor": 2 ** 1.5 * norm_a},
        tolerance=tol)
    for m in range(-m_max, m_max + 1):
        for n in range(n_max + 1):
            lhs = graded_norm(model, avec, m, n)
            rhs = 2 ** 1.5 * norm_a * math.sqrt((1 + abs(m)) * (1 + n))
            report.add_cell(m, n, lhs, rhs)
    return report


# ---------------------------------------------------------------------------
# product lemma and its descendants


def _square_completion(model: Model, a: StateVector) -> StateVector:
    """The composite a_{-d} a* = a_{(-1)} a*, a positive zero-mode source."""
    conj = star(model, a)
    return state_product(model, a, -1, conj)


def certify_product_lemma(model: Model, a, m_max: int, n_max: int,
                          tol: float = DEFAULT_TOL,
                          sample_degree: int = 3) -> BoundReport:
    """||a_m||_n^2 <= ||(a_{-d}a*)_0||_n for m >= 0.

    Also verifies the underlying vector inequality
    ||a_m b||^2 <= (b | (a_{-d}a*)_0 b) exactly on all basis states b of
    degree <= sample_degree.
    """
    avec = _as_vector(a)
    fam = family_of(model)
    x = _square_completion(model, avec)
    report = BoundReport(
        "product_lemma", model.spec.describe(), repr(a),
        {"m_max": m_max, "n_max": n_max, "sample_degree": sample_degree},
        {"completion_degree": max((model.basis.degree_of(st)
                                   for st in x.terms), default=0)},
        tolerance=tol)
    for m in range(0, m_max + 1):
        for n in range(n_max + 1):
            lhs = graded_norm(model, avec, m, n) ** 2
            rhs = graded_norm(model, x, 0, n)
            report.add_cell(m, n, lhs, rhs)
    # exact vector-level inequality on sampled b
    exact_ok = True
    da = model.degree_of(avec) if not avec.is_zero() else 0
    for deg in range(min(sample_degree, model.N) + 1):
        for b in model.basis.states(deg):
            bvec = StateVector.basis(b)
            rhs = fam.pairing(bvec, _apply_zero_mode(model, x, bvec, deg))
            for m in range(0, m_max + 1):
                if deg - m < 0:
                    continue
                img = _apply_mode(model, avec, m, bvec, deg)
                lhs = fam.pairing(img, img)
                if lhs > rhs:
                    exact_ok = False
                    report.notes["exact_violation"] = (
                        f"b={b!r} m={m} excess={float(lhs - rhs)}")
    report.notes["vector_level_exact"] = exact_ok
    return report


def _apply_mode(model: Model, avec: StateVector, m: int, bvec: StateVector,
                deg: int) -> StateVector:
    blk = _vec_block(model, avec, m, deg)
    image = xl.mat_vec(blk, model.coords(bvec, deg))
    return model.from_coords(deg - m, image)


def _apply_zero_mode(model, x, bvec, deg):
    if x.is_zero():
        return StateVector()
    return _apply_mode(model, x, 0, bvec, deg)


def _primary_constant(model: Model, a: StateVector) -> float:
    """A = 2(1 + sqrt(c/3))/(d-1) + 1/2 for a primary of degree d != 1."""
    d = model.degree_of(a)
    if d == 1:
        raise ValueError("degree-1 states are excluded (no such constant)")
    if d == 0:
        return 0.5
    return 2.0 * (1.0 + math.sqrt(float(model.c) / 3.0)) / (d - 1) + 0.5


def _check_primary(model: Model, a: StateVector):
    """L_1 a = L_2 a = 0; these generate all positive Virasoro modes."""
    for k, round_idx in ((1, 2), (2, 3)):
        if not state_product(model, model.nu, round_idx, a).is_zero():
            raise ValueError(f"state is not primary: L_{k} a != 0")


def certify_primary_bound(model: Model, a, m_max: int, n_max: int,
                          tol: float = DEFAULT_TOL) -> BoundReport:
    """||a_m||_n <= A sqrt(1+|m|) (1+|n|) (||a_0||_n + ||a_0||_{n-m})."""
    avec = _as_vector(a)
    _check_primary(model, avec)
    const_a = _primary_constant(model, avec)
    d = model.degree_of(avec)
    report = BoundReport(
        "primary_bound", model.spec.describe(), repr(a),
        {"m_max": m_max, "n_max": n_max},
        {"A": const_a, "degree": d, "central_charge": float(model.c)},
        tolerance=tol)
    zero_norms = {}

    def a0(n):
        if n < 0:
            return 0.0
        if n not in zero_norms:
            zero_norms[n] = graded_norm(model, avec, 0, n)
        return zero_norms[n]

    for m in range(-m_max, m_max + 1):
        for n in range(n_max + 1):
            lhs = graded_norm(model, avec, m, n)
            rhs = const_a * math.sqrt(1 + abs(m)) * (1 + n) * \
                (a0(n) + a0(n - m))
            report.add_cell(m, n, lhs, rhs)
    return report


def fit_exponents(table: NormTable):
    """(C, s, t) with ||a_m||_n <= C (1+|m|)^t (1+|n|)^s on every cell.

    Least-squares in log coordinates, then C inflated to majorize the
    table, so the output is a certificate on the window.
    """
    cells = [(m, n, v) for m, n, v in table.cells() if v > 0]
    if not cells:
        raise ValueError("table has no positive cells")
    if len(cells) == 1:
        return cells[0][2], 0.0, 0.0
    rows = np.array([[1.0, math.log(1 + abs(m)), math.log(1 + n)]
                     for m, n, _ in cells])
    vals = np.array([math.log(v) for _, _, v in cells])
    coeffs, *_ = np.linalg.lstsq(rows, vals, rcond=None)
    t, s = float(coeffs[1]), float(coeffs[2])
    t, s = max(t, 0.0), max(s, 0.0)
    c = max(v / ((1 + abs(m)) ** t * (1 + n) ** s) for m, n, v in cells)
    return c, s, t


def _measure_growth(model: Model, b, m_max: int, n_max: int):
    """Single-exponent witness (K, q) with ||b_m||_n <= K(1+|m|)^q(1+|n|)^q."""
    from .norm_lab import norm_table

    ms = [m for m in range(-m_max, m_max + 1)]
    table = norm_table(model, b, ms, n_max)
    c, s, t = fit_exponents(table)
    q = max(s, t)
    k = max((v / ((1 + abs(m)) ** q * (1 + n) ** q)
             for m, n, v in table.cells() if v > 0), default=0.0)
    return max(c, k), q


def _composite_pair_norm(model: Model, avec, bvec, m: int, n: int) -> float:
    """||a_{-m} b_m||_n: degree-preserving composite, per-degree spectral."""
    if n > model.N:
        raise TruncationError(n, model.N, "pair composite")
    best = 0.0
    for s in range(n + 1):
        mid = s - m
        if mid < 0:
            continue
        inner = _vec_block(model, bvec, m, s)
        outer = _vec_block(model, avec, -m, mid)
        comp = xl.compose(outer, inner, model.dim(s), model.dim(s))
        val = _sigma_max(_ortho_block(model, comp, s, s))
        if val > best:
            best = val
    return best


def certify_pair_bound(model: Model, a, b, m_max: int, n_max: int,
                       tol: float = DEFAULT_TOL) -> BoundReport:
    """||a_{-m} b_m||_n <= B (1+|m|)^t (1+|n|)^t (||a_0||_n + ||a_0||_{n-m})

    with B = A K and t = q + 3/2, where (K, q) is the measured growth of b
    and A is the primary-bound constant of a.
    """
    avec, bvec = _as_vector(a), _as_vector(b)
    _check_primary(model, avec)
    const_a = _primary_constant(model, avec)
    k_const, q_exp = _measure_growth(model, bvec, m_max, n_max)
    b_const = const_a * k_const
    t_exp = q_exp + 1.5
    report = BoundReport(
        "pair_bound", model.spec.describe(), f"{a!r} with {b!r}",
        {"m_max": m_max, "n_max": n_max},
        {"A": const_a, "K": k_const, "q": q_exp, "B": b_const, "t": t_exp},
        tolerance=tol)
    zero_norms = {}

    def a0(n):
        if n < 0:
            return 0.0
        if n not in zero_norms:
            zero_norms[n] = graded_norm(model, avec, 0, n)
        return zero_norms[n]

    for m in range(0, m_max + 1):
        for n in range(n_max + 1):
            lhs = _composite_pair_norm(model, avec, bvec, m, n)
            rhs = b_const * ((1 + m) * (1 + n)) ** t_exp * \
                (a0(n) + a0(n - m))
            report.add_cell(m, n, lhs, rhs)
    return report


def certify_zero_mode_product(model: Model, b, p: int, a, n_max: int,
                              tol: float = DEFAULT_TOL) -> BoundReport:
    """||(b_{-p}a)_0||_n <= C (1+|n|)^r ||a_0||_{n+d} for p >= 0.

    The constants are assembled along the proof chain from the measured
    growth (K, q) of b: B = A K, t = q + 3/2,
    C = (2KA + 2B)(p + 2d + 1)^{d+p+2}, r = 2q + 2t + 3/2 + d + p + 2.
    """
    if p < 0:
        raise ValueError("p must be nonnegative")
    avec, bvec = _as_vector(a), _as_vector(b)
    _check_primary(model, avec)
    const_a = _primary_constant(model, avec)
    d = model.degree_of(bvec)
    da = model.degree_of(avec)
    if da + p > model.N:
        raise TruncationError(da + p, model.N, "zero-mode composite degree")
    k_const, q_exp = _measure_growth(model, bvec, max(2, p), n_max)
    b_const = const_a * k_const
    t_exp = q_exp + 1.5
    c_const = (2 * k_const * const_a + 2 * b_const) * \
        (p + 2 * d + 1) ** (d + p + 2)
    r_exp = 2 * q_exp + 2 * t_exp + 1.5 + d + p + 2
    y = state_product(model, bvec, -p + d - 1, avec)  # b_{-p} a, plain
    report = BoundReport(
        "zero_mode_product", model.spec.describe(), f"{b!r}_-{p} {a!r}",
        {"p": p, "n_max": n_max},
        {"A": const_a, "K": k_const, "q": q_exp, "B": b_const, "t": t_exp,
         "C": c_const, "r": r_exp, "d": d},
        tolerance=tol)
    for n in range(n_max + 1):
        lhs = graded_norm(model, y, 0, n)
        rhs = c_const * (1 + n) ** r_exp * graded_norm(model, avec, 0, n + d)
        report.add_cell(0, n, lhs, rhs)
    return report


# ---------------------------------------------------------------------------
# orbifold machinery


def orbifold_average(model: Model, d: int, aut_sample=()):
    """x = sum_i a^i_{-d} (a^i)* over an orthonormal basis of V_d.

    Computed basis-free as sum_{kl} (G_d^{-1})_{kl} e^k_{(-1)} (e^l)*, which
    makes exact invariance and basis-independence checkable in rational
    arithmetic.  Returns (x, report).
    """
    if 2 * d > model.N:
        raise TruncationError(2 * d, model.N, "orbifold average degree")
    fam = family_of(model)
    states = model.basis.states(d)
    report = BoundReport(
        "orbifold_average", model.spec.describe(), f"degree {d}",
        {"degree": d}, {"dim": len(states)})
    if not states:
        report.notes["empty_degree"] = True
        return StateVector(), report
    ginv = fam.inverse(d)
    stars = [star(model, StateVector.basis(e), fam) for e in states]
    x = StateVector()
    for k, ek in enumerate(states):
        for l, _ in enumerate(states):
            w = ginv[k][l]
            if not w:
                continue
            x = x + state_product(model, ek, -1, stars[l]).scale(w)
    # invariance under each sampled automorphism, exact
    for idx, aut in enumerate(aut_sample):
        image = aut.apply_exact(x)
        ok = image is not None and image == x
        report.notes[f"invariant_{aut.kind}_{idx}"] = bool(ok)
    # basis independence: recompute in a sheared basis
    shear = xl.identity(len(states))
    for i in range(len(states) - 1):
        shear[i][i + 1] = ONE
    gp = xl.mat_mul(xl.transpose(shear), xl.mat_mul(fam.matrix(d), shear))
    gpinv = xl.inverse(gp)
    new_states = []
    for j in range(len(states)):
        vec = StateVector()
        for i in range(len(states)):
            vec.add_term(states[i], shear[i][j])
        new_states.append(vec)
    x2 = StateVector()
    for k in range(len(states)):
        for l in range(len(states)):
            w = gpinv[k][l]
            if not w:
                continue
            x2 = x2 + state_product(
                model, new_states[k], -1,
                star(model, new_states[l], fam)).scale(w)
    report.notes["basis_independent"] = bool(x2 == x)
    return x, report


def _weighted_zero_norm(model: Model, vec: StateVector, weight, n: int):
    """max over degrees k <= n of ||block_k(vec_0)|| * weight(k)."""
    best = 0.0
    for k in range(n + 1):
        blk = _vec_block(model, vec, 0, k)
        val = _sigma_max(_ortho_block(model, blk, k, k)) * weight(k)
        if val > best:
            best = val
    return best


def certify_orbifold_chain(model: Model, a, x: StateVector, s, n_max: int,
                           tol: float = DEFAULT_TOL) -> BoundReport:
    """||a_0 (L_0+1)^{-s}||_n^2 <= ||a||^2 ||x_0 (L_0+1)^{-2s}||_n."""
    avec = _as_vector(a)
    fam = family_of(model)
    sf = float(s)
    if sf < 0:
        raise ValueError("damping exponent must be nonnegative")
    norm_sq = float(fam.pairing(avec, avec))
    report = BoundReport(
        "orbifold_chain", model.spec.describe(), repr(a),
        {"s": sf, "n_max": n_max}, {"state_norm_sq": norm_sq},
        tolerance=tol)
    for n in range(n_max + 1):
        lhs = _weighted_zero_norm(model, avec,
                                  lambda k: (k + 1) ** (-sf), n) ** 2
        rhs = norm_sq * _weighted_zero_norm(
            model, x, lambda k: (k + 1) ** (-2 * sf), n)
        report.add_cell(0, n, lhs, rhs)
    return report


def trace_domination_check(model: Model, a, q, n_max: int,
                           tol: float = DEFAULT_TOL) -> BoundReport:
    """||a_0 q^{L_0}||_n^2 <= Tr(q^{L_0} a_0^† a_0 q^{L_0})
                           <= Tr((a_{-d}a*)_0 q^{2L_0}) on V_{<=n}.

    Both traces are exact rationals for rational q; only the operator norm
    on the far left is spectral.
    """
    qr = rational(q)
    if not (0 < qr < 1):
        raise ValueError("damping must lie strictly between 0 and 1")
    avec = _as_vector(a)
    fam = family_of(model)
    x = _square_completion(model, avec)
    report = BoundReport(
        "trace_domination", model.spec.describe(), repr(a),
        {"q": float(qr), "n_max": n_max}, {}, tolerance=tol)
    partials = []
    for n in range(n_max + 1):
        # left: spectral damped norm squared
        lhs = _weighted_zero_norm(model, avec,
                                  lambda k: float(qr) ** k, n) ** 2
        mid = ZERO   # Tr q^{L_0} a_0^dag a_0 q^{L_0}
        right = ZERO  # Tr (a_{-d}a*)_0 q^{2L_0}
        for k in range(n + 1):
            if model.dim(k) == 0:
                continue
            wk = qr ** (2 * k)
            blk = _vec_block(model, avec, 0, k)
            adj = xl.mat_mul(fam.inverse(k),
                             xl.mat_mul(xl.transpose(blk), fam.matrix(k)))
            mid += wk * xl.trace(xl.mat_mul(adj, blk))
            if not x.is_zero():
                right += wk * xl.trace(_vec_block(model, x, 0, k))
        report.add_cell(0, n, lhs, float(mid))
        report.add_cell(1, n, float(mid), float(right))
        partials.append(float(right))
    report.notes["partial_traces"] = ",".join(
        format(v, ".6g") for v in partials)
    return report


# ---------------------------------------------------------------------------
# bootstrap recursion


@dataclass
class BootstrapVerdict:
    kind: str             # "certified" | "growth_detected" | "inconclusive"
    constant: float = 0.0
    exponent: float = 0.0
    n_bar: int = -1
    failing_cell: int = -1
    alphas: list = field(default_factory=list)
    witness_ok: bool = True

    def to_dict(self):
        return {"kind": self.kind, "constant": self.constant,
                "exponent": self.exponent, "n_bar": self.n_bar,
                "failing_cell": self.failing_cell,
                "alphas": [format(v, ".12g") for v in self.alphas],
                "witness_ok": self.witness_ok}


def bootstrap_analyze(kseq, d_const, s, d: int,
                      tol: float = DEFAULT_TOL) -> BootstrapVerdict:
    """Classify a measured zero-mode growth sequence.

    kseq[n] >= 0; the recursion K(n)^2 <= D(n+1)^s K(n+d) forces the
    normalized alpha_n = K(n)/(D(1+d)^s(1+n)^s) to satisfy
    alpha_n^2 <= alpha_{n+d}: either every alpha_n <= 1 (polynomial bound,
    certified) or the doubling chain blows up (growth detected).
    """
    kseq = [float(v) for v in kseq]
    if any(not math.isfinite(v) or v < 0 for v in kseq) or d_const <= 0 \
            or s < 0 or d < 1:
        raise ValueError("malformed bootstrap inputs")
    scale = float(d_const) * (1 + d) ** float(s)
    alphas = [k / (scale * (1 + n) ** float(s))
              for n, k in enumerate(kseq)]
    verdict = BootstrapVerdict("inconclusive", alphas=alphas)
    # growth first: a single alpha > 1 dooms the chain wherever the
    # recursion holds, even if the recursion later fails in-window
    for n, alpha in enumerate(alphas):
        if alpha > 1 + tol:
            verdict.kind = "growth_detected"
            verdict.n_bar = n
            ok = True
            m = 1
            while n + m * d < len(alphas):
                lo = alphas[n + (m - 1) * d] ** 2
                if alphas[n + m * d] < lo * (1 - tol) and _recursion_holds(
                        kseq, d_const, s, d, n + (m - 1) * d, tol):
                    ok = False
                m += 1
            verdict.witness_ok = ok
            return verdict
    for n in range(len(kseq) - d):
        if kseq[n] ** 2 > d_const * (n + 1) ** float(s) * kseq[n + d] + \
                tol * max(1.0, kseq[n] ** 2):
            verdict.failing_cell = n
            return verdict
    verdict.kind = "certified"
    verdict.constant = scale
    verdict.exponent = float(s)
    return verdict


def _recursion_holds(kseq, d_const, s, d, n, tol):
    if n + d >= len(kseq):
        return False
    return kseq[n] ** 2 <= d_const * (n + 1) ** float(s) * kseq[n + d] + \
        tol * max(1.0, kseq[n] ** 2)


def fit_recursion(kseq, d: int):
    """(D, s) with K(n)^2 <= D(n+1)^s K(n+d) on the window.

    Log-fit of the ratio K(n)^2/K(n+d) against log(n+1), with D inflated to
    majorize every cell, so the recursion holds by construction wherever
    K(n+d) > 0.
    """
    cells = [(n, kseq[n] ** 2 / kseq[n + d])
             for n in range(len(kseq) - d)
             if kseq[n] > 0 and kseq[n + d] > 0]
    if not cells:
        return 1.0, 0.0
    if len(cells) == 1:
        return cells[0][1], 0.0
    rows = np.array([[1.0, math.log(n + 1)] for n, _ in cells])
    vals = np.array([math.log(r) for _, r in cells])
    coeffs, *_ = np.linalg.lstsq(rows, vals, rcond=None)
    s = max(float(coeffs[1]), 0.0)
    d_const = max(r / (n + 1) ** s for n, r in cells)
    return d_const, s


def measure_sector_growth(model: Model, n_max: int):
    """K(n) = max over charge sectors k != 0 of ||top^k_0||_n.

    The sector tops of a lattice model over its charge-zero subalgebra play
    the role of the module generators in the zero-mode recursion.
    """
    if model.spec.kind != "lattice":
        raise ValueError("sector growth defined for lattice models")
    tops = [BasisState(st.sector, ())
            for d in range(model.N + 1)
            for st in model.basis.states(d)
            if not st.factors and st.sector != 0]
    kseq = []
    for n in range(n_max + 1):
        best = 0.0
        for top in tops:
            val = graded_norm(model, top, 0, n)
            if val > best:
                best = val
        kseq.append(best)
    return kseq
