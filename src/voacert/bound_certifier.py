"""Inequality certification with explicit constants.

Each certifier sweeps a window of mode/filtration indices with one call of
`BoundReport.sweep`, which evaluates the left side spectrally and the right
side from closed-form constants cell by cell and records per-cell margins.
`trace_domination_check` alone appends its own cells, because its two
rows (0, n) and (1, n) alternate in n.  Constants that the theory merely
posits (the growth data of an energy-bounded input) are measured on the
window first and recorded in the report, so every run exhibits its
witnesses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import exactlinalg as xl
from .errors import TruncationError
from .graded_fock import Model, StateVector
from .mode_engine import (_as_vector, _nonempty, _nonzero, _vec_block,
                          apply_mode, state_product)
from .norm_lab import NormTable, damped_norm, graded_norm, norm_table
from .scalars import Q, ZERO, rational
from .unitary_structure import family_of, star

DEFAULT_TOL = 1e-8
_SAMPLE_DEGREE = 3  # of the product lemma's exact vector-level check


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

    def sweep(self, ms, n_max: int, lhs, rhs) -> BoundReport:
        """Add the cell (m, n, lhs(m, n), rhs(m, n)) for each m in ms and
        each n <= n_max, m outermost; returns the report.  An empty window
        is a ValueError: no report passes on zero cells."""
        _nonempty(ms, n_max)
        for m in ms:
            for n in range(n_max + 1):
                self.add_cell(m, n, lhs(m, n), rhs(m, n))
        return self

    @property
    def passed(self) -> bool:
        if not math.isfinite(self.tolerance):
            return False  # a nan tolerance would pass every cell
        for cell in self.cells:
            if not all(math.isfinite(cell[k])
                       for k in ("lhs", "rhs", "margin")):
                return False
            if cell["margin"] < -self.tolerance * max(1.0, cell["rhs"]):
                return False
        return all(self.notes.get(k, True) is not False for k in self.notes)

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


# ---------------------------------------------------------------------------
# generator-level bounds


def _virasoro_central_charge(model: Model, a: StateVector):
    """Verify the Virasoro products of a and return its central charge."""
    two_a = state_product(model, a, 1, a)
    if two_a != a.scale(2):
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
    avec = _nonzero(a)
    ctilde = _virasoro_central_charge(model, avec)
    if ctilde <= 0:
        raise ValueError("central charge must be positive")
    const = 1.0 + math.sqrt(float(ctilde) / 3.0)
    report = BoundReport(
        "virasoro_bound", model.spec.describe(), repr(a),
        {"m_max": m_max, "n_max": n_max},
        {"r": const, "central_charge": float(ctilde)}, tolerance=tol)
    return report.sweep(
        range(-m_max, m_max + 1), n_max,
        lambda m, n: graded_norm(model, avec, m, n),
        lambda m, n: const * (1 + abs(m)) ** 1.5 * (1 + n))


def certify_v1_bound(model: Model, a, m_max: int, n_max: int,
                     tol: float = DEFAULT_TOL) -> BoundReport:
    """||a_m||_n <= 2^{3/2} ||a|| (1+|m|)^{1/2} (1+|n|)^{1/2} for degree-1
    states."""
    avec = _nonzero(a)
    fam = family_of(model)
    if model.degree_of(avec) != 1:
        raise ValueError("bound applies to degree-1 states")
    norm_a = math.sqrt(float(fam.pairing(avec, avec)))
    report = BoundReport(
        "v1_bound", model.spec.describe(), repr(a),
        {"m_max": m_max, "n_max": n_max},
        {"state_norm": norm_a, "prefactor": 2 ** 1.5 * norm_a},
        tolerance=tol)
    return report.sweep(
        range(-m_max, m_max + 1), n_max,
        lambda m, n: graded_norm(model, avec, m, n),
        lambda m, n: 2 ** 1.5 * norm_a * math.sqrt((1 + abs(m)) * (1 + n)))


# ---------------------------------------------------------------------------
# product lemma and its descendants


def _square_completion(model: Model, a: StateVector) -> StateVector:
    """The composite a_{-d} a* = a_{(-1)} a*, a positive zero-mode source."""
    conj = star(model, a)
    return state_product(model, a, -1, conj)


def certify_product_lemma(model: Model, a, m_max: int, n_max: int,
                          tol: float = DEFAULT_TOL) -> BoundReport:
    """||a_m||_n^2 <= ||(a_{-d}a*)_0||_n for m >= 0.

    Also verifies the underlying vector inequality
    ||a_m b||^2 <= (b | (a_{-d}a*)_0 b) exactly on all basis states b of
    degree <= min(3, N).
    """
    avec = _nonzero(a)
    fam = family_of(model)
    x = _square_completion(model, avec)
    report = BoundReport(
        "product_lemma", model.spec.describe(), repr(a),
        {"m_max": m_max, "n_max": n_max, "sample_degree": _SAMPLE_DEGREE},
        {"completion_degree": max((model.basis.degree_of(st)
                                   for st in x.terms), default=0)},
        tolerance=tol)
    report.sweep(
        range(m_max + 1), n_max,
        lambda m, n: graded_norm(model, avec, m, n) ** 2,
        lambda m, n: graded_norm(model, x, 0, n))
    # exact vector-level inequality on sampled b
    exact_ok = True
    for deg in range(min(_SAMPLE_DEGREE, model.N) + 1):
        for b in model.basis.states(deg):
            bvec = StateVector.basis(b)
            rhs = fam.pairing(bvec, apply_mode(model, x, 0, bvec))
            for m in range(0, m_max + 1):
                if deg - m < 0:
                    continue
                img = apply_mode(model, avec, m, bvec)
                lhs = fam.pairing(img, img)
                if lhs > rhs:
                    exact_ok = False
                    report.notes["exact_violation"] = (
                        f"b={b!r} m={m} excess={float(lhs - rhs)}")
    report.notes["vector_level_exact"] = exact_ok
    return report


def _primary_constant(model: Model, a: StateVector) -> float:
    """A = 2(1 + sqrt(c/3))/(d-1) + 1/2 for a primary of degree d != 1.

    Raises ValueError for a zero state, and unless L_1 a = L_2 a = 0, which
    generate all positive Virasoro modes.
    """
    _nonzero(a)
    for k in (1, 2):
        if not state_product(model, model.nu, k + 1, a).is_zero():
            raise ValueError(f"state is not primary: L_{k} a != 0")
    d = model.degree_of(a)
    if d == 1:
        raise ValueError("degree-1 states are excluded (no such constant)")
    if d == 0:
        return 0.5
    return 2.0 * (1.0 + math.sqrt(float(model.c) / 3.0)) / (d - 1) + 0.5


def certify_primary_bound(model: Model, a, m_max: int, n_max: int,
                          tol: float = DEFAULT_TOL) -> BoundReport:
    """||a_m||_n <= A sqrt(1+|m|) (1+|n|) (||a_0||_n + ||a_0||_{n-m})."""
    avec = _as_vector(a)
    const_a = _primary_constant(model, avec)
    report = BoundReport(
        "primary_bound", model.spec.describe(), repr(a),
        {"m_max": m_max, "n_max": n_max},
        {"A": const_a, "degree": model.degree_of(avec),
         "central_charge": float(model.c)}, tolerance=tol)
    return report.sweep(
        range(-m_max, m_max + 1), n_max,
        lambda m, n: graded_norm(model, avec, m, n),
        lambda m, n: const_a * math.sqrt(1 + abs(m)) * (1 + n) *
        (graded_norm(model, avec, 0, n) + graded_norm(model, avec, 0, n - m)))


def _majorizing_fit(points):
    """(C, exponents) with v <= C prod_i b_i^e_i at every (bases b, v > 0)
    point: least squares in log coordinates, exponents clamped at 0, then C
    inflated to the largest ratio, so the fit majorizes every point."""
    if len(points) == 1:
        return points[0][1], [0.0] * len(points[0][0])
    rows = np.array([[1.0, *(math.log(b) for b in bases)]
                     for bases, _ in points])
    vals = np.array([math.log(v) for _, v in points])
    coeffs, *_ = np.linalg.lstsq(rows, vals, rcond=None)
    exps = [max(float(e), 0.0) for e in coeffs[1:]]
    return max(v / math.prod(b ** e for b, e in zip(bases, exps))
               for bases, v in points), exps


def fit_exponents(table: NormTable):
    """(C, s, t) with ||a_m||_n <= C (1+|m|)^t (1+|n|)^s on every cell of
    the table, by the majorizing fit: a certificate on the window."""
    points = [((1 + abs(m), 1 + n), v) for m, n, v in table.cells() if v > 0]
    if not points:
        raise ValueError("table has no positive cells")
    c, (t, s) = _majorizing_fit(points)
    return c, s, t


def _chain_constants(model: Model, b, const_a: float, m_max: int,
                     n_max: int):
    """(K, q, B, t) of the proof chain: the measured single-exponent witness
    ||b_m||_n <= K(1+|m|)^q(1+|n|)^q, then B = A K and t = q + 3/2.  K is
    fit_exponents' C: with q = max(s, t) and bases 1+|m|, 1+n >= 1, each
    cell's v/((1+|m|)^q(1+n)^q) <= v/((1+|m|)^t(1+n)^s) <= C."""
    table = norm_table(model, b, range(-m_max, m_max + 1), n_max)
    k, s, t = fit_exponents(table)
    q = max(s, t)
    return k, q, const_a * k, q + 1.5


def certify_pair_bound(model: Model, a, b, m_max: int, n_max: int,
                       tol: float = DEFAULT_TOL) -> BoundReport:
    """||a_{-m} b_m||_n <= B (1+|m|)^t (1+|n|)^t (||a_0||_n + ||a_0||_{n-m})

    with B = A K and t = q + 3/2, where (K, q) is the measured growth of b
    and A is the primary-bound constant of a.
    """
    avec, bvec = _as_vector(a), _nonzero(b)
    const_a = _primary_constant(model, avec)
    k_const, q_exp, b_const, t_exp = _chain_constants(model, bvec, const_a,
                                                      m_max, n_max)
    report = BoundReport(
        "pair_bound", model.spec.describe(), f"{a!r} with {b!r}",
        {"m_max": m_max, "n_max": n_max},
        {"A": const_a, "K": k_const, "q": q_exp, "B": b_const, "t": t_exp},
        tolerance=tol)
    return report.sweep(
        range(m_max + 1), n_max,
        lambda m, n: graded_norm(model, bvec, m, n, outer=avec),
        lambda m, n: b_const * ((1 + m) * (1 + n)) ** t_exp *
        (graded_norm(model, avec, 0, n) + graded_norm(model, avec, 0, n - m)))


def certify_zero_mode_product(model: Model, b, p: int, a, n_max: int,
                              tol: float = DEFAULT_TOL) -> BoundReport:
    """||(b_{-p}a)_0||_n <= C (1+|n|)^r ||a_0||_{n+d} for p >= 0.

    The constants are assembled along the proof chain from the measured
    growth (K, q) of b: B = A K, t = q + 3/2,
    C = (2KA + 2B)(p + 2d + 1)^{d+p+2}, r = 2q + 2t + 3/2 + d + p + 2.
    """
    if p < 0:
        raise ValueError("p must be nonnegative")
    avec, bvec = _as_vector(a), _nonzero(b)
    const_a = _primary_constant(model, avec)
    d = model.degree_of(bvec)
    da = model.degree_of(avec)
    if da + p > model.N:
        raise TruncationError(da + p, model.N, "zero-mode composite degree")
    k_const, q_exp, b_const, t_exp = _chain_constants(model, bvec, const_a,
                                                      max(2, p), n_max)
    c_const = (2 * k_const * const_a + 2 * b_const) * \
        (p + 2 * d + 1) ** (d + p + 2)
    r_exp = 2 * q_exp + 2 * t_exp + 1.5 + d + p + 2
    y = state_product(model, bvec, -p + d - 1, avec)  # b_{-p} a, plain
    report = BoundReport(
        "zero_mode_product", model.spec.describe(), f"{b!r}_-{p} {a!r}",
        {"p": p, "n_max": n_max},
        {"A": const_a, "K": k_const, "q": q_exp, "B": b_const, "t": t_exp,
         "C": c_const, "r": r_exp, "d": d}, tolerance=tol)
    return report.sweep(
        (0,), n_max, lambda m, n: graded_norm(model, y, 0, n),
        lambda m, n: c_const * (1 + n) ** r_exp *
        graded_norm(model, avec, 0, n + d))


# ---------------------------------------------------------------------------
# orbifold machinery


def orbifold_average(model: Model, d: int):
    """x = sum_i a^i_{-d} (a^i)* over an orthonormal basis of V_d.

    Computed basis-free as sum_{kl} (G_d^{-1})_{kl} e^k_{(-1)} (e^l)*, which
    makes exact invariance (under model.automorphisms) and
    basis-independence checkable in rational arithmetic.  Returns (x, report).
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
    x = _average(model, [StateVector.basis(e) for e in states],
                 fam.matrix(d))
    # invariance under each automorphism of the model, exact
    for idx, (kind, image) in enumerate(model.automorphisms.items()):
        report.notes[f"invariant_{kind}_{idx}"] = x.mapped(image) == x
    # basis independence: recompute in a sheared basis
    n = len(states)
    shear = xl.Block([{i: 1, i + 1: 1} for i in range(n - 1)] + [{n - 1: 1}],
                     n)  # 1 on the diagonal and the superdiagonal
    gp = xl.mat_mul(xl.transpose(shear), xl.mat_mul(fam.matrix(d), shear))
    x2 = _average(model,
                  [model.from_coords(d, col) for col in xl.transpose(shear)],
                  gp)
    report.notes["basis_independent"] = bool(x2 == x)
    return x, report


def _average(model: Model, vectors, gram) -> StateVector:
    """sum_{kl} (G^{-1})_{kl} (v_k)_{(-1)} v_l* over vectors v of Gram
    matrix G, one star per vector."""
    ginv = xl.solve_symmetric(gram, xl.identity(len(vectors)))
    stars = [star(model, v) for v in vectors]
    x = StateVector()
    for vk, row in zip(vectors, ginv.rows):
        for col, w in row.items():
            x.add(state_product(model, vk, -1, stars[col]), Q(w, ginv.den))
    return x


def certify_orbifold_chain(model: Model, a, x: StateVector, s, n_max: int,
                           tol: float = DEFAULT_TOL) -> BoundReport:
    """||a_0 (L_0+1)^{-s}||_n^2 <= ||a||^2 ||x_0 (L_0+1)^{-2s}||_n."""
    avec = _nonzero(a)
    fam = family_of(model)
    sf = float(s)
    if sf < 0:
        raise ValueError("damping exponent must be nonnegative")
    norm_sq = float(fam.pairing(avec, avec))
    report = BoundReport(
        "orbifold_chain", model.spec.describe(), repr(a),
        {"s": sf, "n_max": n_max}, {"state_norm_sq": norm_sq},
        tolerance=tol)
    return report.sweep(
        (0,), n_max,
        lambda m, n: graded_norm(model, avec, 0, n,
                                 weight=lambda k: (k + 1) ** (-sf)) ** 2,
        lambda m, n: norm_sq * graded_norm(
            model, x, 0, n, weight=lambda k: (k + 1) ** (-2 * sf)))


def trace_domination_check(model: Model, a, q, n_max: int,
                           tol: float = DEFAULT_TOL) -> BoundReport:
    """||a_0 q^{L_0}||_n^2 <= Tr(q^{L_0} a_0^† a_0 q^{L_0})
                           <= Tr((a_{-d}a*)_0 q^{2L_0}) on V_{<=n}.

    Both traces are exact rationals for rational q; only the operator norm
    on the far left is spectral.  The cells (0, n) and (1, n) alternate in
    n, an order `BoundReport.sweep` cannot give, so this check appends its
    own.
    """
    qr = rational(q)
    if not (0 < qr < 1):
        raise ValueError("damping must lie strictly between 0 and 1")
    _nonempty((0, 1), n_max)
    avec = _nonzero(a)
    fam = family_of(model)
    x = _square_completion(model, avec)
    report = BoundReport(
        "trace_domination", model.spec.describe(), repr(a),
        {"q": float(qr), "n_max": n_max}, {}, tolerance=tol)
    partials = []
    # running traces over V_{<=n}, one degree added per n
    mid = ZERO   # Tr q^{L_0} a_0^dag a_0 q^{L_0}
    right = ZERO  # Tr (a_{-d}a*)_0 q^{2L_0}
    for n in range(n_max + 1):
        lhs = damped_norm(model, avec, qr, n) ** 2  # spectral, on the left
        if model.dim(n):
            wn = qr ** (2 * n)
            blk = _vec_block(model, avec, 0, n)
            mid += wn * xl.trace(xl.mat_mul(fam.adjoint(blk, n, n), blk))
            if not x.is_zero():
                right += wn * xl.trace(_vec_block(model, x, 0, n))
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
    if any(not math.isfinite(v) or v < 0 for v in kseq) or d < 1 or \
            not 0 < d_const < math.inf or not 0 <= s < math.inf:
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
            ok = n + d < len(alphas)  # a chain of no step witnesses nothing
            m = 1
            while n + m * d < len(alphas):
                lo = alphas[n + (m - 1) * d] ** 2
                if alphas[n + m * d] < lo * (1 - tol) and _recursion_holds(
                        kseq, d_const, s, d, n + (m - 1) * d, tol):
                    ok = False
                m += 1
            verdict.witness_ok = ok
            return verdict
    # with no cell in the window, cell 0 fails: no pass on zero cells
    for n in range(max(len(kseq) - d, 1)):
        if not _recursion_holds(kseq, d_const, s, d, n, tol):
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
    """(D, s) with K(n)^2 <= D(n+1)^s K(n+d) on the window, by the
    majorizing fit of K(n)^2/K(n+d): the recursion holds by construction
    wherever K(n+d) > 0.  None when no n has K(n) > 0 and K(n+d) > 0: the
    window fits no constants."""
    points = [((n + 1,), kseq[n] ** 2 / kseq[n + d])
              for n in range(len(kseq) - d)
              if kseq[n] > 0 and kseq[n + d] > 0]
    if not points:
        return None
    d_const, (s,) = _majorizing_fit(points)
    return d_const, s


def measure_sector_growth(model: Model, n_max: int):
    """K(n) = max over charge sectors k != 0 of ||top^k_0||_n.

    The sector tops of a lattice model over its charge-zero subalgebra play
    the role of the module generators in the zero-mode recursion.
    """
    tops = [st for d in range(model.N + 1) for st in model.basis.states(d)
            if not st.factors and st.sector != 0]
    if not tops:
        raise ValueError(f"sector growth needs a model with charge sectors, "
                         f"and {model.spec.describe()} has none")
    return [max(graded_norm(model, top, 0, n) for top in tops)
            for n in range(n_max + 1)]
