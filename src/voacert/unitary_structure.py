"""Invariant scalar product, star involution, adjoint diagnostics.

Every model's builder hands it its normalized invariant form, read only
through ``GramFamily.matrix``: a free field's Fock pairing in closed form,
a Virasoro model's Verma Gram (the Shapovalov form) on its kept words, the
quotient's form since the radical pairs to zero with every word.
Each Gram matrix is one xl.Block in lowest terms, and so is every Gram
adjoint: ``pairing``, the float Cholesky factor, the positivity test,
``radical``, the solves and the adjoint's products read its form; only
LDL^T and single entries read its memoized dense view.  ``family_of``
shares the per-degree caches the model keeps.

A Gram adjoint G_s^{-1} B^T G_t is one ``xl.solve_symmetric`` against
B^T G_t, the fraction-free symmetric sweep of the positivity test carried
through a right side.  No Gauss-Jordan runs on a Gram with nonzero
leading principal minors (every positive definite one), and a diagonal
Gram (every rank-1 Heisenberg or lattice one) costs no row operation.
The conjugate state ``star`` is in closed form and reads no Gram.
"""

from __future__ import annotations

import numpy as np

from . import exactlinalg as xl
from .errors import ModelBugError, TruncationError
from .graded_fock import BasisState, Model, StateVector, canonical_factors
from .mode_engine import (Residual, _as_vector, _bracket_residual,
                          _vec_block, apply_mode, state_product)
from .scalars import ONE, Q, ZERO


class GramFamily:
    """Per-degree exact matrices of the normalized invariant form."""

    def __init__(self, model: Model):
        self.model = model
        self._mats = {}
        self._chol = {}

    # -- exact pairing ----------------------------------------------------

    def pair_states(self, u: BasisState, v: BasisState):
        basis = self.model.basis
        du = basis.degree_of(u)
        if du != basis.degree_of(v):
            return ZERO
        g = self.matrix(du)
        return g[basis.position_of(u)][basis.position_of(v)]

    def pairing(self, u: StateVector, v: StateVector):
        split = self.model.coords_by_degree
        vs = split(v)
        total = ZERO
        for d, us in split(u).items():
            if d in vs:
                for cu, w in zip(us, xl.mat_vec(self.matrix(d), vs[d])):
                    if cu and w:
                        total += cu * w
        return total

    # -- matrices ---------------------------------------------------------

    def matrix(self, degree: int) -> xl.Block:
        """The model's Gram matrix ``gram(degree)`` at a degree <= N,
        memoized: a read-only lowest-terms xl.Block, dense view shared."""
        if degree > self.model.N:
            raise TruncationError(degree, self.model.N, "Gram degree")
        hit = self._mats.get(degree)
        if hit is None:
            hit = self._mats[degree] = self.model._gram(degree)
        return hit

    def adjoint(self, blk, src: int, tgt: int):
        """Gram adjoint G_src^{-1} B^T G_tgt of a block B: V_src -> V_tgt,
        one symmetric solve."""
        return xl.solve_symmetric(
            self.matrix(src), xl.mat_mul(xl.transpose(blk), self.matrix(tgt)))

    def radical(self, degree: int):
        return xl.kernel_basis(self.matrix(degree))

    def positive_definite(self, degree: int) -> bool:
        """Exact check that every LDL^T pivot of G_degree is positive,
        decided by fraction-free elimination on the block's numerators."""
        return xl.positive_definite(self.matrix(degree))

    def cholesky(self, degree: int) -> np.ndarray:
        """Floating lower-triangular factor of G_degree."""
        hit = self._chol.get(degree)
        if hit is None:
            gm = self.matrix(degree)
            if not gm:
                hit = np.zeros((0, 0))
            else:
                try:
                    hit = np.linalg.cholesky(xl.to_numpy(gm))
                except np.linalg.LinAlgError as exc:
                    raise ModelBugError(
                        f"Gram matrix at degree {degree} is not positive "
                        "definite") from exc
            self._chol[degree] = hit
        return hit

    def exact_cholesky(self, degree: int):
        """Exact LDL^T factors (L unit lower-triangular, D diagonal list)."""
        factors = xl.ldl(self.matrix(degree))
        if factors is None:
            raise ModelBugError(
                f"Gram matrix at degree {degree} is not positive definite")
        return factors


def family_of(model: Model) -> GramFamily:
    """A Gram family over the model's caches; the model holds no family,
    so a dropped model is freed without a cyclic collection."""
    fam = GramFamily(model)
    fam._mats, fam._chol = model._gram_caches
    if 0 not in fam._mats and fam.matrix(0) != [[ONE]]:
        raise ModelBugError("vacuum normalization broken")
    return fam


def star(model: Model, a) -> StateVector:
    """Conjugate state: the unique a* with (a*_{-n} b | c) = (b | a_n c).

    a* = e^{L_1} (-1)^{L_0} theta(a), theta the PCT automorphism (Frenkel,
    Huang and Lepowsky, Mem. AMS 104, 1993, sec. 5.2; Carpi, Kawahigashi,
    Longo and Weiner, Mem. AMS 254, 2018, sec. 5).  On a label,
    (-1)^{L_0} theta turns each factor g_m into (-1)^{d_g - m} (g*)_m, g*
    the generator's star partner, and sector p's top into sector -p's;
    L_1 lowers the degree, so the exponential is a finite sum.  No Gram
    is read.
    """
    out = StateVector()
    for st, co in _as_vector(a).terms.items():
        d = model.basis.degree_of(st)
        if d > model.N:
            raise TruncationError(d, model.N, "star degree")
        factors = []
        for g, m in st.factors:
            info = model.generators[g]
            factors.append((info.star, m))
            if (info.degree - m) % 2:
                co = -co
        out.add_term(BasisState(-st.sector, canonical_factors(factors)), co)
    term, k = out, 1
    while not term.is_zero():  # out += L_1^k out_0 / k!
        term = apply_mode(model, model.nu, 1, term).scale(Q(1, k))
        out.add(term)
        k += 1
    return out


def adjoint_residual(model: Model, a, m: int) -> Residual:
    """Exact deviation of the G-adjoint of a_m from (a*)_{-m}.

    Plain index m; compares the Gram adjoint G_s^{-1} (a_m block)^T
    G_{s-m}, one symmetric solve, with the block of (a*)_{-m} on every
    source degree where both sides live.
    """
    a = _as_vector(a)
    fam = family_of(model)
    conj = star(model, a)
    worst = ZERO
    checked = []
    for s in range(max(0, m), model.N + 1 + min(0, m)):
        t = s - m
        blk = _vec_block(model, a, m, s)
        other = _vec_block(model, conj, -m, t)
        val = xl.max_abs(xl.mat_sub(fam.adjoint(blk, s, t), other)) \
            if model.dim(s) and model.dim(t) else ZERO
        checked.append(s)
        if val > worst:
            worst = val
    return Residual("adjoint", worst, {"m": m, "sources": checked})


def kac_moody_residual(model: Model, a, b, m: int, n: int) -> Residual:
    """Current-algebra bracket check for degree-1 states.

    [a_m, b_n] must equal ([a,b])_{m+n} + m (a*|b) delta_{m,-n} id, with
    [a,b] = a_(0) b.
    """
    a, b = _as_vector(a), _as_vector(b)
    if model.degree_of(a) != 1 or model.degree_of(b) != 1:
        raise ValueError("current-algebra check needs degree-1 states")
    central = Q(m) * family_of(model).pairing(star(model, a), b) \
        if m == -n else ZERO
    # the vacuum's plain mode m + n = 0 is the identity
    rhs = state_product(model, a, 0, b) + \
        StateVector.basis(model.vacuum, central)
    worst, _ = _bracket_residual(
        model, a, m, b, n, lambda s: _vec_block(model, rhs, m + n, s),
        "current bracket window")
    return Residual("kac_moody", worst,
                    {"m": m, "n": n, "central": central})
