"""Invariant scalar product, star involution, adjoint diagnostics.

Every model's builder hands it its normalized invariant form, read only
through ``GramFamily.matrix``: a free field's Fock pairing in closed form,
a Virasoro model's Verma Gram (the Shapovalov form) on its kept words, the
quotient's form since the radical pairs to zero with every word.
Each Gram matrix is one xl.Block in lowest terms, and so are its inverse
and every Gram adjoint: ``pairing``, the float Cholesky factor, the
positivity test, ``radical``, the solves and the adjoint's products read
its form; only LDL^T and single entries read its memoized dense view.
``family_of`` shares the per-degree caches the model keeps.

Adjoints are solves.  The inverse G_s^{-1} that ``star`` and every Gram
adjoint G_s^{-1} B^T G_t read is ``xl.solve_symmetric(G_s, 1)``, the
fraction-free symmetric sweep of the positivity test carried through a
right side, memoized per degree.  No Gauss-Jordan runs on a Gram with
nonzero leading principal minors (every positive definite one), and a
diagonal Gram (every rank-1 Heisenberg or lattice one) costs no row
operation.
"""

from __future__ import annotations

import math

import numpy as np

from . import exactlinalg as xl
from .errors import ModelBugError, TruncationError
from .graded_fock import BasisState, Model, StateVector
from .mode_engine import (Residual, _as_vector, _bracket_residual,
                          _vec_block, apply_mode, state_product)
from .scalars import ONE, Q, ZERO


class GramFamily:
    """Per-degree exact matrices of the normalized invariant form."""

    def __init__(self, model: Model):
        self.model = model
        self._mats = {}
        self._invs = {}
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

    def inverse(self, degree: int):
        """G_degree^{-1}, the symmetric solve against the identity."""
        hit = self._invs.get(degree)
        if hit is None:
            g = self.matrix(degree)
            hit = xl.solve_symmetric(g, xl.identity(len(g)))
            self._invs[degree] = hit
        return hit

    def adjoint(self, blk, src: int, tgt: int):
        """Gram adjoint G_src^{-1} B^T G_tgt of a block B: V_src -> V_tgt."""
        return xl.mat_mul(self.inverse(src),
                          xl.mat_mul(xl.transpose(blk), self.matrix(tgt)))

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
    fam._mats, fam._invs, fam._chol = model._gram_caches
    if 0 not in fam._mats and fam.matrix(0) != [[ONE]]:
        raise ModelBugError("vacuum normalization broken")
    return fam


def star(model: Model, a) -> StateVector:
    """Conjugate state: the unique a* with (a*_{-n} b | c) = (b | a_n c).

    For a of degree d the conjugate has components in every degree up to d
    (only the top one survives when a is quasi-primary).  They are
    recovered triangularly from the Gram adjoints of the annihilation
    blocks a_e : V_e -> V_0, each a solve against G_e (its memoized
    ``GramFamily.inverse``), since applying the defining relation to the
    vacuum gives (a_e)^dag Om = sum_{e' <= e} L_{-1}^{e-e'}/(e-e')!
    applied to the degree-e' component.  Each component's running power
    L_{-1}^{e-e'} is carried from one e to the next, one L_{-1} per
    component and degree.
    """
    a = _as_vector(a)
    if a.is_zero():
        return StateVector()
    parts = model.coords_by_degree(a)
    if len(parts) > 1:
        total = StateVector()
        for e, coords in parts.items():
            total.add(star(model, model.from_coords(e, coords)))
        return total
    (d, _), = parts.items()
    if d == 0:
        return a.copy()
    if d > model.N:
        raise TruncationError(d, model.N, "star degree")
    fam = family_of(model)
    ups = {}  # e' -> L_{-1}^{e-e'} of the degree-e' component
    total = StateVector()
    for e in range(d + 1):
        for ep in ups:
            ups[ep] = apply_mode(model, model.nu, -1, ups[ep])
        if model.dim(e) == 0:
            continue
        down = _vec_block(model, a, e, e)  # V_e -> V_0, one row
        coords = xl.mat_vec(fam.inverse(e), down[0])
        corr = model.from_coords(e, coords)
        for ep in sorted(ups, reverse=True):
            corr.add(ups[ep], Q(-1, math.factorial(e - ep)))
        if not corr.is_zero():
            ups[e] = corr
            total.add(corr)
    return total


def adjoint_residual(model: Model, a, m: int) -> Residual:
    """Exact deviation of the G-adjoint of a_m from (a*)_{-m}.

    Plain index m; compares G_s^{-1} (a_m block)^T G_{s-m}, G_s^{-1} the
    symmetric solve of ``GramFamily.inverse``, with the block of (a*)_{-m}
    on every source degree where both sides live.
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
