"""Graded operator norms on the truncation.

A mode matrix shifts degree homogeneously, so its restriction to the
filtration space V_{<=n} block-diagonalizes over source degrees, and every
graded norm is a max over source degrees s <= n of one per-degree value:
the largest singular value of the degree-s block, in orthonormal
coordinates from the per-degree Cholesky factors of the invariant form.
``_sigma`` computes that value, for a mode a_m or a degree-preserving
composite b_{-m} a_m, and memoizes it per model (blocks are read-only once
built, so an entry never goes stale).  ``graded_norm`` is the one loop
that takes the max over degrees, with an optional per-degree weight, and
every float norm here and in ``bound_certifier`` is a call of it,
``cstar_gap`` and ``damped_norm`` included.  Its window rule,
``_in_window``, is shared with the certified norm: V_{<=n} is empty for
n < 0, and a source degree n or target degree n - m past N raises
TruncationError naming the graded norm window.  ``graded_norm_certified``
gives an exact rational enclosure of the squared norm instead, by a
bisection decided at every step by an exact positive-definiteness test and
started from a bracket around the float value, which usually holds after
two checks per degree; it has no block size limit.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field

import numpy as np

from . import exactlinalg as xl
from .errors import ModelBugError, TruncationError
from .graded_fock import Model, StateVector
from .mode_engine import _as_vector, _nonempty, _nonzero, _vec_block
from .scalars import ONE, Q, ZERO
from .serialize import write_atomic
from .unitary_structure import family_of, star


def _ortho_block(model: Model, blk, src: int, tgt: int) -> np.ndarray:
    """Block in orthonormal coordinates: L_tgt^T A (L_src^T)^{-1}."""
    fam = family_of(model)
    ls = fam.cholesky(src)
    lt = fam.cholesky(tgt)
    a = xl.to_numpy(blk)
    if a.size == 0:
        return a
    # solve X L_src^T = A  <=>  L_src X^T = A^T
    xt = np.linalg.solve(ls, a.T)
    return lt.T @ xt.T


def _sigma_max(mat: np.ndarray) -> float:
    if mat.size == 0:
        return 0.0
    return float(np.linalg.svd(mat, compute_uv=False)[0])


def _sigma(model: Model, inner: StateVector, m: int, s: int,
           outer: StateVector = None) -> float:
    """sigma_max of the degree-s block of inner_m, or of the composite
    outer_{-m} inner_m when outer is given, in orthonormal coordinates."""
    key = (frozenset(inner.terms.items()),
           None if outer is None else frozenset(outer.terms.items()), m, s)
    hit = model._sigma_cache.get(key)
    if hit is None:
        blk = _vec_block(model, inner, m, s)
        tgt = s - m
        if outer is not None:
            blk = xl.compose(_vec_block(model, outer, -m, tgt), blk,
                             model.dim(s), model.dim(s))
            tgt = s
        hit = model._sigma_cache[key] = _sigma_max(
            _ortho_block(model, blk, s, tgt))
    return hit


def _in_window(model: Model, m: int, n: int, what: str) -> bool:
    """The window rule of every graded norm of a mode m on V_{<=n}: False
    when V_{<=n} is empty (n < 0), TruncationError naming `what` when n or
    the target degree n - m lies past N, True otherwise."""
    if n < 0:
        return False
    if n > model.N or n - m > model.N:
        raise TruncationError(max(n, n - m), model.N, what)
    return True


def graded_norm(model: Model, a, m: int, n: int, outer: StateVector = None,
                weight=None) -> float:
    """Norm of a_m (plain index) restricted to the filtration space V_{<=n};
    of the degree-preserving composite outer_{-m} a_m when outer is given.
    With a weight, the degree-s block's norm is scaled by weight(s)."""
    avec = _as_vector(a)
    if not _in_window(model, m, n, "graded norm window") or avec.is_zero():
        return 0.0
    best = 0.0
    for s in range(max(m, 0), n + 1):
        val = _sigma(model, avec, m, s, outer)
        if weight is not None:
            val = val * weight(s)
        best = max(best, val)
    return best


def _seed_bracket(guess, tol):
    """Rationals just below and above a float estimate guess of r^2, at
    guess * (1 -+ tol/4) rounded outward to a power-of-two denominator of
    at least 8/tol, all in exact arithmetic; (0, 1) without a finite
    positive guess."""
    if guess is None or not math.isfinite(guess) or guess <= 0 or tol <= 0:
        return ZERO, ONE
    tol = Q(tol)
    den = 1 << (8 * tol.denominator // tol.numerator).bit_length()
    g = Q(guess) * den
    return (Q(math.floor(g * (1 - tol / 4)), den),
            Q(math.ceil(g * (1 + tol / 4)), den))


def _bisect_sigma_sq(gram, comp, tol, guess: float = None):
    """[lo, hi] around the largest r^2 at which r^2 gram - comp stops being
    positive definite, each step decided by xl.positive_definite.

    The search starts from the bracket seeded by guess (_seed_bracket) and
    widens it where a check fails: down to 0 when lo is already above, up
    by doubling hi until it is above.  A close guess leaves a bracket
    within tol after two checks.
    """

    def above(r2):
        return xl.positive_definite(xl.mat_sub(xl.mat_scale(gram, r2), comp))

    lo, hi = _seed_bracket(guess, tol)
    if lo and above(lo):
        lo, hi = ZERO, lo
    else:
        while not above(hi):
            lo, hi = hi, 2 * hi
    while hi - lo > tol * max(ONE, hi):
        mid = (lo + hi) / 2
        if above(mid):
            hi = mid
        else:
            lo = mid
    return lo, hi


def graded_norm_certified(model: Model, a, m: int, n: int,
                          tol=Q(1, 10 ** 9)):
    """Exact rational enclosure [lo, hi] of the squared graded norm.

    On each source degree s the squared block norm sigma_s^2 of a_m is
    bisected on r^2, starting from the memoized float sigma_s.
    Every step is decided by the exact positive-definiteness test of
    r^2 G_s - A^T G_{s-m} A, which is positive definite exactly when
    r^2 > sigma_s^2, so lo <= max_s sigma_s^2 <= hi is a certificate, with
    hi - lo <= tol * max(1, hi).  Blocks of any size are handled; a tol
    that is not finite and positive (no bisection ends) is a ValueError.
    """
    if not 0 < tol < math.inf:  # nan too
        raise ValueError(f"tolerance {tol!r} is not finite and positive")
    if not _in_window(model, m, n, "graded norm window"):
        return ZERO, ZERO
    avec = _as_vector(a)
    fam = family_of(model)
    lo_best, hi_best = ZERO, ZERO
    for s in range(max(m, 0), n + 1):
        tgt = s - m
        if model.dim(s) == 0 or model.dim(tgt) == 0:
            continue
        blk = _vec_block(model, avec, m, s)
        if xl.is_zero(blk):
            continue
        if not fam.positive_definite(s):  # else the search never ends
            raise ModelBugError(
                f"Gram matrix at degree {s} is not positive definite")
        dim = model.dim(s)
        comp = xl.compose(xl.transpose(blk), xl.compose(
            fam.matrix(tgt), blk, model.dim(tgt), dim), dim, dim)
        try:  # a float failure only loses the seed
            guess = _sigma(model, avec, m, s) ** 2
        except (ModelBugError, np.linalg.LinAlgError, OverflowError):
            guess = None
        lo, hi = _bisect_sigma_sq(fam.matrix(s), comp, tol, guess)
        lo_best, hi_best = max(lo_best, lo), max(hi_best, hi)
    return lo_best, hi_best


def cstar_gap(model: Model, a, m: int, n: int) -> float:
    """|  ||a*_{-m} a_m||_n - ||a_m||_n^2 |, both computed spectrally."""
    avec = _as_vector(a)
    norm = graded_norm(model, avec, m, n)
    return abs(graded_norm(model, avec, m, n, outer=star(model, avec))
               - norm * norm)


def damped_norm(model: Model, a, q, n: int) -> float:
    """Norm of a_0 q^{L_0} on V_{<=n}, for a damping 0 < q < 1."""
    qf = float(q)
    if not 0.0 < qf < 1.0:
        raise ValueError("damping must lie strictly between 0 and 1")
    return graded_norm(model, a, 0, n, weight=lambda s: qf ** s)


@dataclass
class NormTable:
    """Grid of graded norms for one state."""

    owner: str
    model_desc: str
    truncation: int
    tolerance: float
    entries: dict = field(default_factory=dict)   # (m, n) -> float
    failures: dict = field(default_factory=dict)  # (m, n) -> reason str

    def cells(self):
        for (m, n) in sorted(self.entries):
            yield m, n, self.entries[(m, n)]

    def to_dict(self) -> dict:
        return {
            "owner": self.owner,
            "model": self.model_desc,
            "truncation": self.truncation,
            "tolerance": self.tolerance,
            "cells": [
                {"m": m, "n": n, "norm": format(v, ".17g")}
                for m, n, v in self.cells()
            ],
            "failures": [
                {"m": m, "n": n, "reason": r}
                for (m, n), r in sorted(self.failures.items())
            ],
        }


def write_csv(path, fields, cells):
    """A header of fields, then each cell's fields, rendered by csv.writer
    (CRLF rows) and written by serialize.write_atomic."""
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow(fields)
    writer.writerows([cell[f] for f in fields] for cell in cells)
    write_atomic(path, text.getvalue())


def write_norm_csv(table: dict, path):
    """The cells of a NormTable.to_dict() as m,n,norm rows."""
    write_csv(path, ("m", "n", "norm"), table["cells"])


def norm_table(model: Model, a, m_range, n_max: int,
               owner: str = "") -> NormTable:
    """graded_norm on every cell (m, n <= n_max); a cell past the
    truncation is recorded as a failure.  Raises ValueError for a zero
    state, whose table would hold only zeros, or an empty window."""
    _nonzero(a)
    _nonempty(m_range, n_max)
    table = NormTable(owner=owner or repr(a),
                      model_desc=model.spec.describe(),
                      truncation=model.N, tolerance=1e-9)
    for m in m_range:
        for n in range(n_max + 1):
            try:
                table.entries[(m, n)] = graded_norm(model, a, m, n)
            except TruncationError as exc:
                table.failures[(m, n)] = (
                    f"insufficient truncation (need {exc.required})")
    return table
