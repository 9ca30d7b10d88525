"""The accumulated Borcherds and skew-symmetry residuals against termwise
references: the left and right sides of Borcherds summed apart, and each
skew-symmetry term taken through its own L_{-1}^j / j!."""

import math
import random

import pytest

from voacert.errors import TruncationError
from voacert.graded_fock import (StateVector, build_model, heisenberg_spec,
                                 lattice_spec, virasoro_spec)
from voacert.mode_engine import (_as_vector, apply_mode, borcherds_residual,
                                 skewsymmetry_residual, state_product)
from voacert.scalars import ONE, binomial


def termwise_borcherds(model, a, b, c, m, n, k):
    avec, bvec, cvec = _as_vector(a), _as_vector(b), _as_vector(c)
    da, db, dc = (model.degree_of(v) for v in (avec, bvec, cvec))
    lhs = StateVector()
    for j in range(da + db - n):
        binom = binomial(m, j)
        if not binom:
            continue
        sj = state_product(model, avec, n + j, bvec)
        if sj.is_zero():
            continue
        lhs = lhs + state_product(model, sj, m + k - j, cvec).scale(binom)
    rhs = StateVector()
    for j in range(db + dc - k):
        binom = binomial(n, j)
        if not binom:
            continue
        inner = state_product(model, bvec, k + j, cvec)
        if inner.is_zero():
            continue
        sign = -ONE if j % 2 else ONE
        rhs = rhs + state_product(model, avec, m + n - j, inner) \
            .scale(sign * binom)
    for j in range(da + dc - m):
        binom = binomial(n, j)
        if not binom:
            continue
        inner = state_product(model, avec, m + j, cvec)
        if inner.is_zero():
            continue
        sign = -ONE if (j + n) % 2 else ONE
        rhs = rhs - state_product(model, bvec, n + k - j, inner) \
            .scale(sign * binom)
    return (lhs - rhs).max_abs()


def termwise_skewsymmetry(model, a, b, n):
    avec, bvec = _as_vector(a), _as_vector(b)
    da, db = model.degree_of(avec), model.degree_of(bvec)
    total = state_product(model, avec, n, bvec)
    for j in range(da + db - n):
        term = state_product(model, bvec, n + j, avec)
        if term.is_zero():
            continue
        for _ in range(j):
            term = apply_mode(model, model.nu, -1, term)
        sign = -ONE if (j + n) % 2 else ONE
        total = total + term.scale(sign / math.factorial(j))
    return total.max_abs()


MODELS = {
    "heisenberg(1,8)": lambda: build_model(heisenberg_spec(1, 8)),
    "virasoro(1/2,8)": lambda: build_model(virasoro_spec("1/2", 8)),
    "virasoro(1,8)": lambda: build_model(virasoro_spec(1, 8)),
    "lattice(2,6)": lambda: build_model(lattice_spec(2, 6)),
    "heisenberg(1,6) corrupted": lambda: build_model(
        heisenberg_spec(1, 6), corrupt=(0, -1, 2, 0, 0, 1)),
}
SAMPLES = 50


def sampled_pairs(model, residual, reference, n_states, n_indices, seed):
    """(residual, reference) max_abs on SAMPLES tuples drawn like
    sample_residuals whose window fits the truncation."""
    rng = random.Random(seed)
    pool = [st for d in range(max(2, model.N // 2) + 1)
            for st in model.basis.states(d)]
    out = []
    while len(out) < SAMPLES:
        tup = tuple(rng.choice(pool) for _ in range(n_states)) + tuple(
            rng.randint(-3, 3) for _ in range(n_indices))
        try:
            res = residual(model, *tup)
        except TruncationError:
            continue
        out.append((res.max_abs, reference(model, *tup)))
    return out


@pytest.mark.parametrize("name", MODELS)
def test_accumulated_residuals_match_the_termwise_references(name):
    model = MODELS[name]()
    for residual, reference, n_states, n_indices in (
            (borcherds_residual, termwise_borcherds, 3, 3),
            (skewsymmetry_residual, termwise_skewsymmetry, 2, 1)):
        pairs = sampled_pairs(model, residual, reference, n_states,
                              n_indices, seed=11)
        assert [got for got, _ in pairs] == [want for _, want in pairs]
        # the corruption shows in both identities; clean models vanish
        assert any(got for got, _ in pairs) == ("corrupted" in name)
