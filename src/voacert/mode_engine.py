"""Exact mode matrices and the defining-identity residuals.

Every homogeneous state a of a Model gets degree-shifting blocks for its
modes (``exactlinalg.Block``: int numerators over one denominator): a_(n)
in the round convention, a_n = a_(n+d-1) in the plain one.  Composite
states are peeled by their leading canonical factor using the homogeneous
mode-expansion formula, with j-cutoffs supplied by the annihilation
thresholds of the truncation.  The nonzero (generator block, tail block,
signed binomial) terms are gathered, and in the second sum a tail block is
built only behind a nonzero generator block; one
``exactlinalg.sum_of_products`` call then adds them over a denominator
fixed before the first product, so every block is exact and in lowest
terms.  The blocks of basis states and of the conformal vector nu, whose
modes L_n = nu_(n+1) every identity check reads, are memoized per model
in that form, which brackets, residuals and mode application read
directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import exactlinalg as xl
from .errors import TruncationError
from .graded_fock import BasisState, Model, StateVector, vertex_mode_block
from .scalars import Q, ZERO, binomial


# ---------------------------------------------------------------------------
# block-level engine (all indices plain)


def _state_block(model: Model, state: BasisState, k: int, s: int):
    """Block of the plain mode k of a basis state: degree s -> s - k."""
    tgt = s - k
    if tgt < 0:
        return xl.zero_block(0, model.basis.dim(s))
    if s > model.n_internal or tgt > model.n_internal:
        raise TruncationError(max(s, tgt), model.n_internal,
                              f"mode {k} of {state} at source degree {s}")
    cache = model._state_mode_cache
    key = (state, k, s)
    hit = cache.get(key)
    if hit is not None:
        return hit
    out = _compute_state_block(model, state, k, s)
    cache[key] = out
    return out


def _compute_state_block(model: Model, state: BasisState, k: int, s: int):
    basis = model.basis
    tgt = s - k
    gid = model.generator_of.get(state)
    if gid is not None:
        return model.gen_block(gid, k, s)
    if not state.factors:
        if state.sector == 0:
            # vacuum: plain mode k is delta_{k,0} identity
            if k == 0:
                return xl.identity(basis.dim(s))
            return xl.zero_block(basis.dim(tgt), basis.dim(s))
        return vertex_mode_block(model, state.sector, k, s)
    # peel the leading factor: state = g_{n0} . tail
    gid, n0 = state.factors[0]
    dg = model.generators[gid].degree
    tail = BasisState(state.sector, state.factors[1:])  # a label: see Model
    n = n0 + dg - 1  # < 0, so no binomial C(n, j) is 0
    j1_max = s - k + n0  # beyond this the inner tail mode annihilates V_s
    j2_max = s + dg - 1  # beyond this the inner generator mode annihilates
    flip = -1 if (n0 + dg) % 2 else 1
    terms = []
    binom = 1  # (-1)^j C(n, j), by C(n, j+1) = C(n, j) (n - j) / (j + 1)
    for j in range(0, max(j1_max, j2_max) + 1):
        if j <= j1_max:
            inner = _state_block(model, tail, k - n0 + j, s)
            if any(inner.rows):
                outer = model.gen_block(gid, n0 - j, s - (k - n0 + j))
                if any(outer.rows):
                    terms.append((outer, inner, binom))
        if j <= j2_max:
            inner = model.gen_block(gid, j + 1 - dg, s)
            if any(inner.rows):
                outer = _state_block(model, tail, k - j + dg - 1,
                                     s - (j + 1 - dg))
                if any(outer.rows):
                    terms.append((outer, inner, flip * binom))
        binom = -binom * (n - j) // (j + 1)
    return xl.sum_of_products(basis.dim(tgt), basis.dim(s), terms)


def _vec_block(model: Model, vec: StateVector, k: int, s: int):
    """Block of the plain mode k of a vector.

    Every term takes the same plain index k, so vec need not be
    homogeneous.  A single basis state with coefficient 1 is served by
    _state_block.  A vector equal to the conformal vector nu (compared by
    value, so copies hit too) is summed once and cached under (None, k, s)
    in the model's block cache.  The result may be a shared cache entry in
    both cases, so callers must not mutate it.
    """
    tgt = s - k
    if tgt < 0:
        return xl.zero_block(0, model.basis.dim(s))
    terms = vec.terms
    if len(terms) == 1:
        (st, co), = terms.items()
        if co == 1:
            return _state_block(model, st, k, s)
    is_nu = terms == model.nu.terms
    if is_nu:
        key = (None, k, s)
        hit = model._state_mode_cache.get(key)
        if hit is not None:
            return hit
    acc = xl.zero_block(model.basis.dim(tgt), model.basis.dim(s))
    for st, co in terms.items():
        xl.add_scaled(acc, _state_block(model, st, k, s), co)
    if is_nu:
        acc = model._state_mode_cache[key] = acc.reduced()
    return acc


def _as_vector(a) -> StateVector:
    """A basis label as a one-term vector; a vector unchanged."""
    if isinstance(a, BasisState):
        return StateVector.basis(a)
    return a


def _nonzero(a) -> StateVector:
    """_as_vector(a), raising ValueError for the zero vector, on which a
    bound would hold vacuously."""
    avec = _as_vector(a)
    if avec.is_zero():
        raise ValueError("state is zero")
    return avec


def apply_mode(model: Model, a, k: int, b) -> StateVector:
    """a_k b for the plain mode k, as an exact vector.

    Every term of a takes the same plain index, so a need not be
    homogeneous; b is split by degree.  Raises TruncationError when a
    target degree exceeds N.
    """
    avec = _as_vector(a)
    out = StateVector()
    for s, coords in model.coords_by_degree(_as_vector(b)).items():
        tgt = s - k
        if tgt < 0:
            continue
        if tgt > model.N:
            raise TruncationError(tgt, model.N, "product degree overflow")
        model.from_coords(tgt, xl.mat_vec(_vec_block(model, avec, k, s),
                                          coords), out)
    return out


def state_product(model: Model, a, n: int, b) -> StateVector:
    """a_(n) b in the round convention, as an exact vector."""
    avec, bvec = _as_vector(a), _as_vector(b)
    if avec.is_zero() or bvec.is_zero():
        return StateVector()
    return apply_mode(model, avec, n - model.degree_of(avec) + 1, bvec)


# ---------------------------------------------------------------------------
# identity residuals


@dataclass
class Residual:
    """Outcome of one exact identity check."""

    name: str
    max_abs: object  # exact rational
    details: dict = field(default_factory=dict)

    @property
    def is_zero(self) -> bool:
        return not self.max_abs


def _require(model: Model, needed: int, what: str):
    if needed > model.N:
        raise TruncationError(needed, model.N, what)


def borcherds_required_truncation(model: Model, a, b, c, m: int, n: int,
                                  k: int) -> int:
    avec, bvec, cvec = _as_vector(a), _as_vector(b), _as_vector(c)
    da, db, dc = (model.degree_of(v) for v in (avec, bvec, cvec))
    result = da + db + dc - m - n - k - 2
    return max(da, db, dc, result,
               da + db - n - 1, db + dc - k - 1, da + dc - m - 1)


def borcherds_residual(model: Model, a, b, c, m: int, n: int,
                       k: int) -> Residual:
    """Exact residual of the Borcherds identity on round indices m, n, k."""
    avec, bvec, cvec = _as_vector(a), _as_vector(b), _as_vector(c)
    da, db, dc = (model.degree_of(v) for v in (avec, bvec, cvec))
    needed = borcherds_required_truncation(model, a, b, c, m, n, k)
    _require(model, needed, "Borcherds window")
    diff = StateVector()  # left side minus right side
    for j in range(da + db - n):
        binom = binomial(m, j)
        if binom:
            sj = state_product(model, avec, n + j, bvec)
            diff.add(state_product(model, sj, m + k - j, cvec), binom)
    for j in range(db + dc - k):
        binom = binomial(n, j)
        if binom:
            inner = state_product(model, bvec, k + j, cvec)
            diff.add(state_product(model, avec, m + n - j, inner),
                     binom if j % 2 else -binom)
    for j in range(da + dc - m):
        binom = binomial(n, j)
        if binom:
            inner = state_product(model, avec, m + j, cvec)
            diff.add(state_product(model, bvec, n + k - j, inner),
                     -binom if (j + n) % 2 else binom)
    return Residual("borcherds", diff.max_abs(),
                    {"m": m, "n": n, "k": k, "degrees": (da, db, dc)})


def skewsymmetry_residual(model: Model, a, b, n: int) -> Residual:
    """Residual of a_(n) b = -sum_j ((-1)^(j+n)/j!) L_{-1}^j b_(n+j) a, the
    sum by Horner: S_j = (-1)^(j+n) b_(n+j) a + L_{-1} S_{j+1} / (j+1)."""
    avec, bvec = _as_vector(a), _as_vector(b)
    da, db = model.degree_of(avec), model.degree_of(bvec)
    _require(model, max(da, db, da + db - n - 1), "skewsymmetry window")
    total = StateVector()
    for j in reversed(range(da + db - n)):
        total = apply_mode(model, model.nu, -1, total).scale(Q(1, j + 1))
        total.add(state_product(model, bvec, n + j, avec),
                  -1 if (j + n) % 2 else 1)
    total.add(state_product(model, avec, n, bvec))
    return Residual("skewsymmetry", total.max_abs(), {"n": n})


def _bracket_residual(model: Model, a: StateVector, p: int, b: StateVector,
                      q: int, rhs, what: str):
    """Exact max over source degrees s of |[a_p, b_q] - rhs(s)| on V_s.

    Plain indices p, q; rhs(s) is the block V_s -> V_{s-p-q} the bracket
    must equal.  The sources are the degrees where the target and both
    intermediate degrees fit the truncation; an empty range raises
    TruncationError naming `what`.  Returns (max, sources).
    """
    n = model.N
    sources = [s for s in range(n + 1)
               if 0 <= s - p - q <= n and s - p <= n and s - q <= n]
    if not sources:
        raise TruncationError(max(p + q, p, q), n, what)
    worst = ZERO
    for s in sources:
        tgt_dim, dim = model.dim(s - p - q), model.dim(s)
        comm = xl.zero_block(tgt_dim, dim)
        if s - q >= 0:
            bq = _vec_block(model, b, q, s)
            ap_after = _vec_block(model, a, p, s - q)
            comm = xl.mat_add(comm, xl.compose(ap_after, bq, tgt_dim, dim))
        if s - p >= 0:
            ap = _vec_block(model, a, p, s)
            bq_after = _vec_block(model, b, q, s - p)
            comm = xl.mat_sub(comm, xl.compose(bq_after, ap, tgt_dim, dim))
        val = xl.max_abs(xl.mat_sub(comm, rhs(s)))
        if val > worst:
            worst = val
    return worst, sources


def commutator_residual(model: Model, a, p: int, b, q: int) -> Residual:
    """Residual of the commutator formula on plain indices p, q.

    Compares [a_p, b_q] against X_{p+q}, X = sum_j C(p + d_a - 1, j) a_(j) b
    (round j = plain j+1-d_a), block-by-block on the common valid source
    range.
    """
    avec, bvec = _as_vector(a), _as_vector(b)
    da, db = model.degree_of(avec), model.degree_of(bvec)
    x = StateVector()
    for j in range(da + db):
        binom = binomial(p + da - 1, j)
        if binom:
            x.add(state_product(model, avec, j, bvec), binom)
    worst, sources = _bracket_residual(
        model, avec, p, bvec, q, lambda s: _vec_block(model, x, p + q, s),
        "commutator window")
    return Residual("commutator", worst, {"p": p, "q": q,
                                          "sources": sources})


def translation_residual(model: Model, a, n: int) -> Residual:
    """Residual of [L_{-1}, a_n] = (-n - d + 1) a_{n-1} on the valid range.

    When a is quasi-primary (L_1 a = nu_(2) a = 0), the commutation family
    [L_m, a_n] = ((d-1)m - n) a_{m+n} is checked for m in {-1,0,1}.
    """
    avec = _as_vector(a)
    d = model.degree_of(avec)
    quasi_primary = state_product(model, model.nu, 2, avec).is_zero()
    checked = {}
    for m in (-1, 0, 1) if quasi_primary else (-1,):
        coeff = (d - 1) * m - n
        checked[m], _ = _bracket_residual(
            model, model.nu, m, avec, n,
            lambda s: xl.mat_scale(_vec_block(model, avec, m + n, s), coeff),
            "translation window")
    return Residual("translation", max(checked.values()),
                    {"n": n, "per_m": checked,
                     "quasi_primary": quasi_primary})


# ---------------------------------------------------------------------------
# randomized identity sweeps


# identity -> (residual, basis states drawn, mode indices drawn)
_SAMPLED = {
    "borcherds": (borcherds_residual, 3, 3),
    "skewsymmetry": (skewsymmetry_residual, 2, 1),
    "commutator": (commutator_residual, 2, 2),
    "translation": (translation_residual, 1, 1),
}
_INDEX_SPAN = 3


def sample_residuals(model: Model, identity: str, count: int,
                     seed: int = 0, degree_cap: int = None):
    """Evaluate one identity on randomly drawn valid tuples.

    Returns (checked, failures) where failures is a list of
    (tuple, residual) pairs; every residual must be exactly zero.  Each
    draw takes its basis states uniformly from those up to degree_cap
    (default max(2, N // 2); above N, where a Virasoro model keeps Verma
    words, it is a ValueError), then its mode indices from [-3, 3]; the
    tuple is the residual's arguments, so a commutator tuple is
    (a, p, b, q).  A draw whose window does not fit the truncation is
    rejected: the residual itself raises TruncationError, and the sampler
    holds no window rule.
    """
    import random

    if identity not in _SAMPLED:
        raise ValueError(f"unknown identity {identity!r}")
    residual, n_states, n_indices = _SAMPLED[identity]
    rng = random.Random(seed)
    cap = degree_cap if degree_cap is not None else max(2, model.N // 2)
    if cap > model.N:
        raise ValueError(f"degree cap {cap} lies above the truncation "
                         f"N = {model.N}")
    pool = [st for d in range(cap + 1) for st in model.basis.states(d)]
    if not pool:
        raise ValueError("no states below the degree cap")
    checked = 0
    failures = []
    attempts = 0
    while checked < count:
        attempts += 1
        if attempts > 200 * count:
            raise RuntimeError(
                f"sampling for {identity} rejects too often; "
                "loosen the caps or raise N")
        tup = tuple(rng.choice(pool) for _ in range(n_states)) + tuple(
            rng.randint(-_INDEX_SPAN, _INDEX_SPAN) for _ in range(n_indices))
        if identity == "commutator":  # drawn (a, b, p, q)
            tup = (tup[0], tup[2], tup[1], tup[3])
        try:
            res = residual(model, *tup)
        except TruncationError:
            continue
        checked += 1
        if not res.is_zero:
            failures.append((tup, res))
    return checked, failures
