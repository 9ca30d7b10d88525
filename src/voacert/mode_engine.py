"""Exact mode matrices and the defining-identity residuals.

Every homogeneous state a of a Model gets degree-shifting block matrices
for its modes: a_(n) in the round convention, a_n = a_(n+d-1) in the plain
one.  Composite states are peeled by their leading canonical factor using
the homogeneous mode-expansion formula, with j-cutoffs supplied by the
annihilation thresholds of the truncation, so every block is exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import exactlinalg as xl
from .errors import TruncationError
from .graded_fock import BasisState, Model, StateVector
from .scalars import ONE, Q, ZERO, binomial


# ---------------------------------------------------------------------------
# block-level engine (all indices plain)


def _state_block(model: Model, state: BasisState, k: int, s: int):
    """Block of the plain mode k of a basis state: degree s -> s - k."""
    tgt = s - k
    if tgt < 0:
        return xl.zeros(0, model.basis.dim(s))
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
    if not state.factors:
        if state.sector == 0:
            # vacuum: plain mode k is delta_{k,0} identity
            if k == 0:
                return xl.identity(basis.dim(s))
            return xl.zeros(basis.dim(tgt), basis.dim(s))
        if state.sector in (1, -1):
            # unit-charge tops are generators; go through the block cache
            return model.gen_block(1 if state.sector == 1 else 2, k, s)
        from .graded_fock import vertex_mode_block

        return vertex_mode_block(model, state.sector, k, s)
    if state.sector == 0 and len(state.factors) == 1:
        gid, mode = state.factors[0]
        if -mode == model.generators[gid].degree:
            return model.gen_block(gid, k, s)
    # peel the leading factor: state = g_{n0} . tail
    gid, n0 = state.factors[0]
    dg = model.generators[gid].degree
    tail = model.reduce_word(state.sector, state.factors[1:])
    acc = xl.zeros(basis.dim(tgt), basis.dim(s))
    j1_max = s - k + n0  # beyond this the inner tail mode annihilates V_s
    j2_max = s + dg - 1  # beyond this the inner generator mode annihilates
    for j in range(0, max(j1_max, j2_max) + 1):
        binom = binomial(n0 + dg - 1, j)
        if not binom:
            continue
        sign = -ONE if j % 2 else ONE
        if j <= j1_max:
            mid = s - (k - n0 + j)
            inner = _vec_block(model, tail, k - n0 + j, s)
            outer = model.gen_block(gid, n0 - j, mid)
            prod = xl.compose(outer, inner, basis.dim(tgt), basis.dim(s))
            xl.add_scaled(acc, prod, sign * binom)
        if j <= j2_max:
            mid = s - (j + 1 - dg)
            inner = model.gen_block(gid, j + 1 - dg, s)
            outer = _vec_block(model, tail, k - j + dg - 1, mid)
            sign2 = sign if (n0 + dg) % 2 == 0 else -sign
            prod = xl.compose(outer, inner, basis.dim(tgt), basis.dim(s))
            xl.add_scaled(acc, prod, sign2 * binom)
    return acc


def _vec_block(model: Model, vec: StateVector, k: int, s: int):
    """Block of the plain mode k of a homogeneous vector.

    The result may be a shared cache entry (it is one for a single basis
    state with coefficient 1), so callers must not mutate it.
    """
    tgt = s - k
    if tgt < 0:
        return xl.zeros(0, model.basis.dim(s))
    if len(vec.terms) == 1:
        (st, co), = vec.terms.items()
        if co == ONE:
            return _state_block(model, st, k, s)
    acc = xl.zeros(model.basis.dim(tgt), model.basis.dim(s))
    for st, co in vec.terms.items():
        xl.add_scaled(acc, _state_block(model, st, k, s), co)
    return acc


def _as_vector(a) -> StateVector:
    if isinstance(a, BasisState):
        return StateVector.basis(a)
    return a


def _plain_index(model: Model, a: StateVector, n: int, convention: str) -> int:
    """Translate a mode index to the plain convention (a_n = a_(n+d-1))."""
    if convention == "plain":
        return n
    if convention == "round":
        d = model.degree_of(a)
        return n - d + 1
    raise ValueError(f"unknown convention {convention!r}")


# ---------------------------------------------------------------------------
# public matrix objects


@dataclass
class ModeMatrix:
    """Degree-shifting exact matrix of one mode on the truncation.

    blocks maps source degree -> (dim(source - shift) x dim(source))
    matrix; shift is the plain index.
    """

    model: Model
    shift: int
    blocks: dict
    owner: str = ""
    convention: str = "plain"
    index: int = 0

    def valid_sources(self):
        return sorted(self.blocks)

    def block(self, s: int):
        if s not in self.blocks:
            raise TruncationError(s - self.shift, self.model.N,
                                  f"source degree {s} for {self.owner}")
        return self.blocks[s]

    def apply(self, vec: StateVector) -> StateVector:
        out = StateVector()
        by_degree = {}
        for st, co in vec.terms.items():
            by_degree.setdefault(self.model.basis.degree_of(st), []).append(
                (st, co))
        for s, terms in by_degree.items():
            coords = [ZERO] * self.model.dim(s)
            for st, co in terms:
                coords[self.model.basis.position_of(st)] = co
            image = xl.mat_vec(self.block(s), coords)
            tgt = s - self.shift
            for pos, val in enumerate(image):
                out.add_term(self.model.basis.states(tgt)[pos], val)
        return out

    def max_abs(self):
        return max((xl.max_abs(m) for m in self.blocks.values()),
                   default=ZERO)

    def is_zero(self) -> bool:
        return all(xl.is_zero(m) for m in self.blocks.values())


def _assemble(model: Model, getter, shift: int, owner: str,
              convention: str, index: int, sources=None) -> ModeMatrix:
    if sources is None:
        sources = [s for s in range(model.N + 1) if s - shift <= model.N]
    blocks = {s: getter(s) for s in sources}
    return ModeMatrix(model, shift, blocks, owner, convention, index)


def generator_mode(model: Model, gen: int, m: int) -> ModeMatrix:
    """Exact matrix of the plain m-th mode of a generator."""
    if gen not in model.generators:
        raise KeyError(f"no generator {gen}")
    sources = [s for s in range(model.N + 1) if s - m <= model.N]
    if not sources:
        raise TruncationError(-m, model.N, f"generator mode {m}")
    return _assemble(model, lambda s: model.gen_block(gen, m, s), m,
                     model.generators[gen].name, "plain", m, sources)


def mode_of_state(model: Model, a, k: int,
                  convention: str = "plain") -> ModeMatrix:
    """Exact matrix of the k-th mode of a homogeneous state."""
    vec = _as_vector(a)
    if vec.is_zero():
        return _assemble(model, lambda s: xl.zeros(
            model.dim(s - k) if s >= k else 0, model.dim(s)),
            k, "0", convention, k)
    shift = _plain_index(model, vec, k, convention)
    sources = [s for s in range(model.N + 1) if s - shift <= model.N]
    if not sources:
        raise TruncationError(-shift, model.N, f"mode {k}")
    return _assemble(model, lambda s: _vec_block(model, vec, shift, s),
                     shift, repr(a), convention, k, sources)


def state_product(model: Model, a, n: int, b) -> StateVector:
    """a_(n) b in the round convention, as an exact vector."""
    avec, bvec = _as_vector(a), _as_vector(b)
    if avec.is_zero() or bvec.is_zero():
        return StateVector()
    da = model.degree_of(avec)
    shift = n - da + 1
    out = StateVector()
    by_degree = {}
    for st, co in bvec.terms.items():
        by_degree.setdefault(model.basis.degree_of(st), StateVector()) \
            .add_term(st, co)
    for s, part in by_degree.items():
        tgt = s - shift
        if tgt < 0:
            continue
        if tgt > model.N:
            raise TruncationError(tgt, model.N, "product degree overflow")
        mat = _vec_block(model, avec, shift, s)
        coords = model.coords(part, s)
        image = xl.mat_vec(mat, coords)
        for pos, val in enumerate(image):
            out.add_term(model.basis.states(tgt)[pos], val)
    return out


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
    diff = lhs - rhs
    return Residual("borcherds", diff.max_abs(),
                    {"m": m, "n": n, "k": k, "degrees": (da, db, dc)})


def skewsymmetry_residual(model: Model, a, b, n: int) -> Residual:
    """Residual of a_(n) b = -sum_j ((-1)^(j+n)/j!) L_{-1}^j b_(n+j) a."""
    avec, bvec = _as_vector(a), _as_vector(b)
    da, db = model.degree_of(avec), model.degree_of(bvec)
    _require(model, max(da, db, da + db - n - 1), "skewsymmetry window")
    lhs = state_product(model, avec, n, bvec)
    total = lhs.copy()
    fact = ONE
    lminus1 = mode_of_state(model, model.nu, -1)
    for j in range(da + db - n):
        if j:
            fact = fact * Q(j)
        term = state_product(model, bvec, n + j, avec)
        if term.is_zero():
            continue
        for _ in range(j):
            term = lminus1.apply(term)
        sign = -ONE if (j + n) % 2 else ONE
        total = total + term.scale(sign / fact)
    return Residual("skewsymmetry", total.max_abs(), {"n": n})


def commutator_residual(model: Model, a, p: int, b, q: int) -> Residual:
    """Residual of the commutator formula on plain indices p, q.

    Compares [a_p, b_q] against sum_j C(p + d_a - 1, j) (a_{j+1-d_a} b)_{p+q}
    block-by-block on the common valid source range.
    """
    avec, bvec = _as_vector(a), _as_vector(b)
    da, db = model.degree_of(avec), model.degree_of(bvec)
    products = []
    for j in range(da + db):
        binom = binomial(p + da - 1, j)
        if not binom:
            continue
        xj = state_product(model, avec, j, bvec)  # round j = plain j+1-d_a
        if not xj.is_zero():
            products.append((binom, xj))
    sources = [s for s in range(model.N + 1)
               if 0 <= s - p - q <= model.N and s - p <= model.N
               and s - q <= model.N]
    if not sources:
        raise TruncationError(max(p + q, p, q), model.N, "commutator window")
    worst = ZERO
    for s in sources:
        tgt_dim = model.dim(s - p - q)
        comm = xl.zeros(tgt_dim, model.dim(s))
        if s - q >= 0:
            bq = _vec_block(model, bvec, q, s)
            ap_after = _vec_block(model, avec, p, s - q)
            comm = xl.mat_add(comm, xl.compose(ap_after, bq, tgt_dim,
                                               model.dim(s)))
        if s - p >= 0:
            ap = _vec_block(model, avec, p, s)
            bq_after = _vec_block(model, bvec, q, s - p)
            comm = xl.mat_sub(comm, xl.compose(bq_after, ap, tgt_dim,
                                               model.dim(s)))
        rhs = xl.zeros(tgt_dim, model.dim(s))
        for binom, xj in products:
            xl.add_scaled(rhs, _vec_block(model, xj, p + q, s), binom)
        m = xl.max_abs(xl.mat_sub(comm, rhs))
        if m > worst:
            worst = m
    return Residual("commutator", worst, {"p": p, "q": q,
                                          "sources": sources})


def translation_residual(model: Model, a, n: int,
                         quasi_primary: bool = None) -> Residual:
    """Residual of [L_{-1}, a_n] = (-n - d + 1) a_{n-1} on the valid range.

    When a is quasi-primary (detected unless overridden), the commutation
    family [L_m, a_n] = ((d-1)m - n) a_{m+n} is checked for m in {-1,0,1}.
    """
    avec = _as_vector(a)
    d = model.degree_of(avec)
    if quasi_primary is None:
        l1a = state_product(model, model.nu, 2, avec)  # L_1 = nu_(2)
        quasi_primary = l1a.is_zero()
    ms = (-1, 0, 1) if quasi_primary else (-1,)
    worst = ZERO
    checked = {}
    for m in ms:
        sources = [s for s in range(model.N + 1)
                   if 0 <= s - m - n <= model.N and s - n <= model.N
                   and s - m <= model.N]
        if not sources:
            raise TruncationError(max(m + n, n, m), model.N,
                                  "translation window")
        local = ZERO
        for s in sources:
            tgt_dim = model.dim(s - m - n)
            comm = xl.zeros(tgt_dim, model.dim(s))
            if s - n >= 0:
                an = _vec_block(model, avec, n, s)
                lm_after = mode_lblock(model, m, s - n)
                comm = xl.mat_add(comm, xl.compose(lm_after, an, tgt_dim,
                                                   model.dim(s)))
            if s - m >= 0:
                lm = mode_lblock(model, m, s)
                an_after = _vec_block(model, avec, n, s - m)
                comm = xl.mat_sub(comm, xl.compose(an_after, lm, tgt_dim,
                                                   model.dim(s)))
            coeff = Q((d - 1) * m - n)
            rhs = xl.mat_scale(_vec_block(model, avec, m + n, s), coeff)
            val = xl.max_abs(xl.mat_sub(comm, rhs))
            if val > local:
                local = val
        checked[m] = local
        if local > worst:
            worst = local
    return Residual("translation", worst,
                    {"n": n, "per_m": checked,
                     "quasi_primary": quasi_primary})


def mode_lblock(model: Model, m: int, s: int):
    """Block of L_m (plain mode m of the conformal state)."""
    return _vec_block(model, model.nu, m, s)


# ---------------------------------------------------------------------------
# randomized identity sweeps


def sample_residuals(model: Model, identity: str, count: int,
                     seed: int = 0, degree_cap: int = None,
                     index_span: int = 3):
    """Evaluate one identity on randomly drawn valid tuples.

    Returns (checked, failures) where failures is a list of
    (tuple, residual) pairs; every residual must be exactly zero.  Tuples
    are drawn uniformly from basis states up to degree_cap and mode
    indices in [-index_span, index_span], rejecting windows that do not
    fit the truncation.
    """
    import random

    rng = random.Random(seed)
    cap = degree_cap if degree_cap is not None else max(2, model.N // 2)
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
        if identity == "borcherds":
            a, b, c = (rng.choice(pool) for _ in range(3))
            m, n, k = (rng.randint(-index_span, index_span)
                       for _ in range(3))
            if borcherds_required_truncation(model, a, b, c, m, n, k) \
                    > model.N:
                continue
            res = borcherds_residual(model, a, b, c, m, n, k)
            tup = (a, b, c, m, n, k)
        elif identity == "skewsymmetry":
            a, b = rng.choice(pool), rng.choice(pool)
            n = rng.randint(-index_span, index_span)
            da = model.basis.degree_of(a)
            db = model.basis.degree_of(b)
            if max(da, db, da + db - n - 1) > model.N:
                continue
            res = skewsymmetry_residual(model, a, b, n)
            tup = (a, b, n)
        elif identity == "commutator":
            a, b = rng.choice(pool), rng.choice(pool)
            p, q = (rng.randint(-index_span, index_span) for _ in range(2))
            da = model.basis.degree_of(a)
            db = model.basis.degree_of(b)
            if da + db - 1 > model.N:
                continue
            try:
                res = commutator_residual(model, a, p, b, q)
            except TruncationError:
                continue
            tup = (a, p, b, q)
        elif identity == "translation":
            a = rng.choice(pool)
            n = rng.randint(-index_span, index_span)
            try:
                res = translation_residual(model, a, n)
            except TruncationError:
                continue
            tup = (a, n)
        else:
            raise ValueError(f"unknown identity {identity!r}")
        checked += 1
        if not res.is_zero:
            failures.append((tup, res))
    return checked, failures
