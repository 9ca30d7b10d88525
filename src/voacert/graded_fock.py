"""Graded bases and truncated model construction.

Three families are supported: rank-r Heisenberg Fock spaces, Virasoro
vacuum modules (built as Verma quotients by the Gram radical), and rank-1
even lattice models with trivial cocycle.  A built Model carries exact
generator mode matrices per graded block and is immutable afterwards.
"""

from __future__ import annotations

import cmath
import itertools
from dataclasses import dataclass, field

from . import exactlinalg as xl
from .errors import ModelBugError, SpecError, TruncationError
from .scalars import ONE, Q, ZERO, rational


# ---------------------------------------------------------------------------
# specs and basis labels


@dataclass(frozen=True)
class ModelSpec:
    """What to build: kind + parameters + truncation."""

    kind: str  # "heisenberg" | "virasoro" | "lattice"
    N: int
    rank: int = 1
    metric: tuple = ()  # rows of rationals, Heisenberg only
    c: object = None  # rational central charge, Virasoro only
    q: int = 0  # <gamma,gamma>, lattice only

    def validate(self):
        if self.N < 0:
            raise SpecError("truncation N must be nonnegative")
        if self.kind == "heisenberg":
            if self.rank < 1:
                raise SpecError("Heisenberg rank must be positive")
            m = self.metric_matrix()
            if xl.transpose(m) != m:
                raise SpecError("Heisenberg metric must be symmetric")
            if not _is_positive_definite(m):
                raise SpecError("Heisenberg metric must be positive definite")
        elif self.kind == "virasoro":
            if self.c is None:
                raise SpecError("Virasoro model needs a central charge")
        elif self.kind == "lattice":
            if self.q < 2 or self.q % 2 != 0:
                raise SpecError("lattice <gamma,gamma> must be even and >= 2")
        else:
            raise SpecError(f"unknown model kind {self.kind!r}")

    def metric_matrix(self):
        if self.metric:
            return [[rational(x) for x in row] for row in self.metric]
        return xl.identity(self.rank)

    def describe(self) -> str:
        if self.kind == "heisenberg":
            return f"heisenberg(rank={self.rank}, N={self.N})"
        if self.kind == "virasoro":
            return f"virasoro(c={self.c}, N={self.N})"
        return f"lattice(q={self.q}, N={self.N})"


def heisenberg_spec(rank: int = 1, N: int = 8, metric=None) -> ModelSpec:
    met = tuple(tuple(row) for row in metric) if metric is not None else ()
    return ModelSpec(kind="heisenberg", N=N, rank=rank, metric=met)


def virasoro_spec(c, N: int = 8) -> ModelSpec:
    return ModelSpec(kind="virasoro", N=N, c=rational(c))


def lattice_spec(q: int = 2, N: int = 6) -> ModelSpec:
    return ModelSpec(kind="lattice", N=N, q=q)


def _is_positive_definite(m) -> bool:
    # Sylvester minors, exact.
    n = len(m)
    for k in range(1, n + 1):
        sub = [row[:k] for row in m[:k]]
        if _det(sub) <= 0:
            return False
    return True


def _det(m):
    n = len(m)
    if n == 0:
        return ONE
    a = [list(row) for row in m]
    det = ONE
    for col in range(n):
        piv = next((i for i in range(col, n) if a[i][col]), None)
        if piv is None:
            return ZERO
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det *= a[col][col]
        inv = ONE / a[col][col]
        for i in range(col + 1, n):
            f = a[i][col] * inv
            if f:
                a[i] = [x - f * y for x, y in zip(a[i], a[col])]
    return det


@dataclass(frozen=True)
class BasisState:
    """Canonical PBW label: charge sector plus a creation-mode multiset.

    factors are (generator id, plain mode index < 0) sorted by generator id
    ascending then mode index descending; the word acts left to right on the
    sector top vector.
    """

    sector: int
    factors: tuple

    def word_length(self) -> int:
        return len(self.factors)

    def oscillator_degree(self) -> int:
        return -sum(m for _, m in self.factors)

    def __repr__(self):
        parts = "".join(f"g{g}[{m}]" for g, m in self.factors)
        top = "Om" if self.sector == 0 else f"e({self.sector})"
        return f"<{parts}{top}>"


def canonical_factors(factors) -> tuple:
    return tuple(sorted(factors, key=lambda f: (f[0], -f[1])))


class GradedBasis:
    """Per-degree indexed lists of BasisState labels."""

    def __init__(self, states_by_degree):
        self.states_by_degree = states_by_degree
        self.index = {}
        for deg, states in enumerate(states_by_degree):
            for pos, st in enumerate(states):
                self.index[st] = (deg, pos)

    @property
    def max_degree(self) -> int:
        return len(self.states_by_degree) - 1

    def dim(self, degree: int) -> int:
        if degree < 0 or degree > self.max_degree:
            return 0
        return len(self.states_by_degree[degree])

    def dims(self, upto=None):
        upto = self.max_degree if upto is None else upto
        return [self.dim(d) for d in range(upto + 1)]

    def states(self, degree: int):
        if degree < 0 or degree > self.max_degree:
            return []
        return self.states_by_degree[degree]

    def degree_of(self, state: BasisState) -> int:
        return self.index[state][0]

    def position_of(self, state: BasisState) -> int:
        return self.index[state][1]


class StateVector:
    """Exact linear combination of basis labels, optionally degree-tagged."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = dict(terms) if terms else {}

    @classmethod
    def basis(cls, state: BasisState, coeff=ONE):
        return cls({state: coeff}) if coeff else cls()

    def copy(self):
        return StateVector(self.terms)

    def add_term(self, state: BasisState, coeff):
        if not coeff:
            return
        cur = self.terms.get(state, ZERO) + coeff
        if cur:
            self.terms[state] = cur
        else:
            self.terms.pop(state, None)

    def __add__(self, other):
        out = self.copy()
        for st, co in other.terms.items():
            out.add_term(st, co)
        return out

    def __sub__(self, other):
        out = self.copy()
        for st, co in other.terms.items():
            out.add_term(st, -co)
        return out

    def scale(self, s):
        if not s:
            return StateVector()
        return StateVector({st: s * co for st, co in self.terms.items()})

    def is_zero(self) -> bool:
        return not self.terms

    def max_abs(self):
        return max((abs(co) for co in self.terms.values()), default=ZERO)

    def __eq__(self, other):
        return isinstance(other, StateVector) and self.terms == other.terms

    def __repr__(self):
        if not self.terms:
            return "0"
        return " + ".join(f"({co})*{st}" for st, co in sorted(
            self.terms.items(), key=lambda t: repr(t[0])))


# ---------------------------------------------------------------------------
# enumeration


def _partitions(n: int, min_part: int = 1, max_part=None):
    """Yield partitions of n with parts >= min_part, parts nonincreasing."""
    if n == 0:
        yield ()
        return
    if max_part is None:
        max_part = n
    for first in range(min(n, max_part), min_part - 1, -1):
        for rest in _partitions(n - first, min_part, first):
            yield (first,) + rest


def _gen_words(gens, degree: int):
    """All canonical factor tuples of total oscillator degree `degree`.

    gens: list of (generator id, minimal part).
    """
    if not gens:
        if degree == 0:
            yield ()
        return
    (gid, min_part), rest = gens[0], gens[1:]
    for here in range(degree + 1):
        for lam in _partitions(here, min_part):
            head = tuple((gid, -k) for k in sorted(lam))
            for tail in _gen_words(rest, degree - here):
                yield head + tail


def _sector_ground(spec: ModelSpec, sector: int) -> int:
    if spec.kind != "lattice":
        return 0
    return sector * sector * spec.q // 2


def enumerate_basis(spec: ModelSpec) -> GradedBasis:
    """Canonical graded basis labels up to spec.N.

    For Virasoro this is the free (Verma) enumeration with parts >= 2; the
    built model may be smaller after the Gram-radical quotient.
    """
    spec.validate()
    return _enumerate_internal(spec, spec.N)


def _enumerate_internal(spec: ModelSpec, nmax: int) -> GradedBasis:
    if spec.kind == "heisenberg":
        gens = [(i, 1) for i in range(spec.rank)]
        sectors = [0]
    elif spec.kind == "virasoro":
        gens = [(0, 2)]
        sectors = [0]
    else:
        gens = [(0, 1)]
        sectors = []
        m = 0
        while _sector_ground(spec, m) <= nmax:
            sectors.append(m)
            if m > 0:
                sectors.append(-m)
            m += 1
    by_degree = [[] for _ in range(nmax + 1)]
    for sector in sectors:
        ground = _sector_ground(spec, sector)
        for osc in range(nmax - ground + 1):
            for word in _gen_words(gens, osc):
                by_degree[ground + osc].append(BasisState(sector, word))
    for states in by_degree:
        states.sort(key=lambda s: (s.sector, s.word_length(), s.factors))
    return GradedBasis(by_degree)


# ---------------------------------------------------------------------------
# the Model container


@dataclass
class GeneratorInfo:
    name: str
    degree: int
    star: int  # generator id of the star partner (coefficient +1)


class Model:
    """A fully built truncated model.

    Construction is a single-writer phase; afterwards the object is
    treated as immutable (caches fill idempotently).
    """

    def __init__(self, spec: ModelSpec, n_internal: int, basis: GradedBasis,
                 generators, gen_blocks, nu: StateVector, c):
        self.spec = spec
        self.N = spec.N
        self.n_internal = n_internal
        self.basis = basis
        self.generators = generators  # gid -> GeneratorInfo
        self._gen_blocks = gen_blocks  # (gid, m) -> {src_degree: matrix}
        self.nu = nu
        self.c = c
        self._state_mode_cache = {}
        self._vertex_cache = {}
        self._creation_cache = {}  # (charge, q, room) -> creation words
        self._reduce_cache = {}
        self._virasoro_projector = None  # set by the Virasoro builder
        self._lazy_builder = None  # optional (gid, m, src) -> matrix

    # -- basic queries ------------------------------------------------------

    @property
    def vacuum(self) -> BasisState:
        return BasisState(0, ())

    def dim(self, degree: int) -> int:
        return self.basis.dim(degree)

    def degree_of_state(self, state: BasisState) -> int:
        return self.basis.degree_of(state)

    def degree_of(self, vec: StateVector):
        """Degree of a homogeneous vector, None for 0, error if mixed."""
        degs = {self.basis.degree_of(st) for st in vec.terms}
        if not degs:
            return None
        if len(degs) > 1:
            raise ValueError(f"vector not homogeneous: degrees {sorted(degs)}")
        return degs.pop()

    def coords(self, vec: StateVector, degree: int):
        out = [ZERO] * self.dim(degree)
        for st, co in vec.terms.items():
            d, pos = self.basis.index[st]
            if d != degree:
                raise ValueError("vector has support outside requested degree")
            out[pos] = co
        return out

    def from_coords(self, degree: int, coords) -> StateVector:
        vec = StateVector()
        for pos, co in enumerate(coords):
            vec.add_term(self.basis.states(degree)[pos], co)
        return vec

    # -- generator modes ----------------------------------------------------

    def gen_block(self, gid: int, m: int, src_degree: int):
        """Exact block of generator plain mode m: degree src -> src - m.

        Returns a (dim_target x dim_src) matrix; empty target gives a
        0-row matrix.  Raises TruncationError when the target escapes the
        internal truncation.
        """
        tgt = src_degree - m
        dim_src = self.basis.dim(src_degree)
        if tgt < 0:
            return xl.zeros(0, dim_src)
        if tgt > self.n_internal or src_degree > self.n_internal:
            raise TruncationError(max(tgt, src_degree), self.n_internal,
                                  f"generator {gid} mode {m}")
        blocks = self._gen_blocks.get((gid, m))
        if blocks is None:
            if self._lazy_builder is not None:
                blocks = self._gen_blocks.setdefault((gid, m), {})
            elif m > 0:
                # mode index beyond anything stored: annihilates
                return xl.zeros(self.basis.dim(tgt), dim_src)
            else:
                raise TruncationError(tgt, self.n_internal,
                                      f"generator {gid} mode {m} not stored")
        if src_degree not in blocks:
            if self._lazy_builder is None:
                return xl.zeros(self.basis.dim(tgt), dim_src)
            blocks[src_degree] = self._lazy_builder(gid, m, src_degree)
        return blocks[src_degree]

    def gen_mode_range(self):
        return range(-self.n_internal, self.n_internal + 1)

    # -- canonical word reduction (identity except for Virasoro quotient) ---

    def reduce_word(self, sector: int, factors) -> StateVector:
        """Class of a canonical word in the model basis."""
        factors = canonical_factors(factors)
        state = BasisState(sector, factors)
        if state in self.basis.index:
            return StateVector.basis(state)
        if self.spec.kind != "virasoro":
            raise KeyError(f"state {state} not in basis")
        key = (sector, factors)
        if key not in self._reduce_cache:
            self._reduce_cache[key] = self._virasoro_projector(factors)
        return self._reduce_cache[key].copy()


# ---------------------------------------------------------------------------
# Heisenberg builder


def _heisenberg_blocks(spec: ModelSpec, basis: GradedBasis, n_internal: int,
                       metric, lattice_sector_charge=False):
    """Mode matrices for the current generators alpha^i.

    With lattice_sector_charge=True there is a single current (gid 0) whose
    zero mode is sector * q and whose two-point constant is q.
    """
    rank = 1 if lattice_sector_charge else spec.rank
    blocks = {}
    for gid in range(rank):
        for m in range(-n_internal, n_internal + 1):
            per_src = {}
            for src in range(n_internal + 1):
                tgt = src - m
                if tgt < 0 or tgt > n_internal:
                    continue
                mat = xl.zeros(basis.dim(tgt), basis.dim(src))
                for col, st in enumerate(basis.states(src)):
                    for tstate, coeff in _current_action(
                            spec, gid, m, st, metric, lattice_sector_charge):
                        row = basis.position_of(tstate)
                        mat[row][col] += coeff
                per_src[src] = mat
            blocks[(gid, m)] = per_src
    return blocks


def _current_action(spec, gid, m, st: BasisState, metric,
                    lattice_sector_charge):
    """Terms of alpha^gid_m applied to one basis state."""
    if m == 0:
        if lattice_sector_charge and st.sector:
            yield st, Q(st.sector * spec.q)
        return
    if m < 0:
        yield BasisState(st.sector,
                         canonical_factors(st.factors + ((gid, m),))), ONE
        return
    seen = set()
    for i, (g, mode) in enumerate(st.factors):
        if mode != -m or (g, mode) in seen:
            continue
        seen.add((g, mode))
        count = sum(1 for f in st.factors if f == (g, mode))
        pair = Q(spec.q) if lattice_sector_charge else metric[gid][g]
        coeff = Q(m) * pair * count
        if coeff:
            rest = list(st.factors)
            rest.remove((g, mode))
            yield BasisState(st.sector, tuple(rest)), coeff


def _build_heisenberg(spec: ModelSpec) -> Model:
    n_internal = spec.N
    basis = _enumerate_internal(spec, n_internal)
    metric = spec.metric_matrix()
    blocks = _heisenberg_blocks(spec, basis, n_internal, metric)
    minv = xl.inverse(metric)
    nu = StateVector()
    if spec.N >= 2:
        for i in range(spec.rank):
            for j in range(spec.rank):
                co = minv[i][j] / 2
                if co:
                    st = BasisState(0, canonical_factors(((i, -1), (j, -1))))
                    nu.add_term(st, co)
    else:
        raise SpecError("truncation too small to hold the conformal state "
                        "(need N >= 2)")
    gens = {i: GeneratorInfo(name=f"alpha{i}", degree=1, star=i)
            for i in range(spec.rank)}
    return Model(spec, n_internal, basis, gens, blocks, nu, Q(spec.rank))


# ---------------------------------------------------------------------------
# Virasoro builder


class _VermaEngine:
    """Exact action of Virasoro modes on vacuum-Verma words (parts >= 2)."""

    def __init__(self, c, nmax: int):
        self.c = c
        self.nmax = nmax
        self._cache = {}
        self._gram_cache = {}

    def apply(self, p: int, word: tuple):
        """L_p acting on the word L_{-k1} L_{-k2} ... Omega (k ascending).

        Returns dict word -> coefficient; words of degree > nmax dropped.
        """
        if sum(word) - p > self.nmax:
            return {}
        key = (p, word)
        if key in self._cache:
            return self._cache[key]
        if not word:
            out = {(-p,): ONE} if p <= -2 else {}
        elif p <= -2 and -p <= word[0]:
            out = {(-p,) + word: ONE}
        else:
            k1, rest = word[0], word[1:]
            out = {}
            for w, co in self.apply(p, rest).items():
                for w2, co2 in self.apply(-k1, w).items():
                    _acc(out, w2, co * co2)
            fac = Q(p + k1)
            if fac:
                for w, co in self.apply(p - k1, rest).items():
                    _acc(out, w, fac * co)
            if p == k1:
                central = self.c / 12 * Q(p ** 3 - p)
                if central:
                    _acc(out, rest, central)
        self._cache[key] = out
        return out

    def apply_vec(self, p: int, vec: dict) -> dict:
        out = {}
        for w, co in vec.items():
            for w2, co2 in self.apply(p, w).items():
                _acc(out, w2, co * co2)
        return out

    def gram(self, u: tuple, v: tuple):
        """Invariant pairing (u | v) on the Verma module."""
        if sum(u) != sum(v):
            return ZERO
        if not u:
            return ONE if not v else ZERO
        key = (u, v)
        if key in self._gram_cache:
            return self._gram_cache[key]
        k1, rest = u[0], u[1:]
        lowered = self.apply(k1, v)
        out = sum((co * self.gram(rest, w) for w, co in lowered.items()),
                  ZERO)
        self._gram_cache[key] = out
        return out


def _acc(d, key, val):
    if not val:
        return
    cur = d.get(key, ZERO) + val
    if cur:
        d[key] = cur
    else:
        d.pop(key, None)


def _build_virasoro(spec: ModelSpec, pad: int = None) -> Model:
    if spec.N < 2:
        raise SpecError("truncation too small to hold the conformal state "
                        "(need N >= 2)")
    # composite-word mode recursions climb one degree per peeled factor;
    # the default padding covers every word that fits below N
    n_internal = spec.N + (spec.N // 2 if pad is None else pad)
    c = rational(spec.c)
    engine = _VermaEngine(c, n_internal)
    verma = _enumerate_internal(spec, n_internal)

    # Gram matrices and radical per degree on the Verma basis.
    kept_by_degree = []
    gram_full = []
    kept_inv = []
    for deg in range(n_internal + 1):
        words = [st.factors for st in verma.states(deg)]
        parts = [tuple(-m for _, m in w) for w in words]
        g = [[engine.gram(u, v) for v in parts] for u in parts]
        if xl.transpose(g) != g:
            raise ModelBugError("Verma Gram not symmetric")
        gram_full.append(g)
        _, pivots = xl.rref(g)
        kept_by_degree.append(pivots)
        sub = [[g[i][j] for j in pivots] for i in pivots]
        kept_inv.append(xl.inverse(sub) if pivots else [])
    if not kept_by_degree[2]:
        raise ModelBugError("conformal state lies in the Gram radical")

    by_degree = [[verma.states(d)[i] for i in kept_by_degree[d]]
                 for d in range(n_internal + 1)]
    basis = GradedBasis(by_degree)

    def project(vec: dict, degree: int):
        """Quotient-class coordinates of a Verma vector at fixed degree."""
        words = [tuple(-m for _, m in st.factors)
                 for st in verma.states(degree)]
        pos = {w: i for i, w in enumerate(words)}
        full = [ZERO] * len(words)
        for w, co in vec.items():
            full[pos[w]] += co
        g = gram_full[degree]
        kept = kept_by_degree[degree]
        rhs = []
        for i in kept:
            rhs.append(sum((g[i][j] * full[j] for j in range(len(words))
                            if full[j]), ZERO))
        return xl.mat_vec(kept_inv[degree], rhs)

    def lazy_block(gid, m, src):
        tgt = src - m
        cols = []
        for st in basis.states(src):
            word = tuple(-mm for _, mm in st.factors)
            image = engine.apply(m, word)
            cols.append(project(image, tgt))
        mat = xl.zeros(basis.dim(tgt), basis.dim(src))
        for j, col in enumerate(cols):
            for i, val in enumerate(col):
                mat[i][j] = val
        return mat

    blocks = {}
    nu_state = by_degree[2][0]
    if tuple(-m for _, m in nu_state.factors) != (2,):
        raise ModelBugError("degree-2 quotient basis does not contain "
                            "the generator word")
    nu = StateVector.basis(nu_state)
    gens = {0: GeneratorInfo(name="virasoro", degree=2, star=0)}
    model = Model(spec, n_internal, basis, gens, blocks, nu, c)
    model._lazy_builder = lazy_block

    def projector(factors):
        word = tuple(-m for _, m in factors)
        deg = sum(word)
        if deg > n_internal:
            raise TruncationError(deg, n_internal, "word degree")
        coords = project({word: ONE}, deg)
        vec = StateVector()
        for pos, co in enumerate(coords):
            vec.add_term(by_degree[deg][pos], co)
        return vec

    model._virasoro_projector = projector
    return model


# ---------------------------------------------------------------------------
# lattice builder


def _build_lattice(spec: ModelSpec) -> Model:
    if spec.N < 2:
        raise SpecError("truncation too small to hold the conformal state "
                        "(need N >= 2)")
    n_internal = spec.N
    basis = _enumerate_internal(spec, n_internal)
    blocks = _heisenberg_blocks(spec, basis, n_internal, metric=None,
                                lattice_sector_charge=True)
    nu = StateVector.basis(
        BasisState(0, canonical_factors(((0, -1), (0, -1)))),
        Q(1, 2 * spec.q))
    half = spec.q // 2
    gens = {
        0: GeneratorInfo(name="current", degree=1, star=0),
        1: GeneratorInfo(name="e+", degree=half, star=2),
        2: GeneratorInfo(name="e-", degree=half, star=1),
    }
    model = Model(spec, n_internal, basis, gens, blocks, nu, ONE)

    # vertex-operator generators share the exponential-mode machinery;
    # blocks materialize on demand
    def lazy_block(gid, m, src):
        charge = 1 if gid == 1 else -1
        return vertex_mode_block(model, charge, m, src)

    model._lazy_builder = lazy_block
    return model


def _vertex_expansion(model: Model, charge: int, src_state: BasisState):
    """Laurent data of Y(e^{charge*gamma}, z) applied to one basis state.

    Returns dict z-power -> StateVector (targets beyond truncation
    dropped); round mode (n) is the coefficient of z^{-n-1}.
    """
    key = (charge, src_state)
    cached = model._vertex_cache.get(key)
    if cached is not None:
        return cached
    spec = model.spec
    q = spec.q
    m0 = src_state.sector
    base_power = charge * m0 * q
    shifted = BasisState(m0 + charge, src_state.factors)
    # annihilation half: exp(-sum_n charge*gamma_n z^-n / n); for each
    # oscillator mode n, gamma_n^t removes t copies of the (0,-n) factor
    # with coefficient (n q)^t * count falling factorial.
    terms = {0: {shifted: ONE}}  # z-power offset -> state dict
    max_osc = src_state.oscillator_degree()
    for n in range(1, max_osc + 1):
        new = {}
        for power, vec in terms.items():
            for st, co in vec.items():
                count = sum(1 for f in st.factors if f == (0, -n))
                rest = list(st.factors)
                falling = 1
                for t in range(count + 1):
                    coeff = (co * Q(-charge, n) ** t / _factorial(t)
                             * Q(n * q) ** t * falling)
                    _accs(new, power - n * t,
                          BasisState(st.sector, tuple(rest)), coeff)
                    falling *= count - t
                    if t < count:
                        rest.remove((0, -n))
        terms = new
    # creation half: exp(sum_n charge*gamma_{-n} z^n / n)
    out = {}
    ground_t = _sector_ground(spec, m0 + charge)
    for power, vec in terms.items():
        for st, co in vec.items():
            deg_here = ground_t + st.oscillator_degree()
            room = model.n_internal - deg_here
            if room < 0:
                continue
            words_key = (charge, q, room)
            words = model._creation_cache.get(words_key)
            if words is None:
                words = model._creation_cache[words_key] = \
                    _creation_words(charge, q, room)
            for add_deg, word, wco in words:
                tstate = BasisState(st.sector,
                                    canonical_factors(st.factors + word))
                _accs(out, base_power + power + add_deg, tstate, co * wco)
    model._vertex_cache[key] = out
    return out


def _creation_words(charge: int, q: int, room: int) -> tuple:
    """Expansion of exp(sum_n charge*gamma_{-n} z^n / n) up to degree room.

    Returns a tuple of (degree, factor tuple, coefficient); coefficients are
    exact.  _vertex_expansion memoizes it per model.
    """
    out = []
    for deg in range(room + 1):
        for lam in _partitions(deg):
            coeff = ONE
            for part, mult in itertools.groupby(lam):
                mult = len(list(mult))
                coeff *= Q(charge, part) ** mult / _factorial(mult)
            word = tuple((0, -k) for k in sorted(lam))
            out.append((deg, word, coeff))
    return tuple(out)


def _factorial(n: int):
    out = ONE
    for i in range(2, n + 1):
        out *= Q(i)
    return out


def _accs(d, power, state, coeff):
    if not coeff:
        return
    vec = d.setdefault(power, {})
    _acc2(vec, state, coeff)


def _acc2(d, key, val):
    if not val:
        return
    cur = d.get(key, ZERO) + val
    if cur:
        d[key] = cur
    else:
        d.pop(key, None)


def vertex_mode_block(model: Model, charge: int, m: int, src_degree: int):
    """Exact block of the plain mode m of e^{charge*gamma}."""
    spec = model.spec
    d = charge * charge * spec.q // 2
    round_index = m + d - 1
    want_power = -round_index - 1
    tgt = src_degree - m
    mat = xl.zeros(model.basis.dim(tgt), model.basis.dim(src_degree))
    for col, st in enumerate(model.basis.states(src_degree)):
        expansion = _vertex_expansion(model, charge, st)
        vec = expansion.get(want_power)
        if not vec:
            continue
        for tstate, coeff in vec.items():
            mat[model.basis.position_of(tstate)][col] += coeff
    return mat


# ---------------------------------------------------------------------------
# public construction API


def build_model(spec: ModelSpec, corrupt=None, pad: int = None) -> Model:
    """Build a truncated model with exact generator data.

    corrupt, when given, is (gid, m, src_degree, row, col, delta): the named
    structure constant is shifted after the build (mutation testing hook).
    pad overrides the internal working margin above N (Virasoro only);
    modes of composite words of length L need pad >= L - 1.
    """
    spec.validate()
    if spec.kind == "heisenberg":
        model = _build_heisenberg(spec)
    elif spec.kind == "virasoro":
        model = _build_virasoro(spec, pad)
    else:
        model = _build_lattice(spec)
    if corrupt is not None:
        gid, m, src, row, col, delta = corrupt
        model.gen_block(gid, m, src)  # materialize if lazy
        blocks = model._gen_blocks[(gid, m)]
        blocks[src][row][col] += rational(delta)
    return model


def conformal_state(model: Model) -> StateVector:
    """The conformal state; its plain modes are the L_n of the model."""
    return model.nu.copy()


# ---------------------------------------------------------------------------
# automorphisms


class Automorphism:
    """Degree-preserving unitary automorphism with exact phase data.

    Basis states map to (state, phase) with the phase recorded as a
    rational number of turns; matrices are complex numpy arrays.
    """

    def __init__(self, model: Model, kind: str, turns=ZERO):
        self.model = model
        self.kind = kind
        self.turns = rational(turns)

    def image(self, state: BasisState):
        """(target state, phase in turns, sign)."""
        if self.kind == "charge_conjugation":
            sign = -ONE if state.word_length() % 2 else ONE
            return BasisState(-state.sector, state.factors), ZERO, sign
        # torus phase: sector m picks up exp(2*pi*i * m * turns)
        frac = self.turns * state.sector
        frac = frac - (frac.numerator // frac.denominator)  # mod 1, in [0,1)
        return state, frac, ONE

    def apply_exact(self, vec: StateVector):
        """Exact image when every phase is rational (+1/-1); None otherwise."""
        out = StateVector()
        for st, co in vec.terms.items():
            tstate, turns, sign = self.image(st)
            if turns == 0:
                out.add_term(tstate, sign * co)
            elif turns == Q(1, 2):
                out.add_term(tstate, -sign * co)
            else:
                return None
        return out

    def fixes_exactly(self, vec: StateVector) -> bool:
        img = self.apply_exact(vec)
        return img is not None and img == vec

    def matrix(self, degree: int):
        import numpy as np

        states = self.model.basis.states(degree)
        n = len(states)
        out = np.zeros((n, n), dtype=complex)
        for col, st in enumerate(states):
            tstate, turns, sign = self.image(st)
            phase = cmath.exp(2j * cmath.pi * float(turns))
            out[self.model.basis.position_of(tstate)][col] = \
                float(sign) * phase
        return out


def automorphism_matrices(model: Model, aut: str, turns=ZERO) -> Automorphism:
    """Construct a unitary automorphism and sanity-check it.

    aut is "charge_conjugation" (Heisenberg / lattice) or "torus_phase"
    (lattice; `turns` is the rational angle in turns).
    """
    if aut == "charge_conjugation":
        if model.spec.kind not in ("heisenberg", "lattice"):
            raise SpecError("charge conjugation needs a Heisenberg or "
                            "lattice model")
        g = Automorphism(model, aut)
    elif aut == "torus_phase":
        if model.spec.kind != "lattice":
            raise SpecError("torus phases act on lattice models only")
        g = Automorphism(model, aut, turns=turns)
    else:
        raise SpecError(f"unknown automorphism {aut!r}")
    # vacuum and conformal state must be fixed
    if not g.fixes_exactly(StateVector.basis(model.vacuum)):
        raise ModelBugError("automorphism moves the vacuum")
    if not g.fixes_exactly(model.nu):
        raise ModelBugError("automorphism moves the conformal state")
    return g
