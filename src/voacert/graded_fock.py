"""Graded bases and truncated model construction.

The free-field builder makes rank-r Heisenberg Fock spaces of a metric,
and rank-1 even lattice models with trivial cocycle: the Heisenberg model
of the metric [[q]] as charge-0 sector (Frenkel, Lepowsky and Meurman
1988) plus the charge sectors and e^{+-gamma}.  The Virasoro builder makes
vacuum modules: Verma quotients by the radical of the Verma Gram (the
Shapovalov form), which it builds, at every degree up to N; the working
margin above N keeps every Verma word.  A Virasoro degree whose Gram is
nonsingular modulo a prime is nonsingular over Q and keeps every word
without an elimination; only the others run the exact rref.  Each builder
hands its model its Gram matrices (the Fock pairing in closed form, the
Verma Gram on the kept words) and names its automorphisms.  A built Model
builds each exact generator mode block on first use, memoizes it, and is
otherwise immutable.  Virasoro blocks come from the action of L_p on
Verma words, kept on int numerators over the denominator of c/2.  A basis
label (BasisState) is a NamedTuple: it equals its plain (sector, factors)
tuple, is iterable and ordered, and keeps its hash, so label-keyed dicts
hash and compare it in C.

Lattice vertex blocks are in closed form.  On sector p, Y(e^{c gamma}, z)
= E^-(z) E^+(z) z^{c p q} (Frenkel, Lepowsky and Meurman 1988), and both
exponentials factor over the oscillator modes, so the coefficient of a
target word mu (a_n parts n) on a source word lambda (k_n parts n) is
prod_n f_n(k_n, a_n) with f_n(k, a) = sum_{l <= min(k, a)} C(k, l)
(-c q)^{k-l} (c/n)^{a-l} / (a-l)!.  That Fock block depends only on the
charge and the two oscillator degrees; a basis degree is sorted by
(sector, word), with the same word order in every sector, so each vertex
block is the memoized Fock blocks placed at the sectors' offsets.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, fields
from typing import NamedTuple

from . import exactlinalg as xl
from .errors import ModelBugError, SpecError, TruncationError
from .scalars import Q, ZERO, canon, rational


# ---------------------------------------------------------------------------
# specs and basis labels


# The spec fields each kind reads besides kind and N; every other field
# must keep its default.
SPEC_FIELDS = {"heisenberg": ("rank", "metric"), "virasoro": ("c",),
               "lattice": ("q",)}


@dataclass(frozen=True)
class ModelSpec:
    """What to build: kind + parameters + truncation."""

    kind: str  # "heisenberg" | "virasoro" | "lattice"
    N: int
    rank: int = 1
    metric: tuple = ()  # rows of rationals, Heisenberg only
    c: object = None  # rational central charge, Virasoro only
    q: int = 0  # <gamma,gamma>, lattice only

    def validate(self, pad: int = None):
        """Raise SpecError for an invalid spec (a field its kind does not
        read off its default among them), or, when a pad is given, for a
        pad on a kind other than Virasoro or outside [0, N]."""
        if self.N < 2:
            raise SpecError("truncation too small to hold the conformal state "
                            "(need N >= 2)")
        if pad is not None and self.kind != "virasoro":
            raise SpecError(f"pad applies to virasoro models only, not "
                            f"{self.kind}")
        if pad is not None and not 0 <= pad <= self.N:
            raise SpecError(f"pad {pad} lies outside [0, {self.N}]")
        if self.kind not in SPEC_FIELDS:
            raise SpecError(f"unknown model kind {self.kind!r}")
        for f in fields(self):
            if f.name not in ("kind", "N") + SPEC_FIELDS[self.kind] and \
                    getattr(self, f.name) != f.default:
                raise SpecError(f"field {f.name!r} does not apply to kind "
                                f"{self.kind!r}")
        if self.kind == "heisenberg":
            if self.rank < 1:
                raise SpecError("Heisenberg rank must be positive")
            if self.metric and (len(self.metric) != self.rank or any(
                    len(row) != self.rank for row in self.metric)):
                raise SpecError(f"Heisenberg metric must be {self.rank} x "
                                f"{self.rank}, the rank")
            m = self.metric_matrix()
            if xl.transpose(m) != m:
                raise SpecError("Heisenberg metric must be symmetric")
            if not xl.positive_definite(m):
                raise SpecError("Heisenberg metric must be positive definite")
        elif self.kind == "virasoro":
            if not self.c:  # None, or 0 with nu in the radical: (nu|nu) = c/2
                raise SpecError("field 'c': a Virasoro model needs a nonzero "
                                "central charge")
        elif self.q < 2 or self.q % 2 != 0:
            raise SpecError("lattice <gamma,gamma> must be even and >= 2")

    def metric_matrix(self) -> xl.Block:
        """The currents' two-point constants; [[q]] for a lattice."""
        if self.kind == "lattice":
            return xl.sparse_block([{0: rational(self.q)}], 1)
        if self.metric:
            return xl.sparse_block(
                [{j: x for j, x in enumerate(map(rational, row)) if x}
                 for row in self.metric], self.rank)
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


class BasisState(NamedTuple):
    """Canonical PBW label: charge sector plus a creation-mode multiset.

    factors are (generator id, plain mode index < 0) sorted by generator id
    ascending then mode index descending; the word acts left to right on the
    sector top vector.
    """

    sector: int
    factors: tuple

    def word_length(self) -> int:
        return len(self.factors)

    def __repr__(self):
        parts = "".join(f"g{g}[{m}]" for g, m in self.factors)
        top = "Om" if self.sector == 0 else f"e({self.sector})"
        return f"<{parts}{top}>"


def canonical_factors(factors) -> tuple:
    return tuple(sorted(factors, key=lambda f: (f[0], -f[1])))


class GradedBasis:
    """Per-degree indexed lists of BasisState labels, each sorted by
    (sector, word length, factors)."""

    def __init__(self, states_by_degree):
        self.states_by_degree = states_by_degree
        self.index = {}
        for deg, states in enumerate(states_by_degree):
            for pos, st in enumerate(states):
                self.index[st] = (deg, pos)
        self._sector_ranges = {}
        self._part_counts = {}

    @property
    def max_degree(self) -> int:
        return len(self.states_by_degree) - 1

    def dim(self, degree: int) -> int:
        if degree < 0 or degree > self.max_degree:
            return 0
        return len(self.states_by_degree[degree])

    def states(self, degree: int):
        if degree < 0 or degree > self.max_degree:
            return []
        return self.states_by_degree[degree]

    def degree_of(self, state: BasisState) -> int:
        return self.index[state][0]

    def position_of(self, state: BasisState) -> int:
        return self.index[state][1]

    def sector_ranges(self, degree: int) -> dict:
        """{sector: range of its positions} at a degree, memoized; a
        sector's labels are contiguous since the degree is sorted."""
        hit = self._sector_ranges.get(degree)
        if hit is None:
            starts = {}
            for pos, st in enumerate(self.states(degree)):
                starts.setdefault(st.sector, pos)
            ends = list(starts.values())[1:] + [self.dim(degree)]
            hit = self._sector_ranges[degree] = {
                p: range(start, end)
                for (p, start), end in zip(starts.items(), ends)}
        return hit

    def part_counts(self, osc: int):
        """{n: number of parts n} of each one-generator creation word of
        oscillator degree osc (the vacuum sector's labels at degree osc),
        in basis order, memoized."""
        hit = self._part_counts.get(osc)
        if hit is None:
            states = self.states(osc)
            hit = self._part_counts[osc] = [
                Counter(-k for _, k in states[i].factors)
                for i in self.sector_ranges(osc)[0]]
        return hit


def _acc(d, key, val):
    """d[key] += val, dropping zero entries and storing integral ones as int.

    The accumulator of StateVector terms (Verma words keep int numerators).
    """
    if not val:
        return
    cur = d.get(key)
    if cur is not None:  # Q on the left: int + Q is Q's reflected add
        val = val + cur if type(cur) is int else cur + val
    if val:
        d[key] = canon(val)
    else:
        d.pop(key, None)


class StateVector:
    """Exact linear combination of basis labels.  add works in place: call
    it only on a vector its caller built, never on an argument or model.nu
    (`mode_engine._as_vector` returns a vector argument itself)."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = dict(terms) if terms else {}

    @classmethod
    def basis(cls, state: BasisState, coeff=1):
        out = cls()
        _acc(out.terms, state, coeff)
        return out

    def copy(self):
        return StateVector(self.terms)

    def add_term(self, state: BasisState, coeff):
        _acc(self.terms, state, coeff)

    def add(self, other, s=1):
        """self += s * other in place; returns self.  An int s goes on the
        right of each product (a Q coefficient takes Q's forward operator)."""
        if s:
            left = type(s) is not int
            for st, co in other.terms.items():
                _acc(self.terms, st, s * co if left else co * s)
        return self

    def __add__(self, other):
        return self.copy().add(other)

    def __sub__(self, other):
        return self.copy().add(other, -1)

    def scale(self, s):
        """s times the vector, as a new vector."""
        return StateVector().add(self, s)

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
    # the last generator takes all the degree that is left
    for here in range(degree + 1) if rest else (degree,):
        for lam in _partitions(here, min_part):
            head = tuple((gid, -k) for k in sorted(lam))
            for tail in _gen_words(rest, degree - here):
                yield head + tail


def _sector_ground(spec: ModelSpec, p: int) -> int:
    """Degree p^2 q/2 of the top e^{p gamma} of charge sector p."""
    return p * p * spec.q // 2


def enumerate_basis(spec: ModelSpec) -> GradedBasis:
    """Canonical graded basis labels up to spec.N.

    For Virasoro this is the free (Verma) enumeration with parts >= 2; the
    built model may be smaller after the quotient by the radical of the
    Verma Gram, which the builder computes, up to N.
    """
    spec.validate()
    return _enumerate_internal(spec, spec.N)


def _enumerate_internal(spec: ModelSpec, nmax: int) -> GradedBasis:
    sectors = [0]
    if spec.kind == "virasoro":
        gens = [(0, 2)]
    else:  # free field: the currents, and a lattice's charge sectors
        gens, m = [(i, 1) for i in range(spec.rank)], 1
        while spec.kind == "lattice" and _sector_ground(spec, m) <= nmax:
            sectors += [m, -m]
            m += 1
    # each degree's words once, in basis order; sectors ascending, so every
    # degree comes out sorted by (sector, word length, factors)
    words = [sorted(_gen_words(gens, osc), key=lambda w: (len(w), w))
             for osc in range(nmax + 1)]
    by_degree = [[] for _ in range(nmax + 1)]
    for sector in sorted(sectors):
        ground = _sector_ground(spec, sector)
        for osc in range(nmax - ground + 1):
            by_degree[ground + osc] += [BasisState(sector, w)
                                        for w in words[osc]]
    return GradedBasis(by_degree)


# ---------------------------------------------------------------------------
# the Model container


@dataclass
class GeneratorInfo:
    degree: int
    star: int  # generator id of the star partner (coefficient +1)
    state: BasisState  # the basis state whose modes are this generator's


class Model:
    """A fully built truncated model.

    Construction is a single-writer phase; afterwards the object is
    treated as immutable (caches fill idempotently).  Generator blocks are
    built on first use by block(model, gid, m, src), an xl.Block, and
    memoized.  gram(degree), which every builder passes, is the Gram
    matrix at a degree <= N that GramFamily.matrix memoizes.  The tail
    BasisState(sector, factors[1:]) of every label of degree <= N, the
    only labels that are peeled or paired, is a label: Fock bases are
    complete, and _build_virasoro checks its quotient.  A Virasoro model's
    degrees N+1 .. n_internal hold every Verma word, in which peeling's
    intermediate vectors live.
    """

    def __init__(self, spec: ModelSpec, n_internal: int, basis: GradedBasis,
                 generators, nu: StateVector, c, block, gram,
                 automorphisms=()):
        self.spec = spec
        self.N = spec.N
        self.n_internal = n_internal
        self.basis = basis
        self.generators = generators  # gid -> GeneratorInfo
        self.generator_of = {g.state: gid for gid, g in generators.items()}
        self.nu = nu
        self.c = c
        self._block = block
        self._gram = gram
        self.automorphisms = automorphisms  # the Automorphism kinds it has
        self._gen_blocks = {}  # (gid, m) -> {src_degree: matrix}
        self._state_mode_cache = {}
        self._sigma_cache = {}  # (inner, outer, m, s) -> norm_lab._sigma
        self._fock_blocks = {}  # (charge, k_s, k_t) -> _fock_block, lattice
        self._fock_g = {}  # charge -> _g_table, lattice
        self._gram_caches = ({}, {})  # family_of's Grams and float Cholesky

    # -- basic queries ------------------------------------------------------

    @property
    def vacuum(self) -> BasisState:
        return BasisState(0, ())

    def dim(self, degree: int) -> int:
        return self.basis.dim(degree)

    def degree_of(self, vec: StateVector):
        """Degree of a homogeneous vector, None for 0, error if mixed."""
        degs = {self.basis.degree_of(st) for st in vec.terms}
        if not degs:
            return None
        if len(degs) > 1:
            raise ValueError(f"vector not homogeneous: degrees {sorted(degs)}")
        return degs.pop()

    def coords_by_degree(self, vec: StateVector) -> dict:
        """{degree: coordinate list} of a vector, degrees in term order."""
        out = {}
        for st, co in vec.terms.items():
            d, pos = self.basis.index[st]
            coords = out.get(d)
            if coords is None:
                coords = out[d] = [ZERO] * self.dim(d)
            coords[pos] = co
        return out

    def from_coords(self, degree: int, coords, out=None) -> StateVector:
        """The vector of coordinates at a degree, added into out if given."""
        vec = StateVector() if out is None else out
        states = self.basis.states(degree)
        for pos, co in enumerate(coords):
            vec.add_term(states[pos], co)
        return vec

    # -- generator modes ----------------------------------------------------

    def gen_block(self, gid: int, m: int, src_degree: int):
        """Exact block of generator plain mode m: degree src -> src - m.

        Returns a (dim_target x dim_src) xl.Block; empty target gives a
        0-row block.  Raises TruncationError when the target escapes the
        internal truncation.
        """
        tgt = src_degree - m
        if tgt < 0:
            return xl.zero_block(0, self.basis.dim(src_degree))
        if tgt > self.n_internal or src_degree > self.n_internal:
            raise TruncationError(max(tgt, src_degree), self.n_internal,
                                  f"generator {gid} mode {m}")
        blocks = self._gen_blocks.get((gid, m))
        if blocks is None:
            blocks = self._gen_blocks[(gid, m)] = {}
        hit = blocks.get(src_degree)
        if hit is None:
            hit = blocks[src_degree] = self._block(self, gid, m, src_degree)
        return hit


# ---------------------------------------------------------------------------
# free-field builder


def _current_action(metric: xl.Block, gid, m, st: BasisState):
    """Terms of alpha^gid_m applied to one basis state, as int numerators
    over metric.den.

    metric.rows[i][j] / metric.den is the two-point constant of alpha^i
    and alpha^j; a lattice current's zero mode on sector k is k*q.
    """
    row = metric.rows[gid]
    if m == 0:
        if st.sector:
            yield st, st.sector * row.get(gid, 0)
        return
    if m < 0:
        yield BasisState(st.sector, canonical_factors(
            st.factors + ((gid, m),))), metric.den
        return
    seen = set()
    for g, mode in st.factors:
        if mode != -m or (g, mode) in seen:
            continue
        seen.add((g, mode))
        coeff = row.get(g, 0) * (m * st.factors.count((g, mode)))
        if coeff:
            rest = list(st.factors)
            rest.remove((g, mode))
            yield BasisState(st.sector, tuple(rest)), coeff


def _build_free_field(spec: ModelSpec) -> Model:
    """The Heisenberg Fock space of spec's metric G, with conformal vector
    nu = 1/2 sum (G^-1)_ij alpha^i_{-1} alpha^j_{-1} Omega.  A lattice is
    the metric [[q]] plus the charge sectors, on which e^{+-gamma} act by
    vertex_mode_block; its charge-0 sector is the Heisenberg model."""
    basis = _enumerate_internal(spec, spec.N)
    metric = spec.metric_matrix()
    minv = xl.inverse(metric)
    nu = StateVector()
    for i, row in enumerate(minv.rows):
        for j, x in row.items():
            st = BasisState(0, canonical_factors(((i, -1), (j, -1))))
            nu.add_term(st, Q(x, 2 * minv.den))
    gens = {i: GeneratorInfo(1, i, BasisState(0, ((i, -1),)))
            for i in range(spec.rank)}
    automorphisms = ("charge_conjugation",)
    if spec.kind == "lattice":
        gens[1] = GeneratorInfo(spec.q // 2, 2, BasisState(1, ()))
        gens[2] = GeneratorInfo(spec.q // 2, 1, BasisState(-1, ()))
        automorphisms += ("torus_phase",)

    def block(model, gid, m, src):
        if gid >= spec.rank:  # e^{gamma} (generator 1) or e^{-gamma}
            return vertex_mode_block(model, 1 if gid == 1 else -1, m, src)
        acc = xl.zero_block(basis.dim(src - m), basis.dim(src), metric.den)
        for col, st in enumerate(basis.states(src)):
            for tstate, num in _current_action(metric, gid, m, st):
                acc.rows[basis.index[tstate][1]][col] = num
        return acc.reduced()

    perms, fock_grams = {}, {}

    def perm(a, b):
        """Permanent of the metric numerators at rows a, columns b (sorted
        colour tuples) along row a[0], equal columns once times their count."""
        if not a:
            return 1
        hit = perms.get((a, b))
        if hit is None:
            row, hit = metric.rows[a[0]], 0
            for j, h in enumerate(b):
                if h in row and b.index(h) == j:
                    hit += b.count(h) * row[h] * perm(a[1:], b[:j] + b[j + 1:])
            perms[(a, b)] = hit
        return hit

    def fock_gram(k):
        """Gram rows of the words of oscillator degree k over
        metric.den ** k, memoized: the Fock pairing (Kac 1998, ch. 5) pairs
        u and v only when both have k_n parts n for every n, to prod_n
        n^{k_n} perm(G[c_n(u), c_n(v)]), c_n the colours of the parts n."""
        hit = fock_grams.get(k)
        if hit is None:
            words, groups = basis.sector_ranges(k)[0], {}
            for pos, st in enumerate(basis.states(k)[words.start:words.stop]):
                parts = {}
                for gid, m in st.factors:
                    parts.setdefault(-m, []).append(gid)
                parts = sorted(parts.items())
                groups.setdefault(tuple((n, len(c)) for n, c in parts), []
                                  ).append((pos, [tuple(c) for _, c in parts]))
            hit = fock_grams[k] = [{} for _ in words]
            for counts, members in groups.items():
                lift = metric.den ** (k - sum(a for _, a in counts)) * \
                    math.prod(n ** a for n, a in counts)
                for i, (pos, cu) in enumerate(members):
                    for pos2, cv in members[i:]:
                        x = lift * math.prod(map(perm, cu, cv))
                        if x:
                            hit[pos][pos2] = hit[pos2][pos] = x
        return hit

    def gram(degree):  # each sector pairs with itself, on the Fock words
        rows = []
        for p in basis.sector_ranges(degree):
            ground = _sector_ground(spec, p)
            lift, off = metric.den ** ground, len(rows)
            rows += [{off + j: x * lift for j, x in row.items()}
                     for row in fock_gram(degree - ground)]
        return xl.Block(rows, len(rows), metric.den ** degree).reduced()

    return Model(spec, spec.N, basis, gens, nu, Q(spec.rank), block, gram,
                 automorphisms)


# ---------------------------------------------------------------------------
# Virasoro builder


class _VermaEngine:
    """Exact action of Virasoro modes on vacuum-Verma words (parts >= 2),
    as int numerators over den, the denominator of c/2 in lowest terms.

    One annihilation mode L_p moves right through a word: it passes each
    letter with an integer factor or contracts once with the central term
    c/12*(p^3 - p) = (c/2)*(p^3 - p)/6, in Z*(c/2); creation modes never
    contract.  So every coefficient lies in Z + Z*(c/2)."""

    def __init__(self, c, nmax: int):
        half = Q(c) / 2
        self.den, self._half = int(half.denominator), int(half.numerator)
        self.nmax = nmax
        self._cache = {}

    def apply(self, p: int, word: tuple):
        """L_p acting on the word L_{-k1} L_{-k2} ... Omega (k ascending).

        Returns dict word -> numerator; words of degree > nmax dropped.
        """
        if sum(word) - p > self.nmax:
            return {}
        key = (p, word)
        if key in self._cache:
            return self._cache[key]
        den = self.den
        if p <= -2 and (not word or -p <= word[0]):
            out = {(-p,) + word: den}
        elif not word:
            out = {}
        else:
            k1, rest = word[0], word[1:]
            out = {}
            for w, co in self.apply(p, rest).items():
                # a creation mode's coefficients are multiples of den
                for w2, co2 in self.apply(-k1, w).items():
                    out[w2] = out.get(w2, 0) + co * co2 // den
            if p + k1:
                for w, co in self.apply(p - k1, rest).items():
                    out[w] = out.get(w, 0) + (p + k1) * co
            if p == k1:
                out[rest] = out.get(rest, 0) + self._half * (p ** 3 - p) // 6
            out = {w: co for w, co in out.items() if co}
        self._cache[key] = out
        return out


def default_n_internal(spec: ModelSpec) -> int:
    """Internal truncation of build_model(spec) without a pad override.

    Virasoro composite-word mode recursions climb one degree per peeled
    factor; the default padding N // 2 covers every word that fits below N.
    The pad degrees keep every Verma word and cost no elimination.
    """
    return spec.N + spec.N // 2 if spec.kind == "virasoro" else spec.N


def _word_block(engine: _VermaEngine, basis: GradedBasis, columns):
    """Block builder of the Virasoro modes on a basis of Verma words;
    columns[d] = (word -> {row: int}, den), degree-d words' coordinates."""

    def block(model, gid, m, src):
        tgt = src - m
        cols, den = columns[tgt]
        rows = [{} for _ in range(basis.dim(tgt))]
        for j, st in enumerate(basis.states(src)):
            word = tuple(-k for _, k in st.factors)
            for w, x in engine.apply(m, word).items():
                for i, y in cols[w].items():
                    rows[i][j] = rows[i].get(j, 0) + x * y
        return xl.Block(rows, basis.dim(src), den * engine.den).reduced()

    return block


def _build_virasoro(spec: ModelSpec, pad: int = None) -> Model:
    n_internal = default_n_internal(spec) if pad is None else spec.N + pad
    c = rational(spec.c)
    engine = _VermaEngine(c, n_internal)
    verma = _enumerate_internal(spec, n_internal)
    words = [[tuple(-m for _, m in st.factors) for st in verma.states(d)]
             for d in range(n_internal + 1)]
    units = [({w: {i: 1} for i, w in enumerate(ws)}, 1) for ws in words]
    verma_block = _word_block(engine, verma, units)

    # The Verma Gram G_d, d <= N, seeded by (Om|Om) = 1: as L_{-k}* = L_k,
    # the rows of the words L_{-k} t are G_{d-k}'s rows at their tails t
    # times L_k's block on Verma words, one xl.sum_of_products per degree.
    # Where G_d is nonsingular mod a prime it is nonsingular over Q, so
    # every word is kept with unit coordinates.  Otherwise one elimination:
    # R = rref(G) with r pivots, the kept columns K.  E*G = R for an
    # invertible E and R[:r] is the identity on K, so G[:, K]*x = G*v
    # solves to x = R[:r]*v: a word's quotient-class coordinates are its
    # column of R[:r].  No positivity of G is assumed.  Degrees above N
    # keep every Verma word with unit coordinates: the radical is a
    # submodule every mode preserves, so a product carried through Verma
    # coordinates there and projected at a target <= N is the quotient's.
    grams, columns = [xl.identity(1)], list(units)
    kept_by_degree = [range(len(ws)) for ws in words]
    for deg in range(1, spec.N + 1):
        dim, rows = verma.dim(deg), {}  # k -> G_{deg-k}'s rows at the tails
        for pos, st in enumerate(verma.states(deg)):
            k, tail = -st.factors[0][1], BasisState(0, st.factors[1:])
            if k not in rows:
                rows[k] = [{}] * dim
            rows[k][pos] = grams[deg - k].rows[verma.index[tail][1]]
        g = xl.sum_of_products(dim, dim, [
            (xl.Block(r, verma.dim(deg - k), grams[deg - k].den),
             verma_block(None, 0, k, deg), 1) for k, r in rows.items()])
        if xl.transpose(g).rows != g.rows:
            raise ModelBugError(f"Verma Gram not symmetric at degree {deg}")
        grams.append(g)
    for deg, g in enumerate(grams):
        if not xl.nonsingular_mod_p(g):
            r, pivots = xl.rref(g)
            kept_by_degree[deg] = pivots
            coords = xl.transpose(xl.Block(r.rows[:len(pivots)], r.cols,
                                           r.den))
            columns[deg] = (dict(zip(words[deg], coords.rows)), coords.den)
    basis = GradedBasis([[verma.states(d)[i] for i in kept_by_degree[d]]
                         for d in range(n_internal + 1)])

    # Kept words of degree <= N, the only ones peeled or paired, are closed
    # under dropping the leading factor, the smallest part k of
    # w = L_{-k} t, in (length, factors) order: were t a sum of earlier
    # words t' modulo the radical, a submodule, then w = sum of L_{-k} t',
    # each the earlier word (k, t') (a t' < t of equal length has parts
    # >= k) or reordered into shorter words; so w is not a pivot.
    for d in range(1, spec.N + 1):
        for st in basis.states(d):
            if BasisState(0, st.factors[1:]) not in basis.index:
                raise ModelBugError(f"the tail of kept word {st} is not kept")

    def gram(degree):  # G[K, K]: the radical pairs to zero with every word
        kept, g = kept_by_degree[degree], grams[degree]
        at = {j: i for i, j in enumerate(kept)}
        return g if len(at) == len(g) else xl.Block(
            [{at[j]: x for j, x in g.rows[i].items() if j in at}
             for i in kept], len(at), g.den).reduced()

    nu_state = BasisState(0, ((0, -2),))
    return Model(spec, n_internal, basis, {0: GeneratorInfo(2, 0, nu_state)},
                 StateVector.basis(nu_state), c,
                 _word_block(engine, basis, columns), gram)


# ---------------------------------------------------------------------------
# lattice vertex operators


def vertex_mode_block(model: Model, charge: int, m: int, src_degree: int):
    """Exact block of the plain mode m of e^{charge*gamma}.

    On sector p, Y(e^{c*gamma}, z) = E^-(z) E^+(z) z^{c*p*q} (Frenkel,
    Lepowsky and Meurman 1988), and the plain mode m is the coefficient of
    z^{-m - c*c*q/2}: it maps sector p at degree s to sector p + c at
    tgt = s - m, Fock degree k_s = s - p*p*q/2 to k_t = tgt - (p+c)^2*q/2.
    Its entry from a source word lambda (k_n parts n) to a target word mu
    (a_n parts n) is (k_t!/z_mu) prod_n g_n(k_n, a_n) over k_t!, the
    closed form of _fock_block, which depends on (c, k_s, k_t) alone and
    is memoized on the model.  A degree's basis is sorted by (sector,
    word) with the same word order in every sector, so the block is one
    Fock block per source sector, placed at the two sectors' offsets;
    each piece is lifted to the denominator tgt! and the block is reduced
    once.
    """
    spec, basis = model.spec, model.basis
    tgt = src_degree - m
    den = math.factorial(tgt)
    acc = xl.zero_block(basis.dim(tgt), basis.dim(src_degree), den)
    targets = basis.sector_ranges(tgt)
    for p, cols in basis.sector_ranges(src_degree).items():
        k_t = tgt - _sector_ground(spec, p + charge)
        if k_t < 0:
            continue
        up, col0 = den // math.factorial(k_t), cols.start
        fock = _fock_block(model, charge,
                           src_degree - _sector_ground(spec, p), k_t)
        for i, row in zip(targets[p + charge], fock):
            acc.rows[i] = {col0 + j: x * up for j, x in enumerate(row) if x}
    return acc.reduced()


def _fock_block(model: Model, charge: int, k_s: int, k_t: int):
    """Oscillator part of e^{charge*gamma}'s modes from Fock degree k_s to
    k_t: dense rows of int numerators over k_t!, in the basis word order
    (a dense row holds about half the bytes of a dict row).

    With [gamma_m, gamma_n] = m q delta_{m+n,0}, E^+ keeps l of a source
    word's k_n parts n with coefficient C(k_n, l) (-c q)^{k_n - l}, and E^-
    adds a_n - l with (c/n)^{a_n - l} / (a_n - l)!.  Summed over l, the
    target word mu (a_n parts n) has coefficient prod_n g_n(k_n, a_n) /
    z_mu, z_mu = prod_n n^{a_n} a_n! (Macdonald, Symmetric Functions,
    ch. I), with g_n(k, a) = sum_l C(k, l) (-c q)^{k-l} c^{a-l} n^l
    a!/(a-l)!; k_t!/z_mu is an integer.
    """
    key = (charge, k_s, k_t)
    hit = model._fock_blocks.get(key)
    if hit is not None:
        return hit
    cq = charge * model.spec.q
    g = model._fock_g.get(charge)
    if g is None:
        g = model._fock_g[charge] = _g_table(charge, model.spec.q,
                                             model.n_internal)
    # a part n of lambda that mu lacks gives g_n(k, 0) = (-c q)^k, so the
    # product runs over mu's parts times (-c q) to lambda's other parts
    powers = [(-cq) ** i for i in range(k_s + 1)]
    sources = [(lam, sum(lam.values()))
               for lam in model.basis.part_counts(k_s)]
    fact = math.factorial(k_t)
    hit = []
    for mu in model.basis.part_counts(k_t):
        z = 1
        for n, a in mu.items():
            z *= n ** a * math.factorial(a)
        lead = fact // z
        cols = [(n, g[n][a]) for n, a in mu.items()]
        row = []
        for lam, left in sources:
            x = lead
            for n, col in cols:
                k = lam.get(n, 0)
                x *= col[k]
                left -= k
            row.append(x * powers[left])
        hit.append(row)
    model._fock_blocks[key] = hit
    return hit


def _g_table(c: int, q: int, nmax: int) -> list:
    """g[n][a][k] = g_n(k, a) for every part n and counts k, a with n*k and
    n*a at most nmax; see _fock_block."""
    cq, out = c * q, [None]
    for n in range(1, nmax + 1):
        most = nmax // n
        out.append([[sum(math.comb(k, l) * (-cq) ** (k - l) * c ** (a - l)
                         * n ** l * math.perm(a, l)
                         for l in range(min(k, a) + 1))
                     for k in range(most + 1)] for a in range(most + 1)])
    return out


# ---------------------------------------------------------------------------
# public construction API


def build_model(spec: ModelSpec, corrupt=None, pad: int = None) -> Model:
    """Build a truncated model with exact generator data.

    corrupt, when given, is (gid, m, src_degree, row, col, delta): the named
    structure constant is shifted after the build (mutation testing hook).
    pad overrides the internal working margin above N; modes of composite
    words of length L need pad >= L - 1.  A pad on another kind than
    Virasoro, or outside [0, N], is a SpecError.
    """
    spec.validate(pad)
    if spec.kind == "virasoro":
        model = _build_virasoro(spec, pad)
    else:
        model = _build_free_field(spec)
    if corrupt is not None:
        gid, m, src, row, col, delta = corrupt
        block = model.gen_block(gid, m, src)
        shift = [{} for _ in block.rows]
        # col is read like an index into a dense row of the block
        shift[row] = {range(block.cols)[col]: rational(delta)}
        model._gen_blocks[(gid, m)][src] = xl.mat_add(
            block, xl.sparse_block(shift, block.cols)).reduced()
    return model


# ---------------------------------------------------------------------------
# automorphisms


class Automorphism:
    """Degree-preserving unitary automorphism of order two, exact.

    kind is "charge_conjugation" (sector m -> -m, sign (-1)^word length) or
    "torus_phase", the half turn of the torus (sector m picks up (-1)^m),
    and one of model.automorphisms (a Virasoro model has neither).
    """

    def __init__(self, model: Model, kind: str):
        if kind not in model.automorphisms:
            raise ValueError(f"unknown automorphism kind {kind!r} for "
                             f"{model.spec.describe()}")
        self.model = model
        self.kind = kind

    def image(self, state: BasisState):
        """(target state, sign)."""
        if self.kind == "charge_conjugation":
            sign = -1 if state.word_length() % 2 else 1
            return BasisState(-state.sector, state.factors), sign
        return state, -1 if state.sector % 2 else 1

    def apply_exact(self, vec: StateVector) -> StateVector:
        """The exact image of a vector."""
        out = StateVector()
        for st, co in vec.terms.items():
            tstate, sign = self.image(st)
            out.add_term(tstate, sign * co)
        return out
