"""Graded dimension oracles computed independently of the package."""

import functools
import itertools
import math
import pickle

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from voacert.errors import ModelBugError, SpecError
from voacert.graded_fock import (BasisState, ModelSpec, StateVector,
                                 _VermaEngine, build_model, canonical_factors,
                                 enumerate_basis, heisenberg_spec,
                                 lattice_spec, vertex_mode_block,
                                 virasoro_spec)
from voacert.scalars import ONE, Q, binomial, canon


def partition_counts(n_max):
    """p(0..n_max) by the standard coin-style dynamic program."""
    p = [0] * (n_max + 1)
    p[0] = 1
    for part in range(1, n_max + 1):
        for n in range(part, n_max + 1):
            p[n] += p[n - part]
    return p


def euler_inverse(n_max):
    """Coefficients of 1/prod_{k>=1}(1-q^k), i.e. p(n) again, as a list."""
    return partition_counts(n_max)


def minimal_vacuum_dims(p, pp, n_max):
    """Vacuum character of the (p, pp) minimal model, by the alternating
    sum over the affine Weyl group divided by the Euler product."""
    numer = [0] * (n_max + 1)
    k = 0
    while True:
        hit = False
        for kk in (k, -k) if k else (0,):
            e1 = ((2 * p * pp * kk + p - pp) ** 2 - (p - pp) ** 2) \
                // (4 * p * pp)
            e2 = ((2 * p * pp * kk + p + pp) ** 2 - (p - pp) ** 2) \
                // (4 * p * pp)
            if e1 <= n_max:
                numer[e1] += 1
                hit = True
            if e2 <= n_max:
                numer[e2] -= 1
                hit = True
        if k and not hit:
            break
        k += 1
    euler = partition_counts(n_max)
    return [sum(numer[j] * euler[n - j] for j in range(n + 1))
            for n in range(n_max + 1)]


def test_heisenberg_dims_are_partition_numbers(heis8):
    p = partition_counts(8)
    assert [heis8.dim(n) for n in range(9)] == p


def test_ising_dims_match_minimal_model_character(ising8):
    expect = minimal_vacuum_dims(4, 3, 8)
    assert [ising8.dim(n) for n in range(9)] == expect
    # the criterion-4 truncation: the quotient through N, and Verma words
    # in its working margin, which no selector or Gram reads
    vir16 = build_model(virasoro_spec("1/2", 16), pad=1)
    assert vir16.n_internal == 17
    assert [vir16.dim(n) for n in range(17)] == \
        minimal_vacuum_dims(4, 3, 16)
    assert vir16.basis.states(17) == \
        enumerate_basis(virasoro_spec("1/2", 17)).states(17)
    # the quotient at degree 17, read at N = 17
    vir17 = build_model(virasoro_spec("1/2", 17), pad=0)
    assert [vir17.dim(n) for n in range(18)] == \
        minimal_vacuum_dims(4, 3, 17)


def test_c1_dims_match_free_field_character(c1_8):
    p = partition_counts(17)
    expect = [p[n] - (p[n - 1] if n else 0) for n in range(18)]
    assert [c1_8.dim(n) for n in range(9)] == expect[:9]
    # the criterion-4 truncation, through its working margin
    vir16 = build_model(virasoro_spec(1, 16), pad=1)
    assert vir16.n_internal == 17
    assert [vir16.dim(n) for n in range(18)] == expect


def product_dims(residues, modulus, n_max):
    """Coefficients of prod over n = residue (mod modulus) of 1/(1 - q^n)."""
    out = [1] + [0] * n_max
    for part in range(1, n_max + 1):
        if part % modulus in residues:
            for n in range(part, n_max + 1):
                out[n] += out[n - part]
    return out


@pytest.mark.parametrize("c, p, n_max, residues, modulus, dims", [
    ("-22/5", 5, 14, (2, 3), 5,
     [1, 0, 1, 1, 1, 1, 2, 2, 3, 3, 4, 4, 6, 6, 8]),
    ("-68/7", 7, 12, (2, 3, 4, 5), 7,
     [1, 0, 1, 1, 2, 2, 3, 3, 5, 6, 8, 9, 13])],
    ids=["lee-yang", "c=-68/7"])
def test_nonunitary_dims_match_product_characters(c, p, n_max, residues,
                                                  modulus, dims):
    """The (p, 2) minimal vacuum characters are the Rogers-Ramanujan and
    Andrews-Gordon products; at these non-unitary c the quotient's
    dimensions match them and the alternating sum."""
    assert product_dims(residues, modulus, n_max) == dims
    assert minimal_vacuum_dims(p, 2, n_max) == dims
    model = build_model(virasoro_spec(c, n_max), pad=0)
    assert [model.dim(n) for n in range(n_max + 1)] == dims


@pytest.mark.parametrize("c", ["1/2", "7/10", "1", "-2", "25", "-22/5",
                               "-68/7"])
def test_kept_virasoro_words_are_closed_under_peeling(c):
    model = build_model(virasoro_spec(c, 12), pad=0)
    index = model.basis.index
    assert all(BasisState(0, st.factors[1:]) in index
               for st in index if st.factors)


def test_a_kept_word_whose_tail_is_not_kept_is_a_model_bug(monkeypatch):
    from voacert import exactlinalg as xl

    rref = xl.rref

    def drop_second_pivot_of_two(g):
        # the two-word Verma degrees are 4 and 5: L_-2 L_-2 and L_-2 L_-3
        # are dropped, so the kept L_-2 L_-2 L_-2 at c = 1 has no tail
        r, pivots = rref(g)
        return r, pivots[:1] if len(g.rows) == 2 else pivots

    monkeypatch.setattr(xl, "rref", drop_second_pivot_of_two)
    # every degree is nonsingular at c = 1: force the elimination to run
    monkeypatch.setattr(xl, "nonsingular_mod_p", lambda g: False)
    with pytest.raises(ModelBugError, match="tail of kept word"):
        build_model(virasoro_spec(1, 6), pad=0)


def test_lattice_dims_match_theta_over_eta(lat2_6):
    p = partition_counts(6)
    expect = []
    for n in range(7):
        total = 0
        m = 0
        while m * m <= n:
            total += p[n - m * m] * (2 if m else 1)
            m += 1
        expect.append(total)
    assert [lat2_6.dim(n) for n in range(7)] == expect
    # charge sectors: ground state of sector m sits at degree m^2
    assert lat2_6.basis.degree_of(BasisState(2, ())) == 4


def test_vacuum_and_positions(heis8):
    assert heis8.dim(0) == 1
    vac = heis8.vacuum
    assert heis8.basis.degree_of(vac) == 0
    for d in range(9):
        for i, st in enumerate(heis8.basis.states(d)):
            assert heis8.basis.position_of(st) == i
            assert heis8.basis.degree_of(st) == d


def test_basis_labels_hash_and_compare_as_plain_tuples(heis6, ising8,
                                                       lat2_6):
    """Label-keyed dicts hash and compare in C, with the hash of the
    (sector, factors) tuple, so dict orders and digests are unchanged."""
    assert BasisState.__hash__ is tuple.__hash__
    assert BasisState.__eq__ is tuple.__eq__
    for model in (heis6, ising8, lat2_6):
        for st in model.basis.index:
            assert hash(st) == hash((st.sector, st.factors))
            assert st == (st.sector, st.factors)
    assert repr(BasisState(0, ((0, -1),))) == "<g0[-1]Om>"
    assert repr(BasisState(1, ())) == "<e(1)>"
    st = BasisState(0, ((0, -1),))
    with pytest.raises(AttributeError):
        st.sector = 1
    # labels must survive pickling, as across the parallel suite's workers
    back = pickle.loads(pickle.dumps(st))
    assert back == st and type(back) is BasisState


def test_canonical_factor_ordering():
    a = canonical_factors(((0, -1), (0, -3), (0, -1)))
    assert a == canonical_factors(((0, -3), (0, -1), (0, -1)))
    assert sorted(a) == [(0, -3), (0, -1), (0, -1)]


def test_state_vector_arithmetic(heis8):
    a = heis8.basis.states(1)[0]
    v = StateVector.basis(a)
    w = v + v
    assert w == v.copy().scale(2)
    assert (w - w).is_zero()


def test_state_vector_coefficients_are_ints_when_integral(heis8):
    a, b = heis8.basis.states(2)[:2]
    half = StateVector.basis(a, Q(1, 2))
    vecs = [StateVector.basis(a, Q(2)), half + half, half.scale(Q(4)),
            half - StateVector.basis(a, Q(-1, 2))]
    vecs[1].add_term(b, Q(3, 3))
    for vec in vecs:
        assert all(type(co) is int for co in vec.terms.values()), vec
    assert vecs[1] == StateVector({a: Q(1), b: Q(1)})
    assert type(half.terms[a]) is Q


def test_conformal_state_degree_two(heis8, ising8, lat2_6):
    for model in (heis8, ising8, lat2_6):
        assert model.degree_of(model.nu) == 2


def test_virasoro_quotient_is_one_elimination_per_degree(monkeypatch):
    from voacert import exactlinalg as xl

    calls = {"rref": 0, "inverse": 0, "nonsingular_mod_p": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(xl, name, counted(name, getattr(xl, name)))
    model = build_model(virasoro_spec("1/2", 8), pad=2)
    model.gen_block(0, -2, 6)  # a lazy block projects without eliminating
    # one full-rank check per degree <= N; the radical starts at degree 6,
    # so only degrees 6, 7 and 8 eliminate, and the pad degrees 9 and 10
    # neither check nor eliminate
    assert calls == {"rref": 3, "inverse": 0,
                     "nonsingular_mod_p": model.N + 1}


BLOCK_DIGEST_CASES = [
    (heisenberg_spec(2, 6, [[2, 1], [1, 2]]), None),
    (lattice_spec(2, 8), None), (lattice_spec(4, 8), None),
    (virasoro_spec("1/2", 10), 1), (virasoro_spec(1, 10), 1)]


def test_generator_blocks_match_pinned_digest():
    """sha256 over every generator block of modes -3..3 on every source
    degree, recorded from the eagerly tabulated current blocks; every
    integral entry is stored as an int.  Blocks between degrees <= N go to
    one digest, pinned to the bytes of the quotient built through the pad;
    blocks touching a Virasoro pad degree, which is kept in Verma
    coordinates, go to the other."""
    import hashlib
    import json

    from voacert.scalars import rat_to_str

    low, above = hashlib.sha256(), hashlib.sha256()
    for spec, pad in BLOCK_DIGEST_CASES:
        model = build_model(spec, pad=pad)
        n = model.n_internal
        for gid in sorted(model.generators):
            for m in range(-3, 4):
                for s in range(n + 1):
                    if s - m > n:
                        continue
                    entries = model.gen_block(gid, m, s)
                    assert all(type(x) is int or x.denominator != 1
                               for row in entries for x in row)
                    block = [[rat_to_str(x) for x in row] for row in entries]
                    digest = low if max(s, s - m) <= spec.N else above
                    digest.update(json.dumps(
                        [spec.describe(), gid, m, s, block]).encode())
    assert (low.hexdigest(), above.hexdigest()) == (
        "9fec4c2636a4ff9c599907f6c2eca28e"
        "0966cf80679b7cb1bfc4548d6b509398",
        "266a05ddd0fd834f6da1576a8f887e2a"
        "b498f81cc4ee444cbf1649e2a8c98a3a")


@pytest.mark.parametrize("q", [2, 4, 6])
def test_a_lattice_charge_0_sector_is_the_heisenberg_model_of_its_metric(q):
    """The charge-0 sector of V_L, L = Z gamma with (gamma|gamma) = q, is
    the Heisenberg VOA of the metric [[q]] (Frenkel, Lepowsky and Meurman
    1988): same labels, conformal state, current modes and Gram matrices."""
    from voacert.unitary_structure import GramFamily

    n = 8
    lat = build_model(lattice_spec(q, n))
    heis = build_model(heisenberg_spec(1, n, metric=[[q]]))
    zero = [lat.basis.sector_ranges(d)[0] for d in range(n + 1)]

    def sector_0(block, tgt, src):
        return [[block[i][j] for j in zero[src]] for i in zero[tgt]]

    for d in range(n + 1):
        assert [lat.basis.states(d)[i] for i in zero[d]] == \
            heis.basis.states(d)
    assert lat.nu == heis.nu
    for m in range(-3, 4):
        for s in range(max(0, m), min(n, n + m) + 1):
            assert sector_0(lat.gen_block(0, m, s), s - m, s) == \
                heis.gen_block(0, m, s), (m, s)
    lat_forms, heis_forms = GramFamily(lat), GramFamily(heis)
    for d in range(n + 1):
        assert sector_0(lat_forms.matrix(d), d, d) == heis_forms.matrix(d)


def test_fresh_models_hold_no_generator_blocks():
    for spec in (heisenberg_spec(2, 4), virasoro_spec("1/2", 6),
                 lattice_spec(2, 6)):
        assert build_model(spec)._gen_blocks == {}


# -- lattice vertex blocks against the full Laurent expansion ----------------


def _acc(d, key, val):
    """d[key] += val, dropping zeros and storing integral values as ints."""
    if not val:
        return
    cur = d.get(key)
    cur = val if cur is None else cur + val
    if cur:
        d[key] = canon(cur)
    else:
        d.pop(key, None)


def _partitions(n, max_part=None):
    if n == 0:
        yield ()
        return
    for first in range(min(n, max_part or n), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


@functools.lru_cache(maxsize=None)
def expansion_creation_words(charge, room):
    """exp(sum_n charge*gamma_{-n} z^n / n) up to degree room, in Q.

    A pure function of (charge, room), memoized: the oracle below asks for
    it once per state and z-power.
    """
    out = []
    for deg in range(room + 1):
        for lam in _partitions(deg):
            coeff = ONE
            for part, mult in itertools.groupby(lam):
                mult = len(list(mult))
                coeff *= Q(charge, part) ** mult / math.factorial(mult)
            out.append((deg, tuple((0, -k) for k in sorted(lam)), coeff))
    return tuple(out)


def vertex_expansion(model, charge, src_state):
    """Every z-power of Y(e^{charge*gamma}, z) on one basis state.

    Returns dict z-power -> {target state: coefficient}, targets beyond the
    truncation dropped: the whole Laurent expansion in Q, the reference for
    vertex_mode_block, which builds one power on integer numerators.
    """
    q = model.spec.q
    m0 = src_state.sector
    terms = {0: {BasisState(m0 + charge, src_state.factors): 1}}
    for n in range(1, -sum(m for _, m in src_state.factors) + 1):
        new = {}
        for power, vec in terms.items():
            for st, co in vec.items():
                count = sum(1 for f in st.factors if f == (0, -n))
                rest = list(st.factors)
                for t in range(count + 1):
                    _acc(new.setdefault(power - n * t, {}),
                         BasisState(st.sector, tuple(rest)),
                         co * (-charge * q) ** t * binomial(count, t))
                    if t < count:
                        rest.remove((0, -n))
        terms = new
    out = {}
    ground = (m0 + charge) ** 2 * q // 2
    for power, vec in terms.items():
        for st, co in vec.items():
            room = model.n_internal - ground + sum(m for _, m in st.factors)
            for add_deg, word, wco in expansion_creation_words(charge, room):
                tstate = BasisState(st.sector,
                                    canonical_factors(st.factors + word))
                _acc(out.setdefault(charge * m0 * q + power + add_deg, {}),
                     tstate, wco * co)
    return out


@pytest.mark.parametrize("q,n", [(2, 10), (4, 10), (6, 12)])
def test_vertex_blocks_match_full_laurent_expansion(q, n):
    """Every e^{+-gamma} and e^{+-2gamma} block, all modes m with
    0 <= s, s - m <= N: equal values, and ints exactly where integral."""
    model = build_model(lattice_spec(q, n))
    basis = model.basis
    for charge in (1, -1, 2, -2):
        weight = charge * charge * q // 2
        by_state = {st: vertex_expansion(model, charge, st)
                    for s in range(n + 1) for st in basis.states(s)}
        for s in range(n + 1):
            for m in range(s - n, s + 1):
                want = [[0] * basis.dim(s) for _ in range(basis.dim(s - m))]
                for col, st in enumerate(basis.states(s)):
                    for tstate, co in by_state[st].get(-m - weight,
                                                       {}).items():
                        want[basis.position_of(tstate)][col] = co
                got = vertex_mode_block(model, charge, m, s)
                assert got == want, (charge, m, s)
                assert [[type(x) for x in row] for row in got] == \
                    [[type(x) for x in row] for row in want], (charge, m, s)


def _annihilation_terms(q, charge, factors):
    """E^+ on an oscillator word: (z-power offset, kept factors, int
    coefficient) triples, gamma_n^t removing t of the k copies of (0, -n)
    with coefficient (-charge q)^t C(k, t)."""
    counts = [(n, factors.count((0, -n)))
              for n in sorted({-k for _, k in factors})]
    out = []
    for kept in itertools.product(*(range(k + 1) for _, k in counts)):
        offset, rest, co = 0, (), 1
        for (n, k), left in zip(counts, kept):
            offset -= n * (k - left)
            rest += ((0, -n),) * left
            co *= (-charge * q) ** (k - left) * binomial(k, left)
        out.append((offset, rest, co))
    return out


def _creation_terms(charge, d):
    """Degree-d part of E^-: (word, numerator over d!) pairs, the word of a
    partition lambda weighing charge^{len lambda} d!/z_lambda."""
    out = []
    for lam in _partitions(d):
        z = 1
        for part, mult in itertools.groupby(lam):
            mult = len(list(mult))
            z *= part ** mult * math.factorial(mult)
        out.append((tuple((0, -k) for k in reversed(lam)),
                    charge ** len(lam) * (math.factorial(d) // z)))
    return out


def pairwise_vertex_block(model, charge, m, src_degree):
    """vertex_mode_block as a sum over (annihilation term, creation word)
    pairs per source state, keyed by the sorted target word; the reference
    for the closed-form Fock blocks.  Returns (rows, cols, den) in lowest
    terms, each row's columns ascending."""
    q, basis = model.spec.q, model.basis
    tgt = src_degree - m
    den = math.factorial(tgt)
    rows = [{} for _ in range(basis.dim(tgt))]
    want_power = -m - charge * charge * q // 2
    for col, st in enumerate(basis.states(src_degree)):
        room = want_power - charge * st.sector * q
        nums = {}
        for offset, rest, co in _annihilation_terms(q, charge, st.factors):
            d = room - offset
            if d < 0:
                continue
            for word, num in _creation_terms(charge, d):
                key = tuple(sorted(rest + word, reverse=True))
                nums[key] = (nums.get(key, 0)
                             + co * (den // math.factorial(d)) * num)
        for factors, num in nums.items():
            if num:
                rows[basis.position_of(
                    BasisState(st.sector + charge, factors))][col] = num
    g = math.gcd(den, *(x for row in rows for x in row.values()))
    return ([{j: x // g for j, x in row.items()} for row in rows],
            basis.dim(src_degree), den // g)


@pytest.mark.parametrize("corrupt", [None, (1, 0, 3, 0, 0, 1)],
                         ids=["clean", "corrupted"])
@pytest.mark.parametrize("q,n", [(2, 9), (4, 9), (6, 9), (8, 9)])
def test_vertex_blocks_match_the_pairwise_sum(q, n, corrupt):
    """The closed-form blocks equal the per-pair enumeration block for
    block: rows with the same entries in the same column order, cols and
    the lowest-terms denominator.  A corrupted model changes its stored
    e+ block only, never the Fock blocks behind vertex_mode_block."""
    model = build_model(lattice_spec(q, n), corrupt=corrupt)
    for charge in (1, -1, 2, -2, 3, -3):
        for s in range(n + 1):
            for m in range(s - n, s + 1):
                got = vertex_mode_block(model, charge, m, s)
                rows, cols, den = pairwise_vertex_block(model, charge, m, s)
                assert [list(row.items()) for row in got.rows] == \
                    [list(row.items()) for row in rows], (charge, m, s)
                assert (got.cols, got.den) == (cols, den), (charge, m, s)
                assert math.gcd(got.den, *(x for row in got.rows
                                           for x in row.values())) == 1


def test_no_voacert_function_has_a_process_wide_cache():
    """Every memo lives on a model, so a fresh model does its own work:
    perfbench rounds build cold models and must pay for every block."""
    import importlib
    import inspect
    import pkgutil

    import voacert

    cached = []
    for info in pkgutil.iter_modules(voacert.__path__):
        module = importlib.import_module(f"voacert.{info.name}")
        for name, obj in vars(module).items():
            members = vars(obj).items() if inspect.isclass(obj) else ()
            for label, fn in [(name, obj)] + [
                    (f"{name}.{attr}", member) for attr, member in members]:
                if hasattr(fn, "cache_info") or hasattr(fn, "cache_clear"):
                    cached.append(f"{info.name}.{label}")
    assert cached == []


def test_a_fresh_lattice_model_has_empty_fock_tables():
    first = build_model(lattice_spec(2, 6))
    first.gen_block(1, 0, 4)
    assert first._fock_blocks and first._fock_g
    second = build_model(lattice_spec(2, 6))
    assert second._fock_blocks == {} and second._fock_g == {}
    assert second.gen_block(1, 0, 4) == first.gen_block(1, 0, 4)
    assert second._fock_blocks.keys() == first._fock_blocks.keys()


@pytest.mark.parametrize("pad", [-3, -1, 9, 100])
def test_a_pad_outside_zero_to_n_is_a_spec_error(pad):
    # pad -3 used to build dims [1, 0, 1, 1, 2, 2, 0, 0, 0]; pad 100 a
    # Virasoro quotient up to degree 108
    with pytest.raises(SpecError, match=r"lies outside \[0, 8\]"):
        build_model(virasoro_spec("1/2", 8), pad=pad)


@pytest.mark.parametrize("pad", [0, 6])
def test_a_pad_of_zero_or_n_builds(pad):
    model = build_model(virasoro_spec("1/2", 6), pad=pad)
    assert model.n_internal == 6 + pad
    assert [model.dim(d) for d in range(7)] == [1, 0, 1, 1, 2, 2, 3]


@pytest.mark.parametrize("spec", [heisenberg_spec(1, 6), lattice_spec(2, 6)],
                         ids=["heisenberg", "lattice"])
@pytest.mark.parametrize("pad", [0, 3])
def test_a_pad_on_another_kind_than_virasoro_is_a_spec_error(spec, pad):
    with pytest.raises(SpecError, match="pad applies to virasoro models"):
        build_model(spec, pad=pad)


@pytest.mark.parametrize("spec,field", [
    (ModelSpec("lattice", N=6, q=2, metric=((3,),), c=5), "metric"),
    (ModelSpec("lattice", N=6, q=2, c=5), "c"),
    (ModelSpec("lattice", N=6, q=2, rank=2), "rank"),
    (ModelSpec("heisenberg", N=6, q=4), "q"),
    (ModelSpec("heisenberg", N=6, c=Q(1)), "c"),
    (ModelSpec("virasoro", N=6, c=Q(1, 2), metric=((1,),)), "metric"),
    (ModelSpec("virasoro", N=6, c=Q(1, 2), q=2), "q"),
    (ModelSpec("virasoro", N=6, c=Q(1, 2), rank=2), "rank")])
def test_a_field_the_kind_does_not_read_is_a_spec_error(spec, field):
    # the first two built lattice(q=2, N=6) and the fourth a plain
    # Heisenberg model, silently
    with pytest.raises(SpecError, match=f"field '{field}' does not apply "
                                        f"to kind '{spec.kind}'"):
        build_model(spec)


# -- the Verma word action against the rational recursion --------------------


class RationalVermaEngine:
    """L_p on vacuum-Verma words with every coefficient in Q: the rational
    reference for _VermaEngine, which keeps int numerators over the
    denominator of c/2."""

    def __init__(self, c, nmax):
        self.c, self.nmax, self._cache = c, nmax, {}

    def apply(self, p, word):
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


central_charges = st.one_of(
    st.sampled_from([Q(0), Q(1, 2), Q(1), Q(-2), Q(-22, 5), Q(3, 7),
                     Q(7, 10), Q(25), Q(1, 1000003), Q(-5, 999)]),
    st.fractions(min_value=-30, max_value=30, max_denominator=1000)
    .map(lambda f: Q(f.numerator, f.denominator)))
verma_words = st.lists(st.integers(2, 10), max_size=5).map(
    lambda parts: tuple(sorted(parts))).filter(lambda w: sum(w) <= 10)


@settings(max_examples=200, deadline=None)
@given(central_charges, st.integers(-6, 6), verma_words)
@example(Q(0), 2, (2,))  # the central term vanishes
@example(Q(-22, 5), 4, (2, 2))  # c/2 = -11/5
@example(Q(1, 1000003), 6, (2, 2, 2))
def test_integer_verma_engine_matches_rationals(c, p, word):
    engine, ref = _VermaEngine(c, 16), RationalVermaEngine(c, 16)
    got, want = engine.apply(p, word), ref.apply(p, word)
    assert got.keys() == want.keys()
    assert all(type(x) is int  # every memoized coefficient
               for out in engine._cache.values() for x in out.values())
    assert {w: Q(x, engine.den) for w, x in got.items()} == want
    assert engine.den == (c / 2).denominator
