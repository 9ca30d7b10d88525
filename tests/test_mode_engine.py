import copy
import hashlib
import json

from voacert import exactlinalg as xl
from voacert import mode_engine, unitary_structure
from voacert.bound_certifier import certify_v1_bound, certify_virasoro_bound
from voacert.cli import resolve_state
from voacert.errors import TruncationError
from voacert.graded_fock import (BasisState, StateVector, build_model,
                                 heisenberg_spec, lattice_spec,
                                 virasoro_spec)
from voacert.mode_engine import (_state_block, _vec_block, apply_mode,
                                 commutator_residual, sample_residuals,
                                 state_product, translation_residual)
from voacert.scalars import Q, binomial, rat_to_str
from voacert.unitary_structure import family_of, kac_moody_residual, star

import pytest


def current(model):
    return model.basis.states(1)[0]


def test_oscillator_commutator_is_central(heis8):
    """[a_p, a_{-p}] = p id on every degree block."""
    for p in (1, 2, 3):
        for s in range(p, heis8.N - 2 * p + 1):
            lhs = xl.mat_sub(
                xl.compose(heis8.gen_block(0, p, s + p),
                           heis8.gen_block(0, -p, s),
                           heis8.dim(s), heis8.dim(s)),
                xl.compose(heis8.gen_block(0, -p, s - p),
                           heis8.gen_block(0, p, s),
                           heis8.dim(s), heis8.dim(s)))
            assert lhs == xl.mat_scale(xl.identity(heis8.dim(s)), Q(p))


def test_l0_is_grading(heis8):
    for s in range(heis8.N + 1):
        assert _vec_block(heis8, heis8.nu, 0, s) == \
            xl.mat_scale(xl.identity(heis8.dim(s)), Q(s))


def test_positive_modes_kill_vacuum(heis8):
    vac = StateVector.basis(heis8.vacuum)
    for m in (1, 2, 3):
        assert apply_mode(heis8, heis8.generators[0].state, m, vac).is_zero()


def test_round_vs_plain_indexing(heis8):
    # plain a_n = round a_(n+d-1): they agree for the degree-1 current and
    # differ by one for nu, whose plain modes are L_n = nu_(n+1)
    a = current(heis8)
    for d in range(4):
        for b in heis8.basis.states(d):
            for n in (-2, 0, 2):
                assert apply_mode(heis8, a, n, b) == \
                    state_product(heis8, a, n, b)
                assert apply_mode(heis8, heis8.nu, n, b) == \
                    state_product(heis8, heis8.nu, n + 1, b)
    b = heis8.basis.states(2)[0]
    assert apply_mode(heis8, heis8.nu, 0, b) == \
        StateVector.basis(b).scale(2)  # L_0 grades


def test_state_products_of_the_current(heis8):
    a = current(heis8)
    vac = StateVector.basis(heis8.vacuum)
    # a_(1) a = <a, a> vacuum;  a_(0) a = 0;  a_(-1) a spans degree 2
    assert state_product(heis8, a, 1, a) == vac
    assert state_product(heis8, a, 0, a).is_zero()
    sq = state_product(heis8, a, -1, a)
    assert heis8.degree_of(sq) == 2
    assert not sq.is_zero()


def test_conformal_state_from_current(heis8):
    # nu = (1/2) a_(-1) a for the unit-metric rank-1 model
    a = current(heis8)
    sq = state_product(heis8, a, -1, a)
    assert sq.scale(Q(1, 2)) == heis8.nu


def test_translation_detects_quasi_primary(heis8):
    a = current(heis8)
    res = translation_residual(heis8, a, 0)
    assert res.is_zero
    assert res.details["quasi_primary"] is True
    assert set(res.details["per_m"]) == {-1, 0, 1}


def test_commutator_on_composite_states(ising8):
    nu = ising8.nu
    res = commutator_residual(ising8, nu, 2, nu, -2)
    assert res.is_zero


def test_window_overflow_raises(heis8):
    a = current(heis8)
    with pytest.raises(TruncationError):
        apply_mode(heis8, a, -2 * heis8.N, heis8.vacuum)


def test_mode_matrix_apply_matches_product(lat2_6):
    top = StateVector.basis(BasisState(1, ()))
    other = StateVector.basis(BasisState(-1, ()))
    for k in (-1, 0, 1):
        applied = apply_mode(lat2_6, top, k, other)
        d = lat2_6.degree_of(top)
        prod = state_product(lat2_6, top, k + d - 1, other)
        assert applied == prod


IDENTITIES = ("borcherds", "skewsymmetry", "commutator", "translation")


SPECS = [heisenberg_spec(1, 6), virasoro_spec("1/2", 8), lattice_spec(2, 6)]
SPEC_IDS = ["heisenberg", "virasoro", "lattice"]


@pytest.mark.parametrize("spec", SPECS, ids=SPEC_IDS)
def test_shared_blocks_are_never_mutated(spec):
    """Mode blocks are handed out uncopied; no consumer may write to one.

    Peeling accumulates into a fresh block in place and reads each tail
    as a basis label, the same path in every family.
    """
    model = build_model(spec)
    for identity in IDENTITIES:
        sample_residuals(model, identity, 8, seed=0)
    stored = copy.deepcopy((model._state_mode_cache, model._gen_blocks))
    assert stored[0] and stored[1]
    if spec.kind != "virasoro":  # nu is not one basis state: (None, k, s)
        assert any(key[0] is None for key in stored[0])
    for identity in IDENTITIES:
        checked, failures = sample_residuals(model, identity, 8, seed=1)
        assert checked == 8 and not failures
    if spec.kind == "virasoro":
        probe, certify = BasisState(0, ((0, -2),)), certify_virasoro_bound
    else:
        probe, certify = BasisState(0, ((0, -1),)), certify_v1_bound
    for p in (-2, 2, 3):  # the probe's products carry binomials in p
        assert commutator_residual(model, probe, p, probe, -p).is_zero
    assert certify(model, probe, 3, 3).passed
    state_blocks, gen_blocks = stored
    for key, block in state_blocks.items():
        assert model._state_mode_cache[key] == block, key
    for key, per_src in gen_blocks.items():
        for src, block in per_src.items():
            assert model._gen_blocks[key][src] == block, (key, src)


@pytest.mark.parametrize("spec", SPECS, ids=SPEC_IDS)
def test_cached_blocks_hold_ints_when_integral(spec):
    """Every cached entry is an int, or a Q that is not an integer."""
    model = build_model(spec)
    for identity in IDENTITIES:
        sample_residuals(model, identity, 8, seed=2)
    blocks = list(model._state_mode_cache.values()) + [
        block for per_src in model._gen_blocks.values()
        for block in per_src.values()]
    kinds = set()
    for block in blocks:
        for row in block:
            for x in row:
                assert type(x) is int or (type(x) is Q and
                                          x.denominator != 1), x
                kinds.add(type(x))
    assert int in kinds
    if spec.kind == "virasoro":
        assert Q in kinds  # c = 1/2 puts fractions into the blocks


NU_MODELS = ["heis6", "lat2_6"]  # nu = (1/2q) a_{-1}^2 Om, not coefficient 1


@pytest.mark.parametrize("name", NU_MODELS)
def test_nu_blocks_are_memoized(request, name):
    model = request.getfixturevalue(name)
    (st, co), = model.nu.terms.items()
    assert co != 1
    for k in range(-2, 3):
        for s in range(max(k, 0), model.N + 1 + min(k, 0)):
            blk = _vec_block(model, model.nu, k, s)
            assert model._state_mode_cache[(None, k, s)] is blk
            assert _vec_block(model, model.nu, k, s) is blk
            assert _vec_block(model, model.nu.copy(), k, s) is blk
            assert _vec_block(model, resolve_state(model, "nu"), k, s) is blk
            assert blk == xl.mat_scale(_state_block(model, st, k, s), co)
            if k == 0:  # L_0 grades
                assert blk == xl.mat_scale(xl.identity(model.dim(s)), s)


def _reference_commutator_rhs(model, a, p, b, q, s):
    """sum_j C(p + d_a - 1, j) (a_(j) b)_{p+q} on V_s, summed state by state
    over every product, as commutator_residual once did."""
    da, db = model.degree_of(a), model.degree_of(b)
    out = xl.zero_block(model.dim(s - p - q), model.dim(s))
    for j in range(da + db):
        binom = binomial(p + da - 1, j)
        if not binom:
            continue
        for st, co in state_product(model, a, j, b).terms.items():
            xl.add_scaled(out, _state_block(model, st, p + q, s), co * binom)
    return out


def _reference_kac_moody_rhs(model, a, m, b, n, s):
    """([a,b])_{m+n} + m (a*|b) delta_{m,-n} id on V_s, with the central
    term added as a scaled identity, as kac_moody_residual once did."""
    out = _vec_block(model, state_product(model, a, 0, b), m + n, s)
    central = Q(m) * family_of(model).pairing(star(model, a), b) \
        if m == -n else 0
    if central:
        out = xl.mat_add(out, xl.mat_scale(xl.identity(model.dim(s)),
                                           central))
    return out


REFERENCE_RHS = {"commutator window": _reference_commutator_rhs,
                 "current bracket window": _reference_kac_moody_rhs}


@pytest.mark.parametrize("corrupt", [None, (0, -1, 2, 0, 0, 1)],
                         ids=["clean", "corrupted"])
@pytest.mark.parametrize("spec", SPECS, ids=SPEC_IDS)
def test_bracket_right_sides_match_the_termwise_sums(monkeypatch, spec,
                                                     corrupt):
    """The commutator and current-algebra right sides, each one _vec_block
    of a single vector, equal the termwise sums block for block."""
    model = build_model(spec, corrupt=corrupt)
    real = mode_engine._bracket_residual
    compared = {what: 0 for what in REFERENCE_RHS}

    def comparing(model, a, p, b, q, rhs, what):
        worst, sources = real(model, a, p, b, q, rhs, what)
        if what in REFERENCE_RHS:
            for s in sources:
                assert rhs(s) == REFERENCE_RHS[what](model, a, p, b, q, s), \
                    (what, a, p, b, q, s)
                compared[what] += 1
        return worst, sources

    monkeypatch.setattr(mode_engine, "_bracket_residual", comparing)
    monkeypatch.setattr(unitary_structure, "_bracket_residual", comparing)
    checked, failures = sample_residuals(model, "commutator", 100, seed=3)
    assert checked == 100 and bool(failures) == (corrupt is not None)
    currents = model.basis.states(1)
    for a in currents:
        for b in currents:
            for m in range(-2, 3):
                for n in range(-2, 3):
                    kac_moody_residual(model, a, b, m, n)
    assert compared["commutator window"] > 100
    assert bool(compared["current bracket window"]) == bool(currents)


def test_translation_tells_a_corrupted_lattice_from_the_clean_one(lat2_6):
    # same seed and basis, so the same tuples are drawn on both models
    bad = build_model(lattice_spec(2, 6), corrupt=(0, -1, 2, 0, 0, 1))
    assert sample_residuals(lat2_6, "translation", 40, seed=0) == (40, [])
    checked, failures = sample_residuals(bad, "translation", 40, seed=0)
    assert checked == 40 and failures
    assert any(key[0] is None for key in bad._state_mode_cache)


def _exact(x):
    """Residual values and details as backend-independent JSON data."""
    if isinstance(x, (bool, str)):
        return x
    if isinstance(x, dict):
        return {str(k): _exact(v) for k, v in sorted(x.items())}
    if isinstance(x, (list, tuple)):
        return [_exact(v) for v in x]
    return rat_to_str(x)


@pytest.mark.parametrize("cap", [9, 100])
def test_a_degree_cap_above_n_is_a_value_error(ising8, cap):
    """The degrees above N of a Virasoro model hold Verma words, not the
    quotient; no draw is taken from them."""
    assert ising8.n_internal >= 9 and ising8.dim(9)
    with pytest.raises(ValueError, match=f"degree cap {cap} lies above "
                                         "the truncation N = 8"):
        sample_residuals(ising8, "translation", 1, degree_cap=cap)
    assert sample_residuals(ising8, "translation", 2, seed=0,
                            degree_cap=8) == (2, [])


def test_sampler_stream_is_pinned():
    """sample_residuals draws the same tuples and finds the same residuals.

    The digest was recorded while each identity still had its own window
    prefilter in the sampler; a rejected draw must consume the same random
    numbers whichever check rejects it.
    """
    models = [build_model(heisenberg_spec(1, 6)),
              build_model(virasoro_spec("1/2", 6)),
              build_model(lattice_spec(2, 5)),
              build_model(heisenberg_spec(1, 6), corrupt=(0, -1, 2, 0, 0, 1))]
    rows, failed = [], 0
    for i, model in enumerate(models):
        for identity in IDENTITIES:
            for seed in range(3):
                for cap in (None, 3):
                    checked, failures = sample_residuals(
                        model, identity, 6, seed=seed, degree_cap=cap)
                    failed += len(failures)
                    rows.append([i, identity, seed, cap, checked, [
                        [repr(tup), res.name, _exact(res.max_abs),
                         _exact(res.details)] for tup, res in failures]])
    assert failed == 48
    blob = json.dumps(rows, sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == \
        "6a61458316726a5923556b6e0cf19fb45ad8602c572adad357f240db9f8dae69"


PEELED_DIGEST_CASES = [
    heisenberg_spec(1, 8), heisenberg_spec(2, 6, metric=[[2, 1], [1, 2]]),
    virasoro_spec("1/2", 8), virasoro_spec(1, 8), virasoro_spec("-22/5", 8),
    lattice_spec(2, 6), lattice_spec(4, 6)]


def test_state_blocks_match_pinned_digest():
    """sha256 over the block of every plain mode -3..3 of every basis state
    of degree <= N, on every source degree whose target lies in [0, N]:
    composite states are peeled, so this pins the peeling's exact values."""
    digest = hashlib.sha256()
    for spec in PEELED_DIGEST_CASES:
        model = build_model(spec)
        n = model.N
        for d in range(n + 1):
            for state in model.basis.states(d):
                for k in range(-3, 4):
                    for s in range(max(k, 0), min(n, n + k) + 1):
                        block = [[rat_to_str(x) for x in row] for row in
                                 _state_block(model, state, k, s)]
                        digest.update(json.dumps(
                            [spec.describe(), state, k, s, block]).encode())
    assert digest.hexdigest() == (
        "9604c310bd5f1fb16ad5dc1c3e7ca428"
        "6c52ce85b3dc9826ce59f6ce7e4cac6b")


@pytest.mark.parametrize("spec", [lattice_spec(2, 6), virasoro_spec("1/2", 8)],
                         ids=["lattice", "virasoro"])
def test_each_peeled_block_is_one_sum_of_products(monkeypatch, spec):
    """On a cold sampling round, every composite state's block is one
    ``xl.sum_of_products`` call over a denominator fixed in advance, so
    peeling never rescales an accumulator through ``Block.over``."""
    import sys

    kernel, compute, over = (xl.sum_of_products,
                             mode_engine._compute_state_block, xl.Block.over)
    open_calls, per_compute, overs = [], [], {"peeling": 0, "other": 0}

    def counted_kernel(*args):
        if open_calls:
            open_calls[-1] += 1
        return kernel(*args)

    def counted_compute(model, state, k, s):
        open_calls.append(0)
        try:
            return compute(model, state, k, s)
        finally:
            calls = open_calls.pop()
            if state.factors and state not in model.generator_of:
                per_compute.append(calls)

    def counted_over(self, den):
        frame = sys._getframe(1)
        while frame.f_code.co_filename == xl.__file__:
            frame = frame.f_back
        overs["peeling" if frame.f_code is compute.__code__
              else "other"] += 1
        return over(self, den)

    monkeypatch.setattr(xl, "sum_of_products", counted_kernel)
    monkeypatch.setattr(mode_engine, "_compute_state_block", counted_compute)
    monkeypatch.setattr(xl.Block, "over", counted_over)
    model = build_model(spec)
    for identity in IDENTITIES:
        checked, failures = sample_residuals(model, identity, 10, seed=1)
        assert (checked, failures) == (10, [])
    assert per_compute and set(per_compute) == {1}
    assert overs["peeling"] == 0 and overs["other"] > 0
