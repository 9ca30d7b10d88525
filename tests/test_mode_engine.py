import copy

from voacert import exactlinalg as xl
from voacert.bound_certifier import certify_v1_bound
from voacert.errors import TruncationError
from voacert.graded_fock import (BasisState, StateVector, build_model,
                                 heisenberg_spec, lattice_spec)
from voacert.mode_engine import (commutator_residual, generator_mode,
                                 mode_of_state, sample_residuals,
                                 state_product, translation_residual)
from voacert.scalars import Q

import pytest


def current(model):
    return model.basis.states(1)[0]


def test_oscillator_commutator_is_central(heis8):
    """[a_p, a_{-p}] = p id on every degree block."""
    for p in (1, 2, 3):
        ap = generator_mode(heis8, 0, p)
        am = generator_mode(heis8, 0, -p)
        for s in range(p, heis8.N - 2 * p + 1):
            lhs = xl.mat_sub(
                xl.compose(ap.block(s + p), am.block(s),
                           heis8.dim(s), heis8.dim(s)),
                xl.compose(am.block(s - p), ap.block(s),
                           heis8.dim(s), heis8.dim(s)))
            assert lhs == xl.mat_scale(xl.identity(heis8.dim(s)), Q(p))


def test_l0_is_grading(heis8):
    l0 = mode_of_state(heis8, heis8.nu, 0)
    for s in range(heis8.N + 1):
        assert l0.block(s) == xl.mat_scale(xl.identity(heis8.dim(s)), Q(s))


def test_positive_modes_kill_vacuum(heis8):
    vac = StateVector.basis(heis8.vacuum)
    for m in (1, 2, 3):
        assert generator_mode(heis8, 0, m).apply(vac).is_zero()


def test_round_vs_plain_indexing(heis8):
    a = current(heis8)
    plain = mode_of_state(heis8, a, 2)
    rnd = mode_of_state(heis8, a, 2, convention="round")
    # for a degree-1 state the conventions agree: a_n = a_(n)
    assert plain.blocks == rnd.blocks


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
        mode_of_state(heis8, a, -2 * heis8.N)


def test_mode_matrix_apply_matches_product(lat2_6):
    top = StateVector.basis(BasisState(1, ()))
    other = StateVector.basis(BasisState(-1, ()))
    for k in (-1, 0, 1):
        applied = mode_of_state(lat2_6, top, k).apply(other)
        d = lat2_6.degree_of(top)
        prod = state_product(lat2_6, top, k + d - 1, other)
        assert applied == prod


IDENTITIES = ("borcherds", "skewsymmetry", "commutator", "translation")


@pytest.mark.parametrize("spec", [heisenberg_spec(1, 6), lattice_spec(2, 6)],
                         ids=["heisenberg", "lattice"])
def test_shared_blocks_are_never_mutated(spec):
    """Mode blocks are handed out uncopied; no consumer may write to one."""
    model = build_model(spec)
    for identity in IDENTITIES:
        sample_residuals(model, identity, 8, seed=0)
    stored = copy.deepcopy((model._state_mode_cache, model._gen_blocks))
    assert stored[0] and stored[1]
    for identity in IDENTITIES:
        checked, failures = sample_residuals(model, identity, 8, seed=1)
        assert checked == 8 and not failures
    the_current = BasisState(0, ((0, -1),))
    for p in (-2, 2, 3):  # a_(1) a is the vacuum, with binomial p
        assert commutator_residual(model, the_current, p, the_current,
                                   -p).is_zero
    assert certify_v1_bound(model, the_current, 3, 3).passed
    state_blocks, gen_blocks = stored
    for key, block in state_blocks.items():
        assert model._state_mode_cache[key] == block, key
    for key, per_src in gen_blocks.items():
        for src, block in per_src.items():
            assert model._gen_blocks[key][src] == block, (key, src)
