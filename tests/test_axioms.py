"""Exact defining-identity residuals, deterministic and property-based."""

import hashlib
import json
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from voacert.graded_fock import build_model, heisenberg_spec, lattice_spec
from voacert.mode_engine import (borcherds_required_truncation,
                                 borcherds_residual, commutator_residual,
                                 sample_residuals, skewsymmetry_residual,
                                 translation_residual)
from voacert.scalars import rat_to_str
from voacert.unitary_structure import kac_moody_residual

IDENTITIES = ("borcherds", "skewsymmetry", "commutator", "translation")


def test_sampled_residuals_vanish_everywhere(heis8, ising8, c1_8, lat2_6):
    for model in (heis8, ising8, c1_8, lat2_6):
        for identity in IDENTITIES:
            checked, failures = sample_residuals(model, identity, 60, seed=7)
            assert checked == 60
            assert failures == []


def test_borcherds_on_composites(heis8):
    a = heis8.basis.states(2)[0]
    b = heis8.basis.states(1)[0]
    c = heis8.basis.states(3)[1]
    for (m, n, k) in [(0, 0, 0), (1, -1, 0), (-1, 2, -2), (2, 1, 1)]:
        if borcherds_required_truncation(heis8, a, b, c, m, n, k) > heis8.N:
            continue
        assert borcherds_residual(heis8, a, b, c, m, n, k).is_zero


def test_skewsymmetry_across_sectors(lat2_6):
    tops = [st for st in lat2_6.basis.states(1) if not st.factors]
    assert len(tops) == 2
    ep, em = tops
    for n in (-2, -1, 0, 1):
        assert skewsymmetry_residual(lat2_6, ep, em, n).is_zero


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_commutator_property(heis6, data):
    pool = [s for d in range(4) for s in heis6.basis.states(d)]
    a = data.draw(st.sampled_from(pool))
    b = data.draw(st.sampled_from(pool))
    p = data.draw(st.integers(-2, 2))
    q = data.draw(st.integers(-2, 2))
    assert commutator_residual(heis6, a, p, b, q).is_zero


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_translation_property(heis6, data):
    pool = [s for d in range(5) for s in heis6.basis.states(d)]
    a = data.draw(st.sampled_from(pool))
    n = data.draw(st.integers(-2, 2))
    assert translation_residual(heis6, a, n).is_zero


def test_corrupted_model_fails_axioms():
    from voacert.graded_fock import build_model, heisenberg_spec

    bad = build_model(heisenberg_spec(1, 6), corrupt=(0, -1, 2, 0, 0, 1))
    _, failures = sample_residuals(bad, "commutator", 50, seed=1)
    assert failures


def _exact(x):
    """Residual values and details as backend-independent JSON data."""
    if isinstance(x, (bool, str)):
        return x
    if isinstance(x, dict):
        return {str(k): _exact(v) for k, v in sorted(x.items())}
    if isinstance(x, (list, tuple)):
        return [_exact(v) for v in x]
    return rat_to_str(x)


def test_bracket_residuals_on_corrupted_models_are_pinned():
    """All three bracket residuals, exact values and details, on every
    degree-1 pair and m, n in [-2, 2] of two corrupted models.

    The digest and counts were recorded when each residual still had its
    own source loop; kac_moody_residual must see the corruption too.
    """
    rows = []
    for spec, corrupt in ((lattice_spec(2, 5), (1, 0, 2, 0, 0, 1)),
                          (heisenberg_spec(1, 4), (0, -1, 2, 0, 0, 1))):
        model = build_model(spec, corrupt=corrupt)
        states = model.basis.states(1)
        for i, a in enumerate(states):
            for m in range(-2, 3):
                res = translation_residual(model, a, m)
                rows.append([spec.kind, "translation", i, m,
                             _exact(res.max_abs), _exact(res.details)])
                for j, b in enumerate(states):
                    for n in range(-2, 3):
                        for res in (commutator_residual(model, a, m, b, n),
                                    kac_moody_residual(model, a, b, m, n)):
                            rows.append([spec.kind, res.name, i, j, m, n,
                                         _exact(res.max_abs),
                                         _exact(res.details)])
    nonzero = Counter((r[0], r[1]) for r in rows if r[-2] != "0")
    assert len(rows) == 520
    assert nonzero == {("lattice", "commutator"): 36,
                       ("lattice", "kac_moody"): 36,
                       ("lattice", "translation"): 3,
                       ("heisenberg", "commutator"): 4,
                       ("heisenberg", "kac_moody"): 4,
                       ("heisenberg", "translation"): 3}
    blob = json.dumps(rows, sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == \
        "61c55cbd2dbace5c8392f32a0f9ac41a32f3bdc2d29d91f73e3a8c1f7206dfa8"
