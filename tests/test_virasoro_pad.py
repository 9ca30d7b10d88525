"""The Virasoro build eliminates only where the quotient is read.

Degrees above N keep every Verma word with unit coordinates, and a degree
<= N whose Gram is nonsingular mod a prime keeps every word without an
elimination.  The oracles: a model built through the whole pad with every
degree eliminated, and the closed-form dimensions at c = 1.
"""

import json

import pytest

from voacert import exactlinalg as xl
from voacert.graded_fock import build_model, virasoro_spec
from voacert.mode_engine import _state_block
from voacert.serialize import model_to_dict


def _eliminating_everywhere(monkeypatch):
    """Make every degree <= N take the rref path."""
    monkeypatch.setattr(xl, "nonsingular_mod_p", lambda g: False)


@pytest.mark.parametrize("c, n", [("1/2", 10), ("7/10", 9), (1, 10),
                                  ("-22/5", 10), (25, 8)])
def test_pad_in_verma_coordinates_gives_the_quotient_blocks(monkeypatch, c,
                                                            n):
    """Every state block of every basis state of degree <= N, between
    degrees <= N, equals the one of a model that quotients every degree
    peeling visits: N + pad built with pad 0 and every degree eliminated."""
    model = build_model(virasoro_spec(c, n))
    with monkeypatch.context() as patch:
        _eliminating_everywhere(patch)
        ref = build_model(virasoro_spec(c, model.n_internal), pad=0)
    assert model.n_internal > n
    checked = 0
    for d in range(n + 1):
        assert model.basis.states(d) == ref.basis.states(d)
        for st in model.basis.states(d):
            for s in range(n + 1):
                for k in range(s - n, s + 1):
                    got, want = (_state_block(m, st, k, s)
                                 for m in (model, ref))
                    assert (got.rows, got.cols, got.den) == \
                        (want.rows, want.cols, want.den), (st, k, s)
                    checked += 1
    assert checked > 1000


@pytest.mark.parametrize("c", ["1/2", 1])
def test_a_failed_full_rank_check_gives_the_same_model(monkeypatch, c):
    """The rref path and the mod-p certificate keep the same words with the
    same coordinates, so every label and generator block is the same."""

    def container(model):
        for m in range(-3, 4):
            for s in range(model.n_internal + 1):
                if 0 <= s - m <= model.n_internal:
                    model.gen_block(0, m, s)
        return json.dumps(model_to_dict(model), sort_keys=True)

    spec = virasoro_spec(c, 10)
    fast = container(build_model(spec))
    _eliminating_everywhere(monkeypatch)
    assert container(build_model(spec)) == fast


def test_c1_at_n20_is_certified_without_elimination(monkeypatch):
    """Every degree of the c = 1 vacuum module is nonsingular, so no degree
    eliminates, and the dimensions are p(n) - p(n-1) (words with parts
    >= 2) through degree 20."""
    calls = []
    rref = xl.rref
    monkeypatch.setattr(xl, "rref", lambda g: calls.append(g) or rref(g))
    model = build_model(virasoro_spec(1, 20), pad=0)
    assert calls == []
    p = [1] + [0] * 20
    for part in range(1, 21):
        for k in range(part, 21):
            p[k] += p[k - part]
    assert [model.dim(k) for k in range(21)] == \
        [p[k] - (p[k - 1] if k else 0) for k in range(21)]
