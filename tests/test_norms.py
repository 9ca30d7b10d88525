import json
import math

import pytest

from voacert.errors import TruncationError
from voacert.graded_fock import BasisState
from voacert.norm_lab import (cstar_gap, damped_norm, graded_norm,
                              graded_norm_certified, norm_table)
from voacert.scalars import Q
from voacert.unitary_structure import family_of, star

REL = 1e-9


def current(model):
    return model.basis.states(1)[0]


def test_creation_mode_norm(heis12):
    # ||a_{-1}||_n = sqrt(n+1): the largest matrix element sits on the top
    a = current(heis12)
    for n in range(11):
        got = graded_norm(heis12, a, -1, n)
        assert got == pytest.approx(math.sqrt(n + 1), rel=REL)


def test_annihilation_mode_norm(heis12):
    a = current(heis12)
    for n in range(11):
        got = graded_norm(heis12, a, 1, n)
        assert got == pytest.approx(math.sqrt(n), rel=REL, abs=1e-12)


def test_l0_norm_is_filtration_top(heis12):
    for n in range(11):
        assert graded_norm(heis12, heis12.nu, 0, n) == pytest.approx(
            float(n), rel=REL, abs=1e-12)


def test_virasoro_creation_norm_at_vacuum(ising8, c1_8):
    # ||L_{-2}||_0 = sqrt((L_{-2}Om | L_{-2}Om)) = sqrt(c/2)
    for model in (ising8, c1_8):
        got = graded_norm(model, model.nu, -2, 0)
        assert got == pytest.approx(math.sqrt(float(model.c) / 2), rel=REL)


def test_certified_interval_brackets_spectral(heis8):
    a = current(heis8)
    for (m, n) in [(1, 4), (0, 3), (-1, 3)]:
        lo, hi = graded_norm_certified(heis8, a, m, n)
        spec = graded_norm(heis8, a, m, n) ** 2
        assert float(lo) - 1e-9 <= spec <= float(hi) + 1e-9


def test_certified_value_is_exact(heis8):
    # ||a_1||_4^2 = 4 exactly; the enclosure must contain the integer
    a = current(heis8)
    lo, hi = graded_norm_certified(heis8, a, 1, 4)
    assert lo <= Q(4) <= hi


def test_cstar_identity_gap(heis12, ising8, lat2_8):
    # by label: basis position 0 at degree 1 of a lattice model is e(-1)
    probes = [(heis12, current(heis12)), (ising8, ising8.nu),
              (lat2_8, BasisState(0, ((0, -1),)))]
    for model, a in probes:
        for m in (-1, 0, 1, 2):
            assert cstar_gap(model, a, m, 5) <= REL


def test_shift_identity(heis12):
    # ||a_m||_n = ||a*_{-m}||_{n-m}
    a = current(heis12)
    conj = star(heis12, a, family_of(heis12))
    for m in range(-3, 4):
        for n in range(9):
            if n - m < 0 or n - m > heis12.N:
                continue
            lhs = graded_norm(heis12, a, m, n)
            rhs = graded_norm(heis12, conj, -m, n - m)
            assert lhs == pytest.approx(rhs, rel=REL, abs=1e-12)


def test_damped_norm_monotone_in_damping(heis8):
    a = current(heis8)
    vals = [damped_norm(heis8, a, q, 6) for q in (0.25, 0.5, 0.75)]
    assert vals == sorted(vals)
    with pytest.raises(ValueError):
        damped_norm(heis8, a, 1.5, 4)


def test_norm_window_overflow(heis8):
    a = current(heis8)
    with pytest.raises(TruncationError):
        graded_norm(heis8, a, 0, heis8.N + 1)
    with pytest.raises(TruncationError):
        graded_norm(heis8, a, -3, heis8.N - 1)


def test_norm_table_round_trip(tmp_path, heis8):
    a = current(heis8)
    table = norm_table(heis8, a, range(-2, 3), 5, owner="current")
    payload = json.loads(table.to_json())
    assert payload["owner"] == "current"
    assert len(payload["cells"]) == len(list(table.cells()))
    got = {(c["m"], c["n"]): float(c["norm"]) for c in payload["cells"]}
    for m, n, v in table.cells():
        assert got[(m, n)] == pytest.approx(v, rel=1e-15)
    path = tmp_path / "norms.csv"
    table.write_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "m,n,norm"
    assert len(lines) == 1 + len(list(table.cells()))
