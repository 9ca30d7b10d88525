import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from voacert.scalars import (ONE, Q, ZERO, binomial, canon, rat_to_str,
                             rational)


def test_rational_constructors():
    assert rational(3) == Q(3)
    assert rational("3/4") == Q(3, 4)
    assert rational(Q(5, 7)) == Q(5, 7)
    assert ZERO == Q(0) and ONE == Q(1)


def test_string_round_trip():
    for s in ["0", "1", "-1", "3/4", "-22/7", "100000000000/3"]:
        assert rat_to_str(rational(s)) == s


@given(st.integers(-10 ** 6, 10 ** 6), st.integers(1, 10 ** 6))
def test_string_round_trip_random(p, q):
    x = Q(p, q)
    assert rational(rat_to_str(x)) == x


def test_decimal_strings_parse_exactly():
    assert rational("0.5") == Q(1, 2)
    assert rational("0.7") == Q(7, 10) and rational("-1.25") == Q(-5, 4)
    for bad in ("3/-4", "1 / 2", "", "x", "inf", "nan"):
        with pytest.raises(ValueError):
            rational(bad)
    with pytest.raises(ZeroDivisionError):
        rational("1/0")


@pytest.mark.parametrize("value", [0.7, 0.5, np.float64(0.3)],
                         ids=["0.7", "0.5", "numpy"])
def test_rational_refuses_floats(value):
    # Q(0.7) is 3152519739159347/4503599627370496, not 7/10
    with pytest.raises(TypeError, match="not an exact rational"):
        rational(value)


def test_binomial_small_values():
    assert binomial(4, 2) == 6
    assert binomial(5, 0) == 1
    assert binomial(3, 5) == 0
    assert binomial(0, 0) == 1


def test_binomial_negative_top():
    # C(-1, j) = (-1)^j and C(-2, j) = (-1)^j (j+1)
    for j in range(6):
        assert binomial(-1, j) == (-1) ** j
        assert binomial(-2, j) == (-1) ** j * (j + 1)


@given(st.integers(-8, 8), st.integers(1, 10))
def test_binomial_pascal_rule(top, j):
    assert binomial(top, j) == binomial(top - 1, j) + binomial(top - 1, j - 1)


@given(st.integers(-12, 12), st.integers(-2, 12))
def test_binomial_is_an_int(top, j):
    out = binomial(top, j)
    assert type(out) is int
    want = ONE
    for i in range(j):
        want *= Q(top - i, i + 1)
    assert out == (want if j >= 0 else 0)


def test_canon_keeps_exact_values_and_refuses_floats():
    assert canon(Q(6, 3)) == 2 and type(canon(Q(6, 3))) is int
    assert type(canon(ZERO)) is int and type(canon(7)) is int
    assert canon(Q(1, 2)) == Q(1, 2) and type(canon(Q(1, 2))) is Q
    with pytest.raises(TypeError):
        canon(1.0)
