"""Exact rational scalars.

All structure constants, Gram entries and identity residuals are kept as
exact rationals; only spectral quantities (norms) are ever floated.  gmpy2's
mpq is used when available because it is several times faster than
fractions.Fraction on the word sizes that show up in Gram recursions.

An exact scalar is an ``int`` when it is integral and a ``Q`` otherwise
(``canon``); an int equals its Q, and integer arithmetic is far cheaper.
Two ints must never meet in a bare ``/``, which would float them: every
division lifts one side to ``Q`` first.  Mode blocks hold int numerators
over one denominator (``exactlinalg.Block``), so their hot loops run on
ints alone.
"""

from __future__ import annotations

try:
    from gmpy2 import mpq as Q
except ImportError:  # pragma: no cover - gmpy2 is an optional extra
    from fractions import Fraction as Q

ZERO = Q(0)
ONE = Q(1)


def canon(x):
    """x as an int when it is integral, x itself otherwise.

    Raises TypeError for anything that is not an exact rational (a float).
    """
    try:
        den = x.denominator
    except AttributeError:
        raise TypeError(f"not an exact rational: {x!r}") from None
    return int(x) if den == 1 else x


def rational(x):
    """An exact rational from an int, another rational or a string ('p/q',
    'p' or a decimal such as '0.5'; ValueError otherwise).

    Raises TypeError for a float (numpy's included), whose binary value
    is not the decimal it prints as.
    """
    if isinstance(x, float):
        raise TypeError(f"not an exact rational: {x!r}")
    return Q(x)


def rat_to_str(x) -> str:
    """Serialize a rational as 'p/q' (or 'p' when the denominator is 1)."""
    num, den = x.numerator, x.denominator
    return f"{num}/{den}" if den != 1 else f"{num}"


def binomial(top: int, j: int) -> int:
    """Generalized binomial coefficient C(top, j) for integer top, j >= 0.

    top may be negative (needed by the mode-expansion sums).  Every partial
    product C(top, i) is an integer, so the floor division is exact.
    """
    if j < 0:
        return 0
    out = 1
    for i in range(j):
        out = out * (top - i) // (i + 1)
    return out
