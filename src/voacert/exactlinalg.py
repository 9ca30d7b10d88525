"""Exact linear algebra on dense row lists.

An entry is an ``int`` when it is integral and a ``Q`` otherwise
(``canonical`` stores a block that way), so integer-valued mode blocks add
and multiply as ints.  No kernel divides two entries with a bare ``/``: the
numerator is lifted to ``Q`` first, so int input never turns into floats.

Mode blocks are mostly zeros, and the hot-path kernels skip them:
``add_product`` (``acc += s*outer@inner``) and ``add_scaled`` (``acc +=
s*b``) work in place over nonzero entries without building a product,
``mat_mul`` skips the zero entries of both factors, and ``mat_add``,
``mat_sub``, ``mat_scale`` and ``max_abs`` do no arithmetic on a zero.
Elimination is fraction-free: ``rref`` (behind ``kernel_basis`` and
``inverse``) scales its input to ints once and runs Bareiss updates, whose
divisions are exact, so no intermediate rational is ever built; ``ldl``
works in ``Q`` and skips the zero entries below each pivot, so a diagonal
Gram matrix costs no division.  An entry that is not an exact rational (a
float) raises TypeError.  Every result stays exact.
"""

from __future__ import annotations

import math

import numpy as np

from .scalars import ONE, Q, ZERO, canon


def zeros(rows: int, cols: int):
    return [[0] * cols for _ in range(rows)]


def identity(n: int):
    out = zeros(n, n)
    for i in range(n):
        out[i][i] = 1
    return out


def canonical(a):
    """a with every integral entry stored as an int, in place; returns a."""
    for row in a:
        for j, x in enumerate(row):
            if type(x) is not int:
                row[j] = canon(x)
    return a


def shape(a):
    return len(a), len(a[0]) if a else 0


def mat_add(a, b):
    return [[(x + y if x else y) if y else x for x, y in zip(ra, rb)]
            for ra, rb in zip(a, b)]


def mat_sub(a, b):
    return [[(x - y if x else -y) if y else x for x, y in zip(ra, rb)]
            for ra, rb in zip(a, b)]


def mat_scale(a, s):
    if not s:
        return [[0] * len(row) for row in a]
    if type(s) is int:  # on the right, as in add_scaled
        return [[x * s if x else x for x in row] for row in a]
    return [[s * x if x else x for x in row] for row in a]


def add_scaled(acc, b, s):
    """acc += s * b in place, touching only the nonzero entries of b.

    An int operand goes on the right of each product and sum, so none of
    them takes Q's slower reflected operator.
    """
    if not s:
        return
    left = type(s) is not int
    for ra, rb in zip(acc, b):
        for j, y in enumerate(rb):
            if y:
                p = s * y if left else y * s
                x = ra[j]
                ra[j] = p + x if type(x) is int else x + p


def add_product(acc, outer, inner, s):
    """acc += s * outer @ inner in place, over nonzero entries only.

    The product is never built, and neither operand is changed.  Shapes
    follow compose: an operand with an empty graded piece adds nothing.
    """
    if not s:
        return
    # nonzero (column, entry) pairs of each row of inner
    inner_rows = [[(j, y) for j, y in enumerate(row) if y] for row in inner]
    for ra, ro in zip(acc, outer):
        for x, bx in zip(ro, inner_rows):
            if x and bx:
                sx = x * s
                for j, y in bx:
                    ra[j] += sx * y


def mat_mul(a, b):
    n, k = shape(a)
    k2, m = shape(b)
    assert k == k2, f"shape mismatch {shape(a)} x {shape(b)}"
    # nonzero (column, entry) pairs of each row of b
    b_rows = [[(j, y) for j, y in enumerate(row) if y] for row in b]
    out = zeros(n, m)
    for ai, row in zip(a, out):
        for x, bx in zip(ai, b_rows):
            if x and bx:
                for j, y in bx:
                    row[j] += x * y
    return out


def compose(outer, inner, rows: int, cols: int):
    """outer @ inner with the result shape given explicitly.

    Zero-row matrices cannot carry a column count in the row-list
    representation, so compositions through an empty graded piece must be
    told their shape.
    """
    if rows == 0 or cols == 0 or len(inner) == 0 or not outer or \
            len(outer[0]) == 0:
        return zeros(rows, cols)
    return mat_mul(outer, inner)


def mat_vec(a, v):
    """a @ v over nonzero pairs; an all-int row sums to an int.

    Each sum starts from int 0, and an int operand goes on the right of
    each product and sum, as in add_scaled.
    """
    out = []
    for row in a:
        s = 0
        for x, y in zip(row, v):
            if x and y:
                p = y * x if type(x) is int else x * y
                s = p + s if type(s) is int else s + p
        out.append(s)
    return out


def transpose(a):
    return [list(col) for col in zip(*a)] if a else []


def max_abs(a):
    m = ZERO
    for row in a:
        for x in row:
            if x:
                ax = -x if x < 0 else x
                if ax > m:
                    m = ax
    return m


def is_zero(a) -> bool:
    return all(not x for row in a for x in row)


def to_numpy(a) -> np.ndarray:
    return np.array(a, dtype=float).reshape(shape(a))


def _ratio(x):
    """(numerator, denominator) of an exact rational, as ints.

    Raises TypeError for anything else (a float), as ``canon`` does; an
    entry is never truncated.
    """
    if type(x) is int:
        return x, 1
    try:
        return int(x.numerator), int(x.denominator)
    except AttributeError:
        raise TypeError(f"not an exact rational: {x!r}") from None


def _integer_rows(a):
    """a times the lcm of its denominators, as a new matrix of ints."""
    pairs = [[_ratio(x) for x in row] for row in a]
    scale = math.lcm(*(den for row in pairs for _, den in row))
    return [[num * (scale // den) for num, den in row] for row in pairs]


def rref(a):
    """Reduced row echelon form.

    Returns (r, pivot_cols) where r is the echelon matrix (a new matrix of
    ``Q`` entries).  The elimination is fraction-free: the input is scaled
    to ints once, then column-order Gauss-Jordan runs on ints with Bareiss
    updates (p*x - f*y) // prev, each an exact division (Bareiss, Math.
    Comp. 22, 1968).  Every pivot row is divided by its pivot at the end;
    the reduced form is unique, so the result is the rational one.
    """
    r = _integer_rows(a)
    n, m = shape(r)
    pivots = []
    lead = 0
    prev = 1
    for col in range(m):
        if lead >= n:
            break
        piv = None
        for i in range(lead, n):
            if r[i][col]:
                piv = i
                break
        if piv is None:
            continue
        r[lead], r[piv] = r[piv], r[lead]
        prow = r[lead]
        p = prow[col]
        for i, row in enumerate(r):
            if i == lead:
                continue
            f = row[col]
            if f:
                r[i] = [(p * x - f * y) // prev for x, y in zip(row, prow)]
            elif p != prev:
                r[i] = [p * x // prev if x else 0 for x in row]
        prev = p
        pivots.append(col)
        lead += 1
    out = [[Q(x, row[col]) if x else ZERO for x in row]
           for row, col in zip(r, pivots)]
    out.extend([ZERO] * m for _ in range(n - lead))
    return out, pivots


def kernel_basis(a):
    """Basis of the right null space, as a list of column vectors."""
    n, m = shape(a)
    r, pivots = rref(a)
    free = [j for j in range(m) if j not in pivots]
    basis = []
    for f in free:
        v = [ZERO] * m
        v[f] = ONE
        for row_idx, p in enumerate(pivots):
            v[p] = -r[row_idx][f]
        basis.append(v)
    return basis


def inverse(a):
    n, m = shape(a)
    assert n == m
    aug = [list(row) + unit for row, unit in zip(a, identity(n))]
    r, pivots = rref(aug)
    if pivots[:n] != list(range(n)):
        raise ZeroDivisionError("singular matrix in exact inverse")
    return [r[i][n:] for i in range(n)]


def ldl(a):
    """Exact LDL^T of a symmetric matrix: symmetric elimination, no pivoting.

    Returns (low, diag), low unit lower-triangular and diag the pivots, or
    None at the first pivot <= 0.  The k-th leading principal minor is the
    product of the first k pivots, so a is positive definite exactly when
    the result is not None.
    """
    g = [list(row) for row in a]
    n = len(g)
    low = identity(n)
    diag = []
    for k in range(n):
        piv = g[k][k]
        if piv <= 0:
            return None
        diag.append(piv)
        for i in range(k + 1, n):
            if not g[i][k]:
                continue
            f = low[i][k] = Q(g[i][k]) / piv
            for j in range(k, n):
                g[i][j] -= f * g[k][j]
    return low, diag


def trace(a):
    return sum((a[i][i] for i in range(len(a))), ZERO)
