"""Exact-rational linear algebra on dense row lists.

Matrices are lists of row lists with rational entries.  Mode blocks are
mostly zeros, so the two kernels on the block pipeline's hot path skip them:
``add_scaled`` accumulates ``acc += s*b`` in place over the nonzero entries
of ``b`` only, and ``mat_mul`` lists the nonzero entries of each row of its
right factor once and skips the zero entries of its left factor.  The rest
(elimination included) is plain dense code, which the small graded pieces of
desk-scale truncations keep cheap; every result stays exact.
"""

from __future__ import annotations

import numpy as np

from .scalars import ONE, Q, ZERO


def zeros(rows: int, cols: int):
    return [[ZERO] * cols for _ in range(rows)]


def identity(n: int):
    out = zeros(n, n)
    for i in range(n):
        out[i][i] = ONE
    return out


def shape(a):
    return len(a), len(a[0]) if a else 0


def mat_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(a, s):
    return [[s * x for x in row] for row in a]


def add_scaled(acc, b, s):
    """acc += s * b in place, touching only the nonzero entries of b."""
    if not s:
        return
    for ra, rb in zip(acc, b):
        for j, y in enumerate(rb):
            if y:
                ra[j] += s * y


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
    out = []
    for row in a:
        s = ZERO
        for x, y in zip(row, v):
            if x and y:
                s += x * y
        out.append(s)
    return out


def transpose(a):
    return [list(col) for col in zip(*a)] if a else []


def max_abs(a):
    m = ZERO
    for row in a:
        for x in row:
            ax = -x if x < 0 else x
            if ax > m:
                m = ax
    return m


def is_zero(a) -> bool:
    return all(not x for row in a for x in row)


def to_numpy(a) -> np.ndarray:
    n, m = shape(a)
    out = np.empty((n, m), dtype=float)
    for i in range(n):
        for j in range(m):
            out[i, j] = float(a[i][j])
    return out


def rref(a):
    """Reduced row echelon form.

    Returns (r, pivot_cols) where r is the echelon matrix (a copy).
    """
    r = [list(row) for row in a]
    n, m = shape(r)
    pivots = []
    lead = 0
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
        inv = ONE / r[lead][col]
        r[lead] = [x * inv for x in r[lead]]
        for i in range(n):
            if i != lead and r[i][col]:
                f = r[i][col]
                r[i] = [x - f * y for x, y in zip(r[i], r[lead])]
        pivots.append(col)
        lead += 1
    return r, pivots


def rank(a) -> int:
    return len(rref(a)[1])


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


def solve(a, rhs):
    """Solve a x = rhs for square nonsingular a; rhs is a vector."""
    n, m = shape(a)
    assert n == m == len(rhs)
    aug = [list(row) + [rhs[i]] for i, row in enumerate(a)]
    r, pivots = rref(aug)
    if len(pivots) != n or pivots != list(range(n)):
        raise ZeroDivisionError("singular matrix in exact solve")
    return [r[i][n] for i in range(n)]


def inverse(a):
    n, m = shape(a)
    assert n == m
    aug = [list(row) + list(identity(n)[i]) for i, row in enumerate(a)]
    r, pivots = rref(aug)
    if pivots[:n] != list(range(n)):
        raise ZeroDivisionError("singular matrix in exact inverse")
    return [r[i][n:] for i in range(n)]


def trace(a):
    return sum((a[i][i] for i in range(len(a))), ZERO)


def charpoly(a):
    """Characteristic polynomial coefficients [c_0, ..., c_n] with
    p(x) = sum c_k x^k and c_n = 1, via Faddeev-LeVerrier."""
    n, m = shape(a)
    assert n == m
    coeffs = [ZERO] * (n + 1)
    coeffs[n] = ONE
    mk = identity(n)
    for k in range(1, n + 1):
        mk = mat_mul(a, mk)
        c = -trace(mk) / Q(k)
        coeffs[n - k] = c
        for i in range(n):
            mk[i][i] += c
    return coeffs


def poly_eval(coeffs, x):
    out = ZERO
    for c in reversed(coeffs):
        out = out * x + c
    return out


def _poly_divmod(num, den):
    num = list(num)
    deg_d = len(den) - 1
    while den and not den[-1]:
        den = den[:-1]
        deg_d -= 1
    quot = [ZERO] * max(1, len(num) - deg_d)
    while len(num) - 1 >= deg_d and any(num):
        while num and not num[-1]:
            num.pop()
        if len(num) - 1 < deg_d:
            break
        k = len(num) - 1 - deg_d
        f = num[-1] / den[-1]
        quot[k] = f
        for i in range(deg_d + 1):
            num[k + i] -= f * den[i]
        num.pop()
    return quot, num


def _poly_gcd(a, b):
    a, b = list(a), list(b)
    while b and any(b):
        _, rem = _poly_divmod(a, b)
        while rem and not rem[-1]:
            rem.pop()
        a, b = b, rem
    return a


def sturm_chain(coeffs):
    coeffs = list(coeffs)
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    deriv = [coeffs[i] * Q(i) for i in range(1, len(coeffs))]
    # sign-change counting needs a square-free polynomial; strip repeated
    # roots (they do not change which roots exist)
    if deriv:
        g = _poly_gcd(coeffs, deriv)
        if len(g) > 1:
            coeffs, _ = _poly_divmod(coeffs, g)
            while coeffs and not coeffs[-1]:
                coeffs.pop()
            deriv = [coeffs[i] * Q(i) for i in range(1, len(coeffs))]
    chain = [coeffs]
    if deriv:
        chain.append(deriv)
    while len(chain[-1]) > 1 or (chain[-1] and chain[-1][0]):
        _, rem = _poly_divmod(chain[-2], chain[-1])
        while rem and not rem[-1]:
            rem.pop()
        if not rem:
            break
        chain.append([-c for c in rem])
    return chain


def _sign_changes(chain, x):
    signs = []
    for p in chain:
        v = poly_eval(p, x)
        if v:
            signs.append(1 if v > 0 else -1)
    changes = 0
    for a, b in zip(signs, signs[1:]):
        if a != b:
            changes += 1
    return changes


def count_roots(coeffs, lo, hi, chain=None) -> int:
    """Number of distinct real roots in (lo, hi], by Sturm's theorem."""
    if chain is None:
        chain = sturm_chain(coeffs)
    return _sign_changes(chain, lo) - _sign_changes(chain, hi)


def largest_root_interval(coeffs, tol=Q(1, 10**12)):
    """Certified rational enclosure [lo, hi] of the largest real root.

    Uses a Sturm chain, so the enclosure is a genuine certificate.  Raises
    ValueError when the polynomial has no real root.
    """
    n = len(coeffs) - 1
    lead = coeffs[n]
    bound = ONE + max((abs(c / lead) for c in coeffs[:n]), default=ZERO)
    chain = sturm_chain(coeffs)
    lo, hi = -bound, bound
    if count_roots(coeffs, lo, hi, chain) == 0:
        raise ValueError("polynomial has no real root")
    while hi - lo > tol * max(ONE, abs(hi)):
        mid = (lo + hi) / 2
        if count_roots(coeffs, mid, hi, chain) > 0:
            lo = mid
        else:
            hi = mid
    return lo, hi
