"""Exact linear algebra on one matrix type: sparse blocks over one denominator.

Every matrix is a ``Block``: per row, a dict from the column of each
nonzero entry to its int numerator, over one denominator (FLINT's
``fmpq_mat`` layout).  Exact rationals enter through ``sparse_block``,
which rejects anything else (a float) with TypeError.  ``add_scaled`` adds
a scaled block into another on ints, raising its denominator to the lcm
(an operand with no entry adds nothing and does no work); sums and
scalings are built from it.  One private loop adds f * outer @ inner into
int rows over a fixed denominator: ``compose`` runs it once, and
``sum_of_products`` once per term over their lcm, with no rescaling;
peeling builds each composite state's block, and the Virasoro builder each
degree of the Verma Gram, with the latter.
``Block.reduced`` is the one pass to lowest terms, in place.
Read as a sequence, a block is its dense view of int/Q entries, built on
first read and memoized.

``rref`` (behind ``kernel_basis`` and ``inverse``) runs fraction-free
Bareiss updates on a block's int numerators and returns a block.
``positive_definite`` and ``solve_symmetric`` share one fraction-free
symmetric sweep on a block's int numerators: the first stops at the first
pivot <= 0, the second carries a right side through the sweep and
back-substitutes, so a symmetric solve forms no inverse and a diagonal
matrix costs no row operation; only a zero leading principal minor, which
the sweep cannot pivot past, sends it to ``inverse``.  ``ldl`` works in
``Q`` on the dense view.
``nonsingular_mod_p`` eliminates a square block's numerators mod the
prime 2**31 - 1 in int64: True proves the block nonsingular over Q, since
the rank mod a prime never exceeds the rank over Q (von zur Gathen and
Gerhard, Modern Computer Algebra, ch. 5), and lets a full-rank block skip
``rref``.
"""

from __future__ import annotations

import math

import numpy as np

from .scalars import ONE, Q, ZERO, canon


class Block:
    """Sparse exact matrix: rows[i] maps columns to int numerators over
    den > 0 (lowest terms once cached); as a sequence, its dense view."""

    __slots__ = ("rows", "cols", "den", "_dense")

    def __init__(self, rows: list, cols: int, den: int = 1):
        self.rows, self.cols, self.den, self._dense = rows, cols, den, None

    def __len__(self):
        return len(self.rows)

    def __getitem__(self, i):
        return self.dense()[i]

    def __iter__(self):
        return iter(self.dense())

    def __eq__(self, o):
        return self.dense() == (o.dense() if type(o) is Block else o)

    def dense(self):
        if self._dense is None:
            den = self.den
            self._dense = [[0] * self.cols for _ in self.rows]
            for out, row in zip(self._dense, self.rows):
                for j, x in row.items():
                    out[j] = x // den if x % den == 0 else Q(x, den)
        return self._dense

    def reduced(self) -> Block:
        """This block in lowest terms with no stored zero, in place; self.
        Required: call it only on a block just built, since it rebinds this
        block's rows and den.  It never writes into a row dict or the rows
        list it held, so a block sharing them keeps its form; a row with no
        stored zero in a gcd-1 block is kept, not copied."""
        rows = [{j: x for j, x in row.items() if x} if 0 in row.values()
                else row for row in self.rows]
        g = 1 if self.den == 1 else math.gcd(
            self.den, *(x for row in rows for x in row.values()))
        if g > 1:
            rows = [{j: x // g for j, x in row.items()} for row in rows]
            self.den //= g
        self.rows, self._dense = rows, None
        return self

    def over(self, den: int) -> int:
        """Lift self.den to a multiple of den; the factor of terms over den."""
        self._dense = None
        if self.den % den:
            up = den // math.gcd(self.den, den)
            self.rows = [{j: x * up for j, x in row.items()}
                         for row in self.rows]
            self.den *= up
        return self.den // den


def zero_block(rows: int, cols: int, den: int = 1) -> Block:
    return Block([{} for _ in range(rows)], cols, den)


def sparse_block(rows, cols: int) -> Block:
    """The block of rows given as {column: nonzero exact rational} dicts,
    over the lcm of their denominators (so in lowest terms)."""
    pairs = [[(j, *_ratio(x)) for j, x in row.items()] if row else ()
             for row in rows]
    den = math.lcm(*(d for row in pairs for _, _, d in row))
    return Block([{j: n * (den // d) for j, n, d in row} if row else {}
                  for row in pairs], cols, den)


def identity(n: int) -> Block:
    return Block([{i: 1} for i in range(n)], n)


def shape(a: Block):
    return len(a.rows), a.cols


def _plus(a: Block, b: Block, s) -> Block:
    """a + s * b as a new block."""
    acc = Block([dict(row) for row in a.rows], a.cols, a.den)
    add_scaled(acc, b, s)
    return acc


def mat_add(a: Block, b: Block) -> Block:
    return _plus(a, b, 1)


def mat_sub(a: Block, b: Block) -> Block:
    return _plus(a, b, -1)


def mat_scale(a: Block, s) -> Block:
    return _plus(zero_block(len(a.rows), a.cols), a, s)


def add_scaled(acc: Block, b: Block, s=1):
    """acc += s * b in place, over the entries of b."""
    if not any(b.rows):
        return
    num, den = _ratio(s)
    if num:
        f = acc.over(b.den * den) * num
        for ra, rb in zip(acc.rows, b.rows):
            for j, y in rb.items():
                ra[j] = ra.get(j, 0) + f * y


def _accumulate_product(rows: list, outer: Block, inner: Block, f: int):
    """rows += f * outer @ inner on int numerators, in place: the one
    product loop, over a denominator the caller has fixed."""
    inner_rows = inner.rows
    for ra, ro in zip(rows, outer.rows):
        get = ra.get
        for k, x in ro.items():
            fx = f * x
            for j, y in inner_rows[k].items():
                ra[j] = get(j, 0) + fx * y


def sum_of_products(rows: int, cols: int, terms) -> Block:
    """sum of s * outer @ inner over (outer, inner, int s) terms, as a
    rows x cols block in lowest terms.

    The denominator is fixed before the first product, as the lcm of
    outer.den * inner.den over the terms, so the int numerators accumulate
    into fresh rows that are never rescaled; one ``Block.reduced`` pass
    then brings the sum to lowest terms.
    """
    den = math.lcm(*(outer.den * inner.den for outer, inner, _ in terms))
    acc = zero_block(rows, cols, den)
    for outer, inner, s in terms:
        _accumulate_product(acc.rows, outer, inner,
                            den // (outer.den * inner.den) * s)
    return acc.reduced()


def mat_mul(a: Block, b: Block) -> Block:
    assert a.cols == len(b.rows), f"shape mismatch {shape(a)} x {shape(b)}"
    return compose(a, b, len(a.rows), b.cols)


def compose(outer: Block, inner: Block, rows: int, cols: int) -> Block:
    """outer @ inner as a rows x cols block (the shape of an empty path),
    unreduced over outer.den * inner.den, or den 1 if either is empty."""
    if not (any(outer.rows) and any(inner.rows)):
        return zero_block(rows, cols)
    acc = zero_block(rows, cols, outer.den * inner.den)
    _accumulate_product(acc.rows, outer, inner, 1)
    return acc


def mat_vec(a: Block, v):
    """a @ v over nonzero pairs; an all-int row sums to an int.

    Each sum starts from int 0 with the int numerator on the right of each
    product and sum, and is divided by den once.
    """
    out = []
    for row in a.rows:
        s = 0
        for j, x in row.items():
            y = v[j]
            if y:
                p = y * x
                s = p + s if type(s) is int else s + p
        out.append(canon(s / a.den) if type(s) is not int else
                   s // a.den if s % a.den == 0 else Q(s, a.den))
    return out


def transpose(a: Block) -> Block:
    out = zero_block(a.cols, len(a.rows), a.den)
    for i, row in enumerate(a.rows):
        for j, x in row.items():
            out.rows[j][i] = x
    return out


def max_abs(a: Block):
    m = max((abs(x) for row in a.rows for x in row.values()), default=0)
    return canon(Q(m, a.den)) if m else ZERO


def is_zero(a: Block) -> bool:
    return not any(any(row.values()) for row in a.rows)


def to_numpy(a: Block) -> np.ndarray:
    out = np.zeros((len(a.rows), a.cols))
    for i, row in enumerate(a.rows):
        for j, x in row.items():
            out[i, j] = x / a.den  # the float of Q(x, den)
    return out


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


def rref(a: Block):
    """Reduced row echelon form.

    Returns (r, pivot_cols) where r is the echelon matrix, a new block in
    lowest terms.  The elimination is fraction-free: it reads the int
    numerators of the block, since scaling leaves the reduced form alone,
    then column-order Gauss-Jordan runs on ints with Bareiss updates
    (p*x - f*y) // prev, each an exact division (Bareiss, Math. Comp. 22,
    1968).  After the last step every pivot entry equals the last pivot
    and every row below the rank is zero, so the reduced form is the int
    matrix over that pivot; being unique, it is the rational one.
    """
    n, m = shape(a)
    r = [[0] * m for _ in range(n)]
    for out, row in zip(r, a.rows):
        for j, x in row.items():
            out[j] = x
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
    sign = -1 if prev < 0 else 1
    return Block([{j: sign * x for j, x in enumerate(row) if x} for row in r],
                 m, sign * prev).reduced(), pivots


PRIME = 2 ** 31 - 1  # residues < 2**31, so each product fits an int64


def nonsingular_mod_p(a: Block) -> bool:
    """Whether a square block's int numerators are nonsingular mod PRIME.

    Gaussian elimination on int64 residues, stopping at the first column
    with no pivot.  The rank mod a prime never exceeds the rank over Q, so
    True proves the block nonsingular; False proves nothing (PRIME may
    divide the determinant).
    """
    n, m = shape(a)
    assert n == m, f"not square: {n} x {m}"
    r = np.zeros((n, n), dtype=np.int64)
    for i, row in enumerate(a.rows):
        for j, x in row.items():
            r[i, j] = x % PRIME
    for col in range(n):
        nonzero = np.flatnonzero(r[col:, col])
        if not len(nonzero):
            return False
        piv = col + nonzero[0]
        r[[col, piv]] = r[[piv, col]]
        below = r[col + 1:]
        f = below[:, col] * pow(int(r[col, col]), -1, PRIME) % PRIME
        below -= np.outer(f, r[col])
        below %= PRIME
    return True


def kernel_basis(a: Block):
    """Basis of the right null space, as a list of column vectors."""
    m = a.cols
    r, pivots = rref(a)
    basis = []
    for f in (j for j in range(m) if j not in pivots):
        v = [ZERO] * m
        v[f] = ONE
        for row, p in zip(r.rows, pivots):
            v[p] = Q(-row.get(f, 0), r.den)
        basis.append(v)
    return basis


def inverse(a: Block) -> Block:
    n, m = shape(a)
    assert n == m
    aug = Block([{**row, n + i: a.den} for i, row in enumerate(a.rows)],
                2 * n, a.den)  # [a | 1]
    r, pivots = rref(aug)
    if pivots[:n] != list(range(n)):
        raise ZeroDivisionError("singular matrix in exact inverse")
    # the left half is the identity, so the right half is in lowest terms
    return Block([{j - n: x for j, x in row.items() if j >= n}
                  for row in r.rows], n, r.den)


def ldl(a: Block):
    """Exact LDL^T of a symmetric matrix: symmetric elimination, no pivoting.

    Returns (low, diag), low unit lower-triangular and diag the pivots, or
    None at the first pivot <= 0.  The k-th leading principal minor is the
    product of the first k pivots, so a is positive definite exactly when
    the result is not None.
    """
    g = [list(row) for row in a]
    n = len(g)
    low = [[int(i == j) for j in range(n)] for i in range(n)]
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


def _sweep(rows: list, rhs: list = None):
    """Fraction-free symmetric elimination, in place, yielding each pivot.

    rows are a symmetric matrix's int numerators, rhs (if given) the rows
    of a right side.  Pivot k is yielded before it is used; then each row i
    below with a column-k entry becomes piv * row_i - f * row_k, on rows and
    rhs alike, and is divided by the content gcd of both.  The working
    matrix stays a nonzero row scaling of the symmetric Schur complement,
    so the rows below k with a column-k entry are row k's columns past k,
    and a diagonal input makes no row operation.  A caller stops the sweep
    by not asking for the next pivot.
    """
    for k, pk in enumerate(rows):
        piv = pk.get(k, 0)
        yield piv
        for i in [j for j in pk if j > k]:
            f = rows[i].get(k, 0)
            ri = {j: piv * x for j, x in rows[i].items()}
            for j, y in pk.items():  # clears column k
                ri[j] = ri.get(j, 0) - f * y
            g = math.gcd(*ri.values())
            if rhs is not None:
                si = {j: piv * x for j, x in rhs[i].items()}
                for j, y in rhs[k].items():
                    si[j] = si.get(j, 0) - f * y
                g = math.gcd(g, *si.values()) or 1
                rhs[i] = {j: x // g for j, x in si.items() if x}
            g = g or 1
            rows[i] = {j: x // g for j, x in ri.items() if x}


def positive_definite(a: Block) -> bool:
    """Whether a symmetric matrix is positive definite, on ints.

    The symmetric sweep on the block's numerators, stopped at the first
    pivot <= 0.  Until then every row operation is a positive row scaling
    (piv > 0, and the gcd), which keeps the sign of every later pivot, so
    each pivot has the sign of its LDL^T pivot.
    """
    return all(piv > 0 for piv in _sweep(list(a.rows)))


def solve_symmetric(a: Block, b: Block) -> Block:
    """X with a @ X = b for a symmetric block a, in lowest terms.

    The symmetric sweep of ``positive_definite`` runs on a's numerators
    with every row operation applied to b's rows too, leaving an upper
    triangular system; back substitution then gives each row of X over its
    own denominator.  Pivots may be negative.  A zero pivot (a zero leading
    principal minor, which an indefinite nonsingular matrix such as
    [[0, 1], [1, 0]] can have) leaves the sweep without a pivot, and the
    pivoting Gauss-Jordan ``inverse`` solves instead; it raises
    ZeroDivisionError for a singular a.  A diagonal a costs O(nnz b), since
    the sweep makes no row operation on it.
    """
    n = len(a.rows)
    assert a.cols == n == len(b.rows), \
        f"shape mismatch {shape(a)}, {shape(b)}"
    rows, rhs = list(a.rows), list(b.rows)
    if not all(_sweep(rows, rhs)):
        return mat_mul(inverse(a), b).reduced()
    # rows[k] @ X = rhs[k]: row k of X is (rhs_k - sum_j u_kj X_j) / u_kk
    # over the j > k of row k, kept as int numerators over dens[k] != 0
    out, dens = [None] * n, [1] * n
    for k in reversed(range(n)):
        uk = rows[k]
        later = [j for j in uk if j > k]
        den = math.lcm(*(dens[j] for j in later))
        acc = {j: den * y for j, y in rhs[k].items()}
        for j in later:
            f = uk[j] * (den // dens[j])
            get = acc.get
            for col, y in out[j].items():
                acc[col] = get(col, 0) - f * y
        den *= uk[k]
        g = math.gcd(den, *acc.values())
        out[k] = {j: x // g for j, x in acc.items() if x}
        dens[k] = den // g
    # a = A / a.den and b = B / b.den, so X = A^-1 B * a.den / b.den
    den = math.lcm(*dens)
    return Block([{j: x * (den // d) * a.den for j, x in row.items()}
                  for row, d in zip(out, dens)],
                 b.cols, den * b.den).reduced()


def trace(a: Block):
    return Q(sum(row.get(i, 0) for i, row in enumerate(a.rows)), a.den)
