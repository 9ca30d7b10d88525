import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from voacert import exactlinalg as xl
from voacert.scalars import ONE, Q, ZERO


def qmat(rows):
    return [[Q(x) for x in row] for row in rows]


def zeros(rows, cols):
    return [[0] * cols for _ in range(rows)]


def block(a, cols=None):
    """The block of a dense matrix; cols defaults to its row length (0 for
    a matrix without rows)."""
    if cols is None:
        cols = len(a[0]) if a else 0
    return xl.sparse_block([{j: x for j, x in enumerate(row) if x}
                            for row in a], cols)


def dense(obj):
    """obj with every block replaced by its dense view."""
    if type(obj) is xl.Block:
        return obj.dense()
    if isinstance(obj, (list, tuple)):
        return [dense(x) for x in obj]
    return obj


def test_shapes_and_identity():
    a = xl.zero_block(2, 3)
    assert xl.shape(a) == (2, 3)
    i3 = xl.identity(3)
    assert type(i3) is xl.Block and i3 == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert xl.mat_mul(i3, i3) == i3
    assert xl.transpose(block(qmat([[1, 2], [3, 4]]))) \
        == qmat([[1, 3], [2, 4]])
    assert xl.trace(block(qmat([[2, 0], [0, 3]]))) == Q(5)


def test_compose_keeps_explicit_shape():
    # a path through an empty graded piece must still have the right shape
    empty = xl.zero_block(0, 2)
    tall = xl.zero_block(3, 0)
    out = xl.compose(tall, empty, 3, 2)
    assert xl.shape(out) == (3, 2)
    a = qmat([[1, 2], [3, 4]])
    assert xl.compose(block(a), xl.identity(2), 2, 2) == a


def test_rank_and_kernel():
    a = block(qmat([[1, 1], [1, 1]]))
    assert len(xl.rref(a)[1]) == 1
    ker = xl.kernel_basis(a)
    assert len(ker) == 1
    v = ker[0]
    assert xl.mat_vec(a, v) == [ZERO, ZERO]


def test_inverse_known():
    a = block(qmat([[2, 1], [1, 1]]))
    inv = xl.inverse(a)
    assert type(inv) is xl.Block
    assert xl.mat_mul(a, inv) == xl.identity(2)
    with pytest.raises(ZeroDivisionError):
        xl.inverse(block(qmat([[1, 1], [1, 1]])))


small_q = st.fractions(min_value=-5, max_value=5, max_denominator=6) \
    .map(lambda f: Q(f.numerator, f.denominator))


@given(st.lists(st.lists(small_q, min_size=3, max_size=3),
                min_size=3, max_size=3))
def test_inverse_round_trip_random(rows):
    a = block(rows, 3)
    try:
        inv = xl.inverse(a)
    except ZeroDivisionError:
        assume(False)
    assert xl.mat_mul(a, inv) == xl.identity(3)
    assert xl.mat_mul(inv, a) == xl.identity(3)


# -- zero-skipping kernels against dense references --------------------------


def dense_mat_mul(a, b, m):
    """Naive triple loop over every entry, zeros included; b has m
    columns."""
    k = len(b)
    return [[sum((row[t] * b[t][j] for t in range(k)), ZERO)
             for j in range(m)] for row in a]


def dense_add_scaled(acc, b, s):
    return [[x + s * y for x, y in zip(ra, rb)] for ra, rb in zip(acc, b)]


def dense_add_product(acc, a, b, s):
    """acc + s * (a @ b) over every entry; the shape is acc's."""
    return [[x + s * sum((ra[t] * b[t][j] for t in range(len(b))), ZERO)
             for j, x in enumerate(racc)] for racc, ra in zip(acc, a)]


def exact_entries(obj):
    """Every leaf of nested lists/tuples, each required to be int or Q."""
    if isinstance(obj, (list, tuple)):
        return [x for item in obj for x in exact_entries(item)]
    assert type(obj) in (int, Q), f"inexact entry {obj!r}"
    return [obj]


# mostly zeros, like mode blocks; some rows entirely zero; entries are ints
# when integral and Q otherwise, as in cached blocks, but Q-valued integers
# and Q zeros occur too
sparse_q = st.one_of(st.just(0), st.just(ZERO), st.just(0), small_q,
                     st.integers(-5, 5))


def sparse_matrix(rows, cols):
    row = st.one_of(st.builds(lambda: [ZERO] * cols),  # a fresh list
                    st.lists(sparse_q, min_size=cols, max_size=cols))
    return st.lists(row, min_size=rows, max_size=rows)


@st.composite
def add_operands(draw):
    n, m = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    return draw(sparse_matrix(n, m)), draw(sparse_matrix(n, m))


@st.composite
def mul_operands(draw):
    n, k, m = (draw(st.integers(0, 5)) for _ in range(3))
    return k, m, draw(sparse_matrix(n, k)), draw(sparse_matrix(k, m))


@given(mul_operands())
@example((0, 0, [[], []], []))  # 2x0 times 0x0
@example((1, 0, [[Q(1)], [Q(2)]], [[]]))  # 2x1 times 1x0
@example((0, 0, [], []))  # 0x0 times 0x0
@example((2, 3, [], [[1, 0, 2], [0, Q(1, 2), 0]]))  # 0x2 times 2x3
def test_mat_mul_matches_dense_reference(operands):
    k, m, a, b = operands
    x, y = block(a, k), block(b, m)
    out = xl.mat_mul(x, y)
    assert type(out) is xl.Block
    assert out == dense_mat_mul(a, b, m)
    assert xl.shape(out) == (len(a), m)
    assert x == a and y == b


@given(add_operands(), st.one_of(st.just(0), st.just(ZERO), small_q,
                                 st.integers(-3, 3)))
@example(([[], []], [[], []]), 0)  # 2x0
@example(([], []), Q(3))  # 0x0
def test_zero_skipping_kernels_match_dense_references(operands, s):
    a, b = operands
    ba, bb = block(a), block(b)
    assert xl.mat_add(ba, bb) == [[x + y for x, y in zip(ra, rb)]
                                  for ra, rb in zip(a, b)]
    assert xl.mat_sub(ba, bb) == [[x - y for x, y in zip(ra, rb)]
                                  for ra, rb in zip(a, b)]
    scaled = xl.mat_scale(ba, s)
    assert scaled == [[s * x for x in row] for row in a]
    assert [len(row) for row in scaled] == [len(row) for row in a]
    assert xl.max_abs(ba) == max((abs(x) for row in a for x in row),
                                 default=ZERO)
    exact_entries(dense([xl.mat_add(ba, bb), xl.mat_sub(ba, bb), scaled,
                         xl.max_abs(ba)]))
    assert ba == a and bb == b


@given(add_operands())
@example(([], []))  # 0x0
@example(([[], [], []], []))  # 3x0
@example(([[10 ** 30, Q(10 ** 40 + 1, 7 ** 30), 2 ** 63 + 1]], []))
def test_to_numpy_matches_per_entry_float(operands):
    a, _ = operands
    out = xl.to_numpy(block(a))
    assert out.dtype == float and out.shape == xl.shape(block(a))
    assert out.tolist() == [[float(x) for x in row] for row in a]


@given(st.integers(0, 5).flatmap(lambda m: st.tuples(
    st.lists(st.lists(st.integers(-4, 4) | st.just(0), min_size=m,
                      max_size=m), max_size=5),
    st.lists(st.integers(-4, 4) | st.just(0), min_size=m, max_size=m))))
@example(([[1, 2], [0, 0]], [3, 4]))
@example(([], []))  # 0x0
def test_mat_vec_on_int_input_returns_ints(operands):
    rows, v = operands
    got = xl.mat_vec(block(rows), v)
    assert got == xl.mat_vec(block(qmat(rows)), [Q(y) for y in v])
    assert got == [sum(x * y for x, y in zip(row, v)) for row in rows]
    assert all(type(x) is int for x in got)


@given(add_operands())
def test_mat_vec_matches_dense_reference(operands):
    a, b = operands
    v = b[0] if b else []
    want = [sum((x * y for x, y in zip(row, v)), ZERO) for row in a]
    got = xl.mat_vec(block(a), v)
    assert got == want
    exact_entries(got)


# -- sparse blocks against the dense references ------------------------------


def assert_reduced(b):
    """b's form is in lowest terms: nonzero int numerators over an int
    den > 0 that shares no factor with all of them."""
    nums = [x for row in b.rows for x in row.values()]
    assert all(type(x) is int and x for x in nums)
    assert type(b.den) is int and b.den > 0 and math.gcd(b.den, *nums) == 1


def canonical_entries(a):
    """Every dense entry is an int when integral and a Q otherwise."""
    assert all(type(x) is int or x.denominator != 1
               for x in exact_entries(a))


def block_of(a, cols):
    """block(a, cols), checked to be reduced and to round-trip to a
    canonical dense view that is built once."""
    b = block(a, cols)
    assert_reduced(b)
    assert b.dense() == a and b.dense() is b.dense()
    assert xl.shape(b) == (len(a), cols)
    assert all(len(row) == cols for row in b.dense())
    canonical_entries(b.dense())
    return b


def assert_block_equals(got, want, cols):
    """A block result against its dense reference: values, shape, reduced
    form, canonical entries and bit-identical floats."""
    assert got == want and got.cols == cols
    copy = xl.Block([dict(row) for row in got.rows], got.cols, got.den)
    reduced = copy.reduced()  # got stays the kernel's own unreduced form
    assert_reduced(reduced)
    assert reduced == want
    assert reduced.den == math.lcm(*(Q(x).denominator for row in want
                                     for x in row))
    canonical_entries(got.dense())
    assert xl.to_numpy(got).shape == (len(want), cols)
    assert xl.to_numpy(got).tolist() == [[float(x) for x in row]
                                         for row in want]


@st.composite
def block_operands(draw):
    """Shapes n, k, m in [0, 5] with n x m matrices acc and other, an
    n x k matrix a and a k x m matrix b."""
    n, k, m = (draw(st.integers(0, 5)) for _ in range(3))
    return (n, k, m, draw(sparse_matrix(n, m)), draw(sparse_matrix(n, k)),
            draw(sparse_matrix(k, m)), draw(sparse_matrix(n, m)))


block_scalars = st.one_of(st.just(0), st.just(ZERO), st.just(ONE), small_q,
                          st.integers(-3, 3))
DENOMINATOR_GROWS = (  # 1/2, then 1/3 and 1/6 raise the running lcm
    1, 1, 2, [[Q(1, 2), 0]], [[Q(1, 3)]], [[Q(1, 2), 3]], [[Q(1, 2), 0]])
REDUCES_TO_INTS = (  # 1/2 + 1/2 and 3 * 1/3: the sums are integral
    1, 1, 2, [[Q(1, 2), 0]], [[3]], [[Q(1, 3), 0]], [[Q(1, 2), 0]])


@given(block_operands(), block_scalars)
@example((2, 0, 0, [[], []], [[], []], [], [[], []]), Q(3))  # 2x0
@example((0, 0, 3, [], [], [], []), Q(3))  # 0x3
@example(DENOMINATOR_GROWS, Q(1, 6))
@example(REDUCES_TO_INTS, 1)
def test_add_scaled_matches_dense_reference(operands, s):
    _, _, m, acc, _, _, other = operands
    got, term = block_of(acc, m), block_of(other, m)
    xl.add_scaled(got, term, s)
    assert_block_equals(got, dense_add_scaled(acc, other, s), m)
    assert term == other


@given(block_operands(), block_scalars)
@example((2, 0, 3, [[0] * 3] * 2, [[], []], [], [[0] * 3] * 2), Q(1, 2))
@example((0, 2, 2, [], [], [[1, 2], [3, 4]], []), 2)  # 0x2 times 2x2
@example(DENOMINATOR_GROWS, Q(2, 3))
@example(REDUCES_TO_INTS, 2)
@example((1, 2, 2, [[1, Q(1, 2)]], [[1, 1]], [[1, 0], [-1, 0]],  # cancels:
          [[1, Q(1, 2)]]), 0)  # compose and mat_sub store zeros
def test_block_kernels_match_dense_references(operands, s):
    n, k, m, acc, a, b, other = operands
    x, y = block_of(acc, m), block_of(other, m)
    cases = [
        (xl.compose(block_of(a, k), block_of(b, m), n, m),
         dense_add_product(zeros(n, m), a, b, 1)),
        (xl.mat_add(x, y), dense_add_scaled(acc, other, 1)),
        (xl.mat_sub(x, y), dense_add_scaled(acc, other, -1)),
        (xl.mat_scale(x, s), [[s * v for v in row] for row in acc])]
    for got, want in cases:
        assert_block_equals(got, want, m)
        top = xl.max_abs(got)
        assert top == max((abs(v) for row in want for v in row), default=ZERO)
        canonical_entries([top] if top else [])
        assert xl.is_zero(got) == all(not v for row in want for v in row)
    vec = other[0] if other else [ZERO] * m
    got = xl.mat_vec(x, vec)
    assert got == [sum((p * q for p, q in zip(row, vec)), ZERO)
                   for row in acc]
    canonical_entries(got)
    assert x == acc and y == other


@given(st.lists(st.tuples(sparse_matrix(2, 3), block_scalars), max_size=6))
@example([([[Q(1, 2), 0, 0], [0, 0, 0]], 1),  # den 1 -> 2 -> 6 -> 30 -> 1
          ([[0, 0, 0], [0, Q(1, 3), 0]], 3),
          ([[0, 4, 0], [0, 0, 0]], Q(1, 5)),
          ([[Q(1, 2), Q(-4, 5), 0], [0, 0, 0]], 1)])
def test_block_sum_grows_its_denominator_and_reduces_once(terms):
    got, want = xl.zero_block(2, 3), zeros(2, 3)
    for mat, s in terms:
        xl.add_scaled(got, block_of(mat, 3), s)
        want = dense_add_scaled(want, mat, s)
        assert got.den % math.lcm(*(Q(x).denominator for row in want
                                    for x in row)) == 0
    assert_block_equals(got, want, 3)


@st.composite
def product_terms(draw):
    """Shapes n, m in [0, 4] and up to four (k, n x k, k x m, int s)
    terms, each with its own inner dimension k in [0, 4]."""
    n, m = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    terms = []
    for _ in range(draw(st.integers(0, 4))):
        k = draw(st.integers(0, 4))
        terms.append((k, draw(sparse_matrix(n, k)), draw(sparse_matrix(k, m)),
                      draw(st.integers(-6, 6))))
    return n, m, terms


@given(product_terms())
@example((0, 3, [(2, [], [[1, 0, Q(1, 2)], [0, 3, 0]], 2)]))  # 0 rows
@example((2, 0, [(1, [[Q(1, 3)], [2]], [[]], -1)]))  # 0 columns
@example((2, 0, [(0, [[], []], [], 3)]))  # 2x0 times 0x0
@example((0, 0, [(0, [], [], 3)]))  # 0x0 times 0x0
@example((1, 2, [(0, [[]], [], 5)]))  # 1x0 times 0x2
@example((1, 2, [(2, [[1, Q(1, 2)]], [[1, 0], [0, 1]], 1),  # s = 0
                 (1, [[2]], [[3, Q(4)]], 0)]))
@example((1, 1, [(1, [[Q(1, 2)]], [[Q(1, 3)]], 1),  # cancels to zero
                 (1, [[Q(1, 3)]], [[Q(1, 2)]], -1)]))
@example((1, 2, [(1, [[Q(1, 2)]], [[1, Q(1, 5)]], 3),  # mixed denominators
                 (2, [[Q(1, 3), 0]], [[Q(1, 7), 0], [1, 1]], -2),
                 (1, [[0]], [[Q(1, 11), 1]], 4)]))  # an empty outer
@example((1, 2, [(2, [[Q(1, 2), 0]], [[1, 0], [0, 1]], 1),  # lcm 2, 3, 6
                 (1, [[Q(1, 3)]], [[Q(1, 2), 3]], -2)]))
@example((1, 1, [(1, [[Q(1, 2)]], [[1]], 1),  # 1/2 + 1/2: reduces to 1
                 (1, [[Q(1, 2)]], [[1]], 1)]))
def test_sum_of_products_matches_dense_reference(operands):
    n, m, terms = operands
    blocks = [(block_of(a, k), block_of(b, m), s) for k, a, b, s in terms]

    def forms():
        return [([dict(r) for r in x.rows], x.den) for t in blocks
                for x in t[:2]]

    before = forms()
    got = xl.sum_of_products(n, m, blocks)
    assert xl.shape(got) == (n, m)
    assert_reduced(got)
    ref = zeros(n, m)
    for k, a, b, s in terms:
        ref = dense_add_product(ref, a, b, s)
    assert_block_equals(got, ref, m)
    assert forms() == before


@st.composite
def unreduced_blocks(draw):
    """(matrix, block): a sparse matrix and a block of it that stores
    zeros and whose numerators and den share a factor scale >= 1."""
    n, m = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    a = draw(sparse_matrix(n, m))
    scale = draw(st.integers(1, 6))
    b = block(a, m)
    rows = []
    for row in b.rows:
        out = {j: scale * x for j, x in row.items()}
        for j in (draw(st.sets(st.integers(0, m - 1))) if m else ()):
            out.setdefault(j, 0)
        rows.append(out)
    return a, xl.Block(rows, m, scale * b.den)


@given(unreduced_blocks())
@example(([[Q(1, 2), 0]], xl.Block([{0: 3, 1: 0}], 2, 6)))  # zero and gcd 3
@example(([[2, 0]], xl.Block([{0: 2}], 2)))  # already in lowest terms
@example(([[0, 0]], xl.Block([{1: 0}], 2, 4)))  # only a stored zero
def test_reduced_works_in_place(operands):
    a, b = operands
    view, rows = b.dense(), b.rows
    held = [dict(row) for row in rows]
    in_lowest_terms = math.gcd(
        b.den, *(x for row in rows for x in row.values())) == 1
    got = b.reduced()
    assert got is b
    assert_reduced(got)
    assert all(0 not in row.values() for row in got.rows)
    assert got == a and got.dense() is not view
    assert rows == held  # no row dict or rows list it held was written
    if in_lowest_terms:
        assert all(x is y for x, y in zip(got.rows, rows)
                   if 0 not in y.values())


# -- exact division on int input ---------------------------------------------


def _same_outcome(fn, ints, rats):
    """fn on an int block equals fn on the same matrix over a larger
    denominator, or both raise."""
    try:
        want = fn(rats)
    except ZeroDivisionError as exc:
        with pytest.raises(type(exc)):
            fn(ints)
        return
    got = fn(ints)
    assert got == want
    exact_entries(dense(got))


def over(b, den):
    """The matrix of block b as numerators over b.den * den, not in lowest
    terms."""
    return xl.Block([{j: den * x for j, x in row.items()} for row in b.rows],
                    b.cols, b.den * den)


@given(st.integers(1, 4).flatmap(lambda n: st.integers(1, 4).flatmap(
    lambda m: st.lists(st.lists(st.integers(-4, 4), min_size=m, max_size=m),
                       min_size=n, max_size=n))))
@example([[1, 2], [2, 4]])  # singular
@example([[0, -2], [1, 0]])  # nonsingular, needs a row swap
def test_elimination_on_int_input_matches_rationals(rows):
    ints = block(rows)
    k = min(len(rows), len(rows[0]))
    square_ints = block([row[:k] for row in rows[:k]])
    for fn in (xl.rref, xl.kernel_basis):
        _same_outcome(fn, ints, over(ints, 6))
    _same_outcome(xl.inverse, square_ints, over(square_ints, 6))


# -- LDL^T against Sylvester minors ------------------------------------------


def laplace_det(a):
    """Determinant by cofactor expansion along the first row."""
    if not a:
        return 1
    return sum((-1) ** j * x * laplace_det([row[:j] + row[j + 1:]
                                            for row in a[1:]])
               for j, x in enumerate(a[0]) if x)


def symmetric(rows, gram):
    """rows^T rows + 1 (positive definite) when gram, else rows mirrored."""
    n = len(rows)
    if gram:
        return [[sum(rows[t][i] * rows[t][j] for t in range(n)) + (i == j)
                 for j in range(n)] for i in range(n)]
    return [[rows[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]


def sylvester(a):
    """Every leading principal minor of a is positive."""
    return all(laplace_det([row[:k] for row in a[:k]]) > 0
               for k in range(1, len(a) + 1))


@given(st.integers(0, 4).flatmap(lambda n: st.lists(
    st.lists(st.integers(-3, 3), min_size=n, max_size=n),
    min_size=n, max_size=n)), st.booleans())
@example([[1, 2], [2, 1]], False)  # leading minors 1, -3
@example([[1, 0], [0, 0]], False)  # second pivot exactly zero
@example([[0, 1], [1, 0]], False)  # first pivot zero, matrix nonsingular
@example([[2, 1], [1, 2]], False)
def test_ldl_matches_sylvester_minors(rows, gram):
    a = symmetric(rows, gram)
    n = len(a)
    factors = xl.ldl(block(a, n))
    assert (factors is not None) == sylvester(a)
    assert gram <= sylvester(a)
    assert xl.ldl(over(block(a, n), 6)) == factors
    if factors is not None:
        low, diag = factors
        exact_entries(factors)
        dmat = zeros(n, n)
        for i, x in enumerate(diag):
            dmat[i][i] = x
        assert dense_mat_mul(low, dense_mat_mul(
            dmat, [list(col) for col in zip(*low)], n), n) == a
        assert all(low[i][i] == 1 and not any(low[i][i + 1:])
                   for i in range(n))


# -- fraction-free positive definiteness against Sylvester minors -----------


@st.composite
def symmetric_input(draw):
    """A symmetric n x n matrix (n in [0, 4]) of ints or rationals, often a
    positive definite Gram matrix, as a dense list."""
    n = draw(st.integers(0, 4))
    entry = draw(st.sampled_from([st.integers(-3, 3), small_q, sparse_q]))
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                         min_size=n, max_size=n))
    return symmetric(rows, draw(st.booleans()))


@settings(max_examples=300)
@given(symmetric_input(), st.integers(1, 6))
@example([], 1)  # 0 x 0
@example([[1, 2], [2, 1]], 1)  # leading minors 1, -3
@example([[0, 1], [1, 0]], 1)  # first pivot zero, matrix nonsingular
@example([[1, 0, 0], [0, 2, 0], [0, 0, 0]], 2)  # diagonal, late zero
@example([[3, 0, 0, 0], [0, 1, 0, 0], [0, 0, 5, 0], [0, 0, 0, -1]], 3)
@example([[Q(1, 2), Q(1, 3)], [Q(1, 3), Q(1, 5)]], 1)  # minors 1/2, 1/90
def test_positive_definite_matches_sylvester_minors(a, den):
    b = block(a, len(a))
    before = [dict(row) for row in b.rows], b.den
    want = sylvester(a)
    assert xl.positive_definite(b) is want
    assert xl.positive_definite(over(b, den)) is want
    # the same numerators over den > 1
    assert xl.positive_definite(xl.Block(b.rows, b.cols, b.den * den)) \
        is want
    assert ([dict(row) for row in b.rows], b.den) == before


# -- fraction-free elimination against rational Gauss-Jordan -----------------


def gauss_jordan_rref(a, m):
    """Column-order Gauss-Jordan in Q on a dense n x m matrix: the rational
    reference for rref."""
    r = [[Q(x) for x in row] for row in a]
    n = len(r)
    pivots = []
    lead = 0
    for col in range(m):
        if lead >= n:
            break
        piv = next((i for i in range(lead, n) if r[i][col]), None)
        if piv is None:
            continue
        r[lead], r[piv] = r[piv], r[lead]
        inv = ONE / r[lead][col]
        r[lead] = [inv * x for x in r[lead]]
        for i in range(n):
            if i != lead and r[i][col]:
                f = r[i][col]
                r[i] = [x - f * y for x, y in zip(r[i], r[lead])]
        pivots.append(col)
        lead += 1
    return r, pivots


def gauss_jordan_kernel(a, m):
    r, pivots = gauss_jordan_rref(a, m)
    basis = []
    for f in (j for j in range(m) if j not in pivots):
        v = [ZERO] * m
        v[f] = ONE
        for row_idx, p in enumerate(pivots):
            v[p] = -r[row_idx][f]
        basis.append(v)
    return basis


def gauss_jordan_inverse(a):
    n = len(a)
    r, pivots = gauss_jordan_rref([list(row) + [int(i == j) for j in range(n)]
                                   for i, row in enumerate(a)], 2 * n)
    if pivots[:n] != list(range(n)):
        raise ZeroDivisionError("singular matrix")
    return [row[n:] for row in r]


@st.composite
def elimination_input(draw):
    """(a, m): an n x m int or rational matrix a, often of low rank, with
    zero rows and columns."""
    n, m = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    if draw(st.booleans()):  # rank <= k: an n x k times a k x m matrix
        k = draw(st.integers(0, max(n, m)))
        left, right = draw(sparse_matrix(n, k)), draw(sparse_matrix(k, m))
        a = [[sum((x * y for x, y in zip(row, col)), 0)
              for col in zip(*right)] if k else [0] * m for row in left]
    else:
        entry = draw(st.sampled_from([sparse_q, st.integers(-9, 9),
                                      small_q]))
        a = draw(st.lists(st.lists(entry, min_size=m, max_size=m),
                          min_size=n, max_size=n))
    zero_rows = draw(st.sets(st.integers(0, 5), max_size=2))
    zero_cols = draw(st.sets(st.integers(0, 5), max_size=2))
    return [[0 if i in zero_rows or j in zero_cols else x
             for j, x in enumerate(row)] for i, row in enumerate(a)], m


@settings(max_examples=300)
@given(elimination_input())
@example(([], 0))  # 0 x 0
@example(([], 4))  # 0 x m: the block carries the column count
@example(([[], [], []], 0))  # n x 0
@example(([[0, 0], [0, 0]], 2))
@example(([[Q(1, 3), Q(2, 5)], [Q(2, 3), Q(4, 5)]], 2))  # rank 1, rational
@example(([[0, 4, 6], [0, 2, 3], [1, 0, 0]], 3))  # skipped column, row swap
def test_fraction_free_elimination_matches_gauss_jordan(operands):
    a, m = operands
    b = block(a, m)
    before = [dict(row) for row in b.rows], b.den
    r, pivots = xl.rref(b)
    assert (r, pivots) == gauss_jordan_rref(a, m)
    assert xl.shape(r) == xl.shape(b)
    assert_reduced(r)
    exact_entries(r.dense())
    assert xl.kernel_basis(b) == gauss_jordan_kernel(a, m)
    k = min(len(a), m)
    square = [row[:k] for row in a[:k]]
    try:
        want = gauss_jordan_inverse(square)
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError):
            xl.inverse(block(square, k))
    else:
        got = xl.inverse(block(square, k))
        assert got == want
        assert_reduced(got)
        exact_entries(got.dense())
    assert ([dict(row) for row in b.rows], b.den) == before


@st.composite
def block_forms(draw):
    """An n x m block (n, m in [0, 5]) straight from a form: int numerators
    over a den in [1, 6], often with empty rows, not always in lowest
    terms."""
    n, m = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    nums = st.integers(-9, 9).filter(bool)
    rows = [draw(st.dictionaries(st.sampled_from(range(m)), nums))
            if m and draw(st.booleans()) else {} for _ in range(n)]
    return xl.Block(rows, m, draw(st.integers(1, 6)))


@settings(max_examples=300)
@given(block_forms())
@example(xl.Block([], 4))  # 0 x n
@example(xl.Block([], 3))  # 0 x n: the kernel is every unit vector
@example(xl.Block([{}, {}, {}], 0))  # n x 0
@example(xl.Block([{0: 2, 1: 4}, {}, {0: 3, 1: 6}], 2, 6))  # rank 1
@example(xl.Block([{1: 3}, {0: 3}], 2, 3))  # needs a row swap
def test_rref_reads_a_block_form(b):
    before = [dict(row) for row in b.rows], b.den
    r, pivots = xl.rref(b)
    n, m = xl.shape(b)
    assert (r, pivots) == gauss_jordan_rref(b.dense(), m)
    assert_reduced(r)
    exact_entries(r.dense())
    assert xl.kernel_basis(b) == gauss_jordan_kernel(b.dense(), m)
    if n == m:
        try:
            want = gauss_jordan_inverse(b.dense())
        except ZeroDivisionError:
            with pytest.raises(ZeroDivisionError):
                xl.inverse(b)
        else:
            assert xl.inverse(b) == want
    assert ([dict(row) for row in b.rows], b.den) == before


@pytest.mark.parametrize("fn", [xl.rref, xl.kernel_basis, xl.inverse])
@pytest.mark.parametrize("bad", [0.5, 2.0, np.float64(1.0)])
def test_elimination_rejects_inexact_entries(fn, bad):
    # an inexact entry is refused where entries enter a block, so no
    # elimination ever reads one
    with pytest.raises(TypeError, match="not an exact rational"):
        fn(xl.sparse_block([{0: Q(1, 2), 1: 1}, {0: bad, 1: 3}], 2))


@st.composite
def square_forms(draw):
    """(a, shift, den): an n x n int matrix a (n in [0, 6]) with entries in
    [-5, 5] or, often, a product of n x k and k x n such matrices (rank <=
    k); shift multiples of PRIME to add entrywise, and a denominator.  Each
    factor's determinant is below PRIME, so a's rank mod PRIME is its rank
    over Q."""
    n = draw(st.integers(0, 6))
    small = st.integers(-5, 5)

    def mat(rows, cols):
        return draw(st.lists(st.lists(small, min_size=cols, max_size=cols),
                             min_size=rows, max_size=rows))

    if draw(st.booleans()):
        k = draw(st.integers(0, n))
        left, right = mat(n, k), mat(k, n)
        a = [[sum((x * y for x, y in zip(row, col)), 0)
              for col in zip(*right)] if k else [0] * n for row in left]
    else:
        a = mat(n, n)
    shift = mat(n, n) if draw(st.booleans()) else [[0] * n] * n
    return a, shift, draw(st.integers(1, 6))


def _form(a, den=1):
    return xl.Block([{j: x for j, x in enumerate(row) if x} for row in a],
                    len(a), den)


@settings(max_examples=300)
@given(square_forms())
@example(([], [], 1))  # 0 x 0: nonsingular
@example(([[0, 0], [0, 1]], [[1, 0], [0, 0]], 1))  # diag(p, 1)
@example(([[1, 2], [2, 4]], [[0, 0], [0, 0]], 3))  # rank 1
@example(([[0, 1], [1, 0]], [[0, 0], [0, 0]], 1))  # needs a row swap
def test_nonsingular_mod_p_agrees_with_rref_pivots(operands):
    a, shift, den = operands
    n = len(a)
    full = len(xl.rref(_form(a))[1]) == n
    b = _form([[x + xl.PRIME * s for x, s in zip(row, srow)]
               for row, srow in zip(a, shift)], den)
    before = [dict(row) for row in b.rows], b.den
    # b is a mod PRIME, whose rank there is its rank over Q
    assert xl.nonsingular_mod_p(b) == full
    if full:  # nonsingular mod PRIME proves nonsingular over Q
        assert xl.rref(b)[1] == list(range(n))
    assert ([dict(row) for row in b.rows], b.den) == before


def test_diag_p_1_is_singular_mod_p_and_takes_the_rref_path():
    """diag(p, 1) is nonsingular over Q; mod p it is not, so the check says
    False and the elimination finds both pivots."""
    b = xl.Block([{0: xl.PRIME}, {1: 1}], 2)
    assert not xl.nonsingular_mod_p(b)
    assert xl.rref(b)[1] == [0, 1]


# -- symmetric solve against the Gauss-Jordan inverse ------------------------

nonzero_q = st.one_of(st.integers(-4, 4), small_q).filter(bool)


@st.composite
def symmetric_system(draw):
    """(a, b, k): a symmetric n x n matrix a (n in [0, 5]) and an n x k
    right side b, as dense lists.  a is M^T M + 1 (positive definite),
    L D L^T with L unit lower-triangular and D of mixed signs (indefinite,
    nonzero leading minors), diagonal, or a mirrored matrix of entries in
    [-1, 1] (often a zero leading minor, sometimes singular)."""
    n, k = draw(st.integers(0, 5)), draw(st.integers(0, 4))
    form = draw(st.sampled_from(["gram", "ldl", "diagonal", "mirrored"]))
    if form in ("gram", "mirrored"):
        a = symmetric(draw(st.lists(st.lists(
            st.integers(-3, 3) if form == "gram" else st.integers(-1, 1),
            min_size=n, max_size=n), min_size=n, max_size=n)),
            form == "gram")
    else:
        d = draw(st.lists(nonzero_q, min_size=n, max_size=n))
        low = [[1 if i == j else draw(sparse_q) if j < i and form == "ldl"
                else 0 for j in range(n)] for i in range(n)]
        a = [[sum((low[i][t] * d[t] * low[j][t] for t in range(n)), 0)
              for j in range(n)] for i in range(n)]
    return a, draw(sparse_matrix(n, k)), k


@settings(max_examples=300)
@given(symmetric_system(), st.integers(1, 6))
@example(([], [], 3), 1)  # 0 x 0 with a 0 x 3 right side
@example(([[Q(-3, 2)]], [[1, Q(2, 5)]], 2), 2)  # 1 x 1, negative
@example(([[1, 2], [2, 1]], [[1, 0], [0, 1]], 2), 1)  # pivots 1, -3
@example(([[2, 0, 0], [0, -1, 0], [0, 0, Q(1, 3)]],
          [[1, 0], [0, 0], [0, Q(1, 7)]], 2), 5)  # diagonal
@example(([[0, 1], [1, 0]], [[1, 0], [0, 1]], 2), 1)  # zero first minor
@example(([[1, 1, 0], [1, 1, 1], [0, 1, 0]], [[1], [0], [2]], 1), 3)
def test_solve_symmetric_matches_the_gauss_jordan_inverse(system, den):
    a, rhs, k = system
    n = len(a)
    ab, bb = block(a, n), block(rhs, k)
    before = [([dict(r) for r in x.rows], x.den) for x in (ab, bb)]
    try:
        want = xl.mat_mul(xl.inverse(ab), bb)
    except ZeroDivisionError:  # singular: the solve refuses it too
        with pytest.raises(ZeroDivisionError):
            xl.solve_symmetric(ab, bb)
        return
    got = xl.solve_symmetric(ab, bb)
    assert got == want and xl.shape(got) == (n, k)
    assert_reduced(got)
    exact_entries(got.dense())
    # the same matrices over larger denominators, not in lowest terms
    assert xl.solve_symmetric(over(ab, den), over(bb, 7)) == want
    assert [([dict(r) for r in x.rows], x.den) for x in (ab, bb)] == before


@pytest.mark.parametrize("a", [
    [[1, 1], [1, 1]],  # first leading minor 1, second 0
    [[0, 0], [0, 0]],
    [[2, 0, 0], [0, 0, 0], [0, 0, 1]],  # diagonal, zero pivot
    [[0, 1, 0], [1, 0, 1], [0, 1, 0]],  # zero first minor, singular
])
def test_solve_symmetric_raises_on_a_singular_matrix(a):
    with pytest.raises(ZeroDivisionError):
        xl.solve_symmetric(block(a, len(a)), xl.identity(len(a)))


@pytest.mark.parametrize("a", [
    [[0, 1], [1, 0]],
    [[1, 1, 2], [1, 1, 0], [2, 0, -1]],  # second leading minor zero
    [[0, 0, 1], [0, 1, 0], [1, 0, 0]],  # an anti-diagonal
])
def test_a_zero_leading_minor_of_a_nonsingular_matrix_is_solved(a):
    # the sweep has no pivot there; the pivoting inverse solves instead
    ab = block(a, len(a))
    assert xl.solve_symmetric(ab, xl.identity(len(a))) == xl.inverse(ab)


def test_solve_symmetric_rejects_inexact_entries():
    with pytest.raises(TypeError, match="not an exact rational"):
        xl.solve_symmetric(xl.sparse_block([{0: 2, 1: 0.5}, {0: 0.5}], 2),
                           xl.identity(2))
    # a float numerator in a hand-built block is refused as well
    with pytest.raises(TypeError):
        xl.solve_symmetric(xl.Block([{0: 2.0}], 1), xl.identity(1))
    with pytest.raises(TypeError):
        xl.solve_symmetric(xl.identity(1), xl.Block([{0: 0.5}], 1))
