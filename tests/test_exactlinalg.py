import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from voacert import exactlinalg as xl
from voacert.scalars import ONE, Q, ZERO


def qmat(rows):
    return [[Q(x) for x in row] for row in rows]


def test_shapes_and_identity():
    a = xl.zeros(2, 3)
    assert xl.shape(a) == (2, 3)
    i3 = xl.identity(3)
    assert xl.mat_mul(i3, i3) == i3
    assert xl.transpose(qmat([[1, 2], [3, 4]])) == qmat([[1, 3], [2, 4]])


def test_compose_keeps_explicit_shape():
    # a path through an empty graded piece must still have the right shape
    empty = xl.zeros(0, 2)
    tall = xl.zeros(3, 0)
    out = xl.compose(tall, empty, 3, 2)
    assert xl.shape(out) == (3, 2)
    a = qmat([[1, 2], [3, 4]])
    b = qmat([[1, 0], [0, 1]])
    assert xl.compose(a, b, 2, 2) == a


def test_rank_and_kernel():
    a = qmat([[1, 1], [1, 1]])
    assert xl.rank(a) == 1
    ker = xl.kernel_basis(a)
    assert len(ker) == 1
    v = ker[0]
    assert xl.mat_vec(a, v) == [ZERO, ZERO]


def test_solve_and_inverse_known():
    a = qmat([[2, 1], [1, 1]])
    x = xl.solve(a, [Q(3), Q(2)])
    assert x == [Q(1), Q(1)]
    inv = xl.inverse(a)
    assert xl.mat_mul(a, inv) == xl.identity(2)
    with pytest.raises(ZeroDivisionError):
        xl.solve(qmat([[1, 1], [1, 1]]), [Q(1), Q(1)])


small_q = st.fractions(min_value=-5, max_value=5, max_denominator=6) \
    .map(lambda f: Q(f.numerator, f.denominator))


@given(st.lists(st.lists(small_q, min_size=3, max_size=3),
                min_size=3, max_size=3))
def test_inverse_round_trip_random(rows):
    try:
        inv = xl.inverse(rows)
    except ZeroDivisionError:
        assume(False)
    assert xl.mat_mul(rows, inv) == xl.identity(3)
    assert xl.mat_mul(inv, rows) == xl.identity(3)


def test_charpoly_of_diagonal():
    a = qmat([[2, 0], [0, 3]])
    coeffs = xl.charpoly(a)
    # (x-2)(x-3) = x^2 - 5x + 6
    assert coeffs == [Q(6), Q(-5), Q(1)]
    assert xl.poly_eval(coeffs, Q(2)) == ZERO
    assert xl.poly_eval(coeffs, Q(3)) == ZERO
    assert xl.trace(a) == Q(5)


def test_sturm_root_counting():
    # (x-1)(x-2)(x-5) = x^3 - 8x^2 + 17x - 10
    coeffs = [Q(-10), Q(17), Q(-8), Q(1)]
    assert xl.count_roots(coeffs, Q(0), Q(3)) == 2
    assert xl.count_roots(coeffs, Q(3), Q(10)) == 1
    lo, hi = xl.largest_root_interval(coeffs, tol=Q(1, 10 ** 6))
    assert lo <= Q(5) <= hi
    # the enclosure width is relative to the root magnitude
    assert hi - lo <= Q(1, 10 ** 6) * Q(6)


@given(st.sets(st.integers(-4, 4), min_size=2, max_size=4))
def test_largest_root_of_factored_polynomial(roots):
    coeffs = [ONE]
    for r in roots:
        # multiply by (x - r)
        nxt = [ZERO] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            nxt[i + 1] += c
            nxt[i] -= Q(r) * c
        coeffs = nxt
    lo, hi = xl.largest_root_interval(coeffs, tol=Q(1, 10 ** 6))
    assert lo <= Q(max(roots)) <= hi


# -- zero-skipping kernels against dense references --------------------------


def dense_mat_mul(a, b):
    """Naive triple loop over every entry, zeros included."""
    k = len(b)
    m = len(b[0]) if b else 0
    return [[sum((row[t] * b[t][j] for t in range(k)), ZERO)
             for j in range(m)] for row in a]


def dense_add_scaled(acc, b, s):
    return [[x + s * y for x, y in zip(ra, rb)] for ra, rb in zip(acc, b)]


# mostly zeros, like mode blocks; some rows entirely zero
sparse_q = st.one_of(st.just(ZERO), st.just(ZERO), st.just(ZERO), small_q)


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
    if n == 0:
        k = 0  # a 0-row matrix cannot carry its column count
    return draw(sparse_matrix(n, k)), draw(sparse_matrix(k, m))


@given(add_operands(), st.one_of(st.just(ZERO), st.just(ONE), small_q))
@example(([[], []], [[], []]), Q(3))  # 2x0
@example(([], []), Q(3))  # 0x0
def test_add_scaled_matches_dense_reference(operands, s):
    acc, b = operands
    want = dense_add_scaled(acc, b, s)
    b_before = [list(row) for row in b]
    xl.add_scaled(acc, b, s)
    assert acc == want
    assert b == b_before


@given(mul_operands())
@example(([[], []], []))  # 2x0 times 0x0
@example(([[Q(1)], [Q(2)]], [[]]))  # 2x1 times 1x0
@example(([], []))  # 0x0 times 0x0
def test_mat_mul_matches_dense_reference(operands):
    a, b = operands
    a_before, b_before = [list(r) for r in a], [list(r) for r in b]
    out = xl.mat_mul(a, b)
    assert out == dense_mat_mul(a, b)
    assert xl.shape(out) == (len(a), len(b[0]) if b else 0)
    assert a == a_before and b == b_before

