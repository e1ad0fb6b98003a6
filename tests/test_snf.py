"""Exact integer linear algebra: ranks, kernels, and elementary divisors.

The oracles are brute force: determinants by cofactor expansion and the
k x k minors of every row and column choice.  Matrices too large for the
minors are checked against a dense Smith loop with no unit-pivot phase,
and their rank against a row reduction over Q.
"""

import itertools
import math
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from weylcoh import snf
from weylcoh.posetmod import integer_kernel


def _rows(mat):
    """A dense matrix as the rows of dicts column -> nonzero entry."""
    return [{j: x for j, x in enumerate(row) if x} for row in mat]


def test_divisors_of_diagonal_matrix():
    # SNF of diag(2, 3) is diag(1, 6)
    assert snf.snf_divisors(_rows(((2, 0), (0, 3)))) == [1, 6]
    assert snf.snf_divisors(_rows(((1, 0), (0, 1)))) == [1, 1]


def test_divisors_of_singular_matrix():
    assert snf.snf_divisors(_rows(((2, 4), (4, 8)))) == [2]
    assert snf.snf_divisors(_rows(((0, 0), (0, 0)))) == []


def test_qq_rank_basics():
    """The rational rank of an integer matrix is its number of divisors."""
    assert snf.snf_divisors(_rows(((1, 2), (2, 4)))) == [1]
    assert snf.snf_divisors(_rows(((1, 0, 0), (0, 0, 1)))) == [1, 1]
    assert snf.snf_divisors(_rows(())) == []


def _matrices(entries, square=False, max_dim=5):
    """Matrices up to max_dim square with the given entries, as row tuples."""
    dims = st.tuples(st.integers(1, max_dim), st.integers(1, max_dim))
    if square:
        dims = st.integers(1, max_dim).map(lambda n: (n, n))
    return dims.flatmap(
        lambda rc: st.lists(
            st.lists(entries, min_size=rc[1], max_size=rc[1]),
            min_size=rc[0],
            max_size=rc[0],
        )
    ).map(lambda rows: tuple(tuple(r) for r in rows))


small_ints = st.integers(-5, 5)
int_matrices = _matrices(small_ints)
square_int_matrices = _matrices(small_ints, square=True)


def _det(m):
    if not m:
        return 1
    return sum(
        (-1) ** j * x * _det([row[:j] + row[j + 1:] for row in m[1:]])
        for j, x in enumerate(m[0])
        if x
    )


def _minors(mat, k):
    cols = range(len(mat[0]))
    return [
        _det([[mat[i][j] for j in cs] for i in rs])
        for rs in itertools.combinations(range(len(mat)), k)
        for cs in itertools.combinations(cols, k)
    ]


def _rank(mat):
    """Size of the largest nonzero minor."""
    k = min(len(mat), len(mat[0]))
    while k and not any(_minors(mat, k)):
        k -= 1
    return k


@given(int_matrices)
@settings(max_examples=150, deadline=None)
def test_divisor_chain_and_rank(mat):
    divs = snf.snf_divisors(_rows(mat))
    assert len(divs) == _rank(mat)
    assert all(d > 0 for d in divs)
    for a, b in zip(divs, divs[1:]):
        assert b % a == 0


def _determinantal_divisors(mat):
    # d_k = g_k / g_(k-1), g_k the gcd of the k x k minors (g_0 = 1)
    g = [1]
    for k in range(1, _rank(mat) + 1):
        g.append(math.gcd(*_minors(mat, k)))
    return [b // a for a, b in zip(g, g[1:])]


@given(int_matrices)
@settings(max_examples=150, deadline=None)
def test_divisors_are_determinantal_divisors(mat):
    assert snf.snf_divisors(_rows(mat)) == _determinantal_divisors(mat)


@given(square_int_matrices)
@settings(max_examples=150, deadline=None)
def test_divisor_product_is_determinant(mat):
    det = _det(mat)
    divs = snf.snf_divisors(_rows(mat))
    if det:
        assert math.prod(divs) == abs(det)
    else:
        assert len(divs) < len(mat)


def _dense_divisors(mat):
    """The Smith loop of snf_divisors run on the whole matrix."""
    a = [list(row) for row in mat]
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    divisors = []
    top = 0
    while True:
        nonzero = [
            (abs(a[i][j]), i, j)
            for i in range(top, nrows)
            for j in range(top, ncols)
            if a[i][j]
        ]
        if not nonzero:
            return divisors
        _, pi, pj = min(nonzero)
        a[top], a[pi] = a[pi], a[top]
        for row in a:
            row[top], row[pj] = row[pj], row[top]
        prow = a[top]
        p = prow[top]
        for i in range(top + 1, nrows):
            q = a[i][top] // p
            if q:
                a[i] = [x - q * y for x, y in zip(a[i], prow)]
        if any(a[i][top] for i in range(top + 1, nrows)):
            continue
        prow[top + 1:] = [x % p for x in prow[top + 1:]]
        if any(prow[top + 1:]):
            continue
        bad = next(
            (row for row in a[top + 1:] if any(x % p for x in row[top + 1:])),
            None,
        )
        if bad is not None:
            a[top] = [x + y for x, y in zip(prow, bad)]
            continue
        divisors.append(abs(p))
        top += 1


def qq_echelon(mat):
    """A row echelon form over Q, by row reduction in Fractions, and the rank."""
    rows = [[Fraction(x) for x in row] for row in mat]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][col] / rows[rank][col]
            rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rows, rank


# mostly zero, as the boundary matrices of the poset complexes are
sparse_entries = st.sampled_from((0, 0, 0, 0, 1, -1, 1, -1, 2, -2))


@given(_matrices(sparse_entries, max_dim=12))
@settings(max_examples=150, deadline=None)
def test_divisors_match_dense_smith_on_sparse_matrices(mat):
    divs = _dense_divisors(mat)
    assert snf.snf_divisors(_rows(mat)) == divs
    assert len(divs) == qq_echelon(mat)[1]


@given(_matrices(st.sampled_from((0, 0, 2, -2, 3, 4, -6))))
@settings(max_examples=100, deadline=None)
def test_divisors_without_unit_entries(mat):
    # the unit phase finds no pivot and hands the whole matrix on
    assert snf.snf_divisors(_rows(mat)) == _determinantal_divisors(mat)


@given(
    _matrices(st.sampled_from((0, 1, -1))),
    _matrices(st.sampled_from((0, 2, -2, 4))),
    st.randoms(use_true_random=False),
)
@settings(max_examples=100, deadline=None)
def test_divisors_of_unit_block_glued_to_even_block(units, even, rnd):
    # [[U, C], [0, E]] with E even, rows and columns shuffled: pivoting on
    # the entries of U leaves even torsion in the remainder
    width = len(units[0]) + len(even[0])
    mat = [u + tuple(rnd.choice((0, 1, -1)) for _ in even[0]) for u in units]
    mat += [(0,) * len(units[0]) + e for e in even]
    rnd.shuffle(mat)
    perm = list(range(width))
    rnd.shuffle(perm)
    mat = tuple(tuple(row[j] for j in perm) for row in mat)
    assert snf.snf_divisors(_rows(mat)) == _dense_divisors(mat)


@given(int_matrices)
@settings(max_examples=150, deadline=None)
def test_integer_kernel_annihilates(mat):
    ncols = len(mat[0])
    basis, _ = integer_kernel(_rows(mat), ncols)
    assert len(basis) == ncols - _rank(mat)
    for v in basis:
        for row in mat:
            assert sum(x * y for x, y in zip(row, v)) == 0
    if basis:
        assert _rank(basis) == len(basis)


def test_integer_kernel_of_matrix_without_rows():
    # a 0 x 3 matrix has no rows to carry its width
    basis, coords = integer_kernel([], 3)
    assert basis == coords == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]


@given(int_matrices, st.data())
@settings(max_examples=150, deadline=None)
def test_integer_kernel_is_saturated(mat, data):
    # a basis of the whole kernel lattice: every SNF divisor of it is 1
    basis, coords = integer_kernel(_rows(mat), len(mat[0]))
    assert len(basis) == len(mat[0]) - _rank(mat)
    for v in basis:
        for row in mat:
            assert sum(x * y for x, y in zip(row, v)) == 0
    if basis:
        assert snf.snf_divisors(_rows(basis)) == [1] * len(basis)
    # the coordinate rows are dual to the basis ...
    for k, row in enumerate(coords):
        for l, v in enumerate(basis):
            assert sum(x * y for x, y in zip(row, v)) == (k == l)
    # ... and rebuild any lattice vector from its coordinates
    mults = data.draw(
        st.lists(small_ints, min_size=len(basis), max_size=len(basis))
    )
    x = [sum(m * v[i] for m, v in zip(mults, basis)) for i in range(len(mat[0]))]
    c = [sum(p * q for p, q in zip(row, x)) for row in coords]
    assert c == mults
    assert [sum(m * v[i] for m, v in zip(c, basis)) for i in range(len(x))] == x
