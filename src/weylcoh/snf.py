"""Exact integer and rational linear algebra.

Matrices are tuples of row tuples over int or Fraction.  Everything here is
exact: no floating point is used anywhere in the package.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

Matrix = Sequence[Sequence[int]]


def shape(mat: Matrix) -> tuple[int, int]:
    rows = len(mat)
    cols = len(mat[0]) if rows else 0
    return rows, cols


def zero_matrix(rows: int, cols: int) -> tuple[tuple[int, ...], ...]:
    return tuple((0,) * cols for _ in range(rows))


def mat_mul(a: Matrix, b: Matrix) -> tuple[tuple[int, ...], ...]:
    ra, ca = shape(a)
    rb, cb = shape(b)
    if ca != rb:
        raise ValueError(f"shape mismatch {ra}x{ca} * {rb}x{cb}")
    bt = list(zip(*b)) if rb else [[]] * cb
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a
    )


def mat_add(a: Matrix, b: Matrix) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def is_zero_matrix(a: Matrix) -> bool:
    return all(x == 0 for row in a for x in row)


def echelon(mat: Iterable[Sequence]) -> tuple[list[list[int]], list[int], int]:
    """Fraction-free Gauss-Jordan elimination (Bareiss, Math. Comp. 1968).

    Entries may be int or Fraction; each row is first scaled to integers by
    the lcm of its denominators.  Returns (rows, pivots, d) with
    rows == d * RREF(mat) as integer rows, pivots the pivot columns in
    order, and d the last pivot (1 when there is none).  Every division in
    the elimination is exact.
    """
    rows = []
    for row in mat:
        # a set, not one argument per entry: argument tuples as long as a
        # row fill the interpreter's tuple free lists and raise peak memory
        den = math.lcm(*{x.denominator for x in row})
        rows.append([x.numerator * (den // x.denominator) for x in row])
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots: list[int] = []
    d = 1
    for col in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        piv = next((i for i in range(r, nrows) if rows[i][col]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        prow = rows[r]
        p = prow[col]
        for i in range(nrows):
            f = rows[i][col]
            if i != r and (f or p != d):
                rows[i] = [(p * x - f * y) // d for x, y in zip(rows[i], prow)]
        pivots.append(col)
        d = p
    return rows, pivots, d


def qq_rank(mat: Matrix) -> int:
    """Rank over the rationals by fraction-free elimination."""
    return len(echelon(mat)[1])


def kernel_basis(
    mat: Matrix, ncols: int | None = None
) -> list[tuple[Fraction, ...]]:
    """Basis of the rational null space {v : mat @ v = 0} (column vectors).

    One vector per free column: 1 there, 0 at the other free columns.
    ncols gives the column count of a matrix with no rows.
    """
    if ncols is None:
        ncols = shape(mat)[1]
    rows, pivots, d = echelon(mat)
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for row, pc in zip(rows, pivots):
            v[pc] = Fraction(-row[fc], d)
        basis.append(tuple(v))
    return basis


def solve(a: Matrix, b: Matrix) -> tuple[tuple[Fraction, ...], ...] | None:
    """The X with a @ X == b, or None when b lies outside the column span of a.

    X is unique when a has full column rank; otherwise the unknowns at free
    columns are set to 0.
    """
    n = shape(a)[1]
    rows, pivots, d = echelon([*ra, *rb] for ra, rb in zip(a, b))
    if pivots and pivots[-1] >= n:
        return None
    x = [(Fraction(0),) * (len(rows[0]) - n)] * n if rows else []
    for row, pc in zip(rows, pivots):
        x[pc] = tuple(Fraction(v, d) for v in row[n:])
    return tuple(x)


def column_span_rank(vectors: Sequence[Sequence[Fraction]]) -> int:
    """Rank of the span of the given vectors."""
    if not vectors:
        return 0
    return qq_rank(list(zip(*vectors)))


def snf_divisors(mat: Matrix) -> list[int]:
    """Nonzero diagonal entries d1 | d2 | ... of the Smith normal form."""
    a = [list(row) for row in mat]
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    divisors: list[int] = []
    top = 0
    while True:
        piv = None
        best = None
        for i in range(top, nrows):
            for j in range(top, ncols):
                v = abs(a[i][j])
                if v and (best is None or v < best):
                    best = v
                    piv = (i, j)
        if piv is None:
            break
        pi, pj = piv
        a[top], a[pi] = a[pi], a[top]
        for row in a:
            row[top], row[pj] = row[pj], row[top]
        # clear row and column with Euclidean steps
        while True:
            done = True
            for i in range(top + 1, nrows):
                if a[i][top]:
                    q = a[i][top] // a[top][top]
                    a[i] = [x - q * y for x, y in zip(a[i], a[top])]
                    if a[i][top]:
                        a[top], a[i] = a[i], a[top]
                        done = False
            for j in range(top + 1, ncols):
                if a[top][j]:
                    q = a[top][j] // a[top][top]
                    for row in a:
                        row[j] -= q * row[top]
                    if a[top][j]:
                        for row in a:
                            row[top], row[j] = row[j], row[top]
                        done = False
            if done:
                break
        # enforce divisibility of the remaining block by the pivot
        d = abs(a[top][top])
        bad = next(
            (
                (i, j)
                for i in range(top + 1, nrows)
                for j in range(top + 1, ncols)
                if a[i][j] % d
            ),
            None,
        )
        if bad is not None:
            bi, _ = bad
            a[top] = [x + y for x, y in zip(a[top], a[bi])]
            continue
        divisors.append(d)
        top += 1
    return divisors
