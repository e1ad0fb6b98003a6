"""Sparse integer Smith normal form: the exact kernel of the package.

No floating point and no rational arithmetic is used here.  A matrix is
held as its rows, each a dict column -> nonzero int entry: the form in
which chain complexes store their differentials.  `snf_divisors` gives
the nonzero Smith divisors, so a rank is the number of divisors;
`_pivot` and `_unit_reduce` eliminate on +-1 entries first.  The integer
kernel lattice, with coordinates, is `posetmod.integer_kernel`; the
rational inverses of the root data live in `roots`.
"""

from __future__ import annotations

from typing import Sequence

Rows = Sequence[dict]


def _pivot(rows: dict, cols: dict, pi, pj) -> None:
    """Eliminate on the unit p = rows[pi][pj]: row pi and column pj go, and
    every other row i becomes row i - rows[i][pj] * p * row pi.

    rows maps a row key to its dict column -> nonzero entry, and cols maps
    a column key to the set of rows with an entry there; both are updated.
    """
    prow = rows.pop(pi)
    p = prow.pop(pj)
    for j in prow:
        cols[j].discard(pi)
    for i in cols.pop(pj) - {pi}:
        row = rows[i]
        f = row.pop(pj) * p
        for j, y in prow.items():
            v = row.get(j, 0) - f * y
            if v:
                row[j] = v
                cols[j].add(i)
            else:
                del row[j]
                cols[j].discard(i)


def _unit_reduce(mat: Rows) -> tuple[int, list[list]]:
    """Pivot on +-1 entries of the rows until none is left
    (Kaczynski-Mrozek-Slusarek).

    Each step takes the unit entry of least fill-in, (row nnz - 1) *
    (column nnz - 1), and replaces the matrix by its Schur complement; a
    unit pivot gives SNF(A) = 1 + SNF(A').  Returns the number of pivots
    and the dense remainder over its nonzero rows and columns.
    """
    rows = {i: dict(r) for i, r in enumerate(mat) if r}
    cols: dict[int, set[int]] = {}
    for i, row in rows.items():
        for j in row:
            cols.setdefault(j, set()).add(i)
    units = 0
    while True:
        best = None
        for i, row in rows.items():
            rc = len(row) - 1
            for j, x in row.items():
                if x == 1 or x == -1:
                    cost = rc * (len(cols[j]) - 1)
                    if best is None or cost < best[0]:
                        best = (cost, i, j)
            if best is not None and not best[0]:
                break
        if best is None:
            break
        _pivot(rows, cols, best[1], best[2])
        units += 1
    keep = sorted(j for j, rs in cols.items() if rs)
    return units, [[row.get(j, 0) for j in keep] for row in rows.values() if row]


def snf_divisors(mat: Rows) -> list[int]:
    """Nonzero diagonal entries d1 | d2 | ... of the Smith normal form.

    Unit pivots are eliminated first; the dense Smith loop below sees only
    the remainder.  Each round moves the entry of least absolute value to
    (top, top) and clears its column by row operations before its row, so
    the column operations change row top alone and leave the rest of the
    block as it is.  A remainder restarts the round with a smaller pivot.
    """
    units, a = _unit_reduce(mat)
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    divisors = [1] * units
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
        # enforce divisibility of the remaining block by the pivot
        bad = next(
            (row for row in a[top + 1:] if any(x % p for x in row[top + 1:])),
            None,
        )
        if bad is not None:
            a[top] = [x + y for x, y in zip(prow, bad)]
            continue
        divisors.append(abs(p))
        top += 1
