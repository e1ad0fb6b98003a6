"""Graded modules over a parabolic face poset with a degree-1 differential.

The face poset of a base parabolic P0 is modeled by the subsets A of a finite
index set I (the restricted simple roots of P0): A is the set of simple roots
adjoined to the Levi of P0, so the empty set is P0 itself and the full set is
the ambient group.  A module assigns to each face a graded free abelian group
and carries one total differential D of degree 1, which may only map a
generator at a face A to generators at faces B >= A; the module condition
is D.D = 0.  D is stored as sparse rows, one per generator, and every total
complex over a set of faces is a filter-and-renumber of those rows.  The
internal part of D at a face may be nonzero; the built families keep it
zero on the open face.  Everything here is integer arithmetic.

ic_module returns only the built module; where its truncation removed a
class (a face's mark) is read off that module (truncation_marks).

Degrees are thread-normalized: the open-face piece of a pushforward sits in
degree 0, and consumers working over a Kostant class w convert to total
degrees by adding l(w).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import inf

from . import snf

Face = frozenset


def face_key(a: Face):
    return (len(a), tuple(sorted(a)))


def subsets(indices) -> list[Face]:
    """All subsets of the index collection, in canonical (size, lex) order."""
    items = sorted(indices)
    out = [
        frozenset(c)
        for k in range(len(items) + 1)
        for c in itertools.combinations(items, k)
    ]
    return out


@dataclass(frozen=True)
class GradedAbelian:
    """Finitely supported map degree -> (free rank, elementary divisors > 1)."""

    data: tuple[tuple[int, int, tuple[int, ...]], ...] = ()

    @staticmethod
    def from_dict(d: dict) -> "GradedAbelian":
        items = []
        for deg in sorted(d):
            free, tors = d[deg]
            tors = tuple(t for t in tors if t > 1)
            if free or tors:
                items.append((deg, free, tors))
        return GradedAbelian(tuple(items))

    def free_rank(self, deg: int) -> int:
        for d, free, _ in self.data:
            if d == deg:
                return free
        return 0

    def torsion(self, deg: int) -> tuple[int, ...]:
        for d, _, tors in self.data:
            if d == deg:
                return tors
        return ()

    @property
    def is_zero(self) -> bool:
        return not self.data

    def degrees(self) -> list[int]:
        return [d for d, _, _ in self.data]

    def shifted(self, k: int) -> "GradedAbelian":
        """Degrees raised by k (e.g. conversion to total degrees)."""
        return GradedAbelian(
            tuple((d + k, free, tors) for d, free, tors in self.data)
        )

    def __repr__(self) -> str:
        if not self.data:
            return "0"
        parts = []
        for d, free, tors in self.data:
            gens = []
            if free:
                gens.append("Z" if free == 1 else f"Z^{free}")
            gens.extend(f"Z/{t}" for t in tors)
            parts.append(f"{'+'.join(gens)}[{-d}]" if d else "+".join(gens))
        return " + ".join(parts)


@dataclass
class ChainComplex:
    """A cochain complex of finitely generated free abelian groups.

    diffs[deg] is d^deg as its rank(deg + 1) rows, each a dict column ->
    nonzero entry; a degree with no stored differential maps by zero.
    """

    ranks: dict[int, int]
    diffs: dict[int, list[dict[int, int]]]

    def rank(self, deg: int) -> int:
        return self.ranks.get(deg, 0)

    def diff(self, deg: int) -> list[dict[int, int]]:
        d = self.diffs.get(deg)
        if d is None:
            return [{} for _ in range(self.rank(deg + 1))]
        return d

    def dd_failure(self) -> tuple[int, int, int] | None:
        """(deg, i, j) of the first nonzero entry of d^{deg+1} . d^deg."""
        for deg in sorted(self.diffs):
            if deg + 1 in self.diffs:
                inner = self.diffs[deg]
                for i, row in enumerate(self.diffs[deg + 1]):
                    acc: dict[int, int] = {}
                    for k, x in row.items():
                        for j, y in inner[k].items():
                            acc[j] = acc.get(j, 0) + x * y
                    bad = [j for j, v in acc.items() if v]
                    if bad:
                        return deg, i, min(bad)
        return None

    def cohomology(self) -> GradedAbelian:
        # a degree with no stored differential maps by zero: no divisors
        divisors = {
            deg: snf.snf_divisors(d)
            for deg, d in self.diffs.items()
            if self.rank(deg)
        }
        out = {}
        for deg in self.ranks:
            n = self.rank(deg)
            if not n:
                continue
            r_out = len(divisors.get(deg, ()))
            below = divisors.get(deg - 1, ())
            r_in = len(below)
            free = n - r_out - r_in
            tors = tuple(t for t in below if t > 1)
            if free or tors:
                out[deg] = (free, tors)
        return GradedAbelian.from_dict(out)


class PosetModule:
    """Graded free-abelian data over the subset poset of index_set."""

    def __init__(self, index_set, pieces, diff, check: bool = True):
        self.index_set = frozenset(index_set)
        # pieces: face -> {degree: rank}; only nonzero ranks stored
        self.pieces = {
            Face(a): {d: r for d, r in degs.items() if r}
            for a, degs in pieces.items()
        }
        self.pieces = {a: degs for a, degs in self.pieces.items() if degs}
        # diff[deg]: label (b, i) of a generator of degree deg + 1 -> its row,
        # label (c, j) of a generator of degree deg -> nonzero entry, with
        # b <= c and the labels in canonical (face_key(c), j) order
        for rows in diff.values():
            for (b, _), row in rows.items():
                if not all(b <= c for c, _ in row):
                    raise ValueError(
                        "map target face is not below its source face"
                    )
        self.diff = diff
        if check:
            self.check_condition()

    # -- accessors --------------------------------------------------------

    def faces(self) -> list[Face]:
        return sorted(self.pieces, key=face_key)

    def rank(self, a: Face, deg: int) -> int:
        return self.pieces.get(a, {}).get(deg, 0)

    def degrees(self, a: Face) -> list[int]:
        return sorted(self.pieces.get(a, {}))

    def check_condition(self) -> None:
        """Assert D.D = 0 for the total differential D over every face.

        A failure names the faces of the first nonzero entry of D.D.
        """
        cx, basis = total_complex(self, self.faces())
        bad = cx.dd_failure()
        if bad:
            deg, i, j = bad
            (a, _), (c, _) = basis[deg + 2][i], basis[deg][j]
            raise AssertionError(
                f"module condition fails between {sorted(a)} "
                f"and {sorted(c)} at degree {deg}"
            )


def pushforward_module(index_set) -> PosetModule:
    """Zero-extension of a rank-1 class on the open face (thread degree 0)."""
    full = frozenset(index_set)
    return PosetModule(index_set, {full: {0: 1}}, {})


def total_complex(
    module: PosetModule, faces
) -> tuple[ChainComplex, dict[int, list[tuple[Face, int]]]]:
    """The total complex over the given faces, with its basis labels.

    The rows of the module's differential at these faces, with the entries
    at faces outside the list dropped.  Returns the complex and, per
    degree, the (face, index) labels of its basis, in canonical face order.
    """
    faces = sorted((Face(b) for b in faces), key=face_key)
    basis = {
        deg: [(b, i) for b in faces for i in range(module.rank(b, deg))]
        for deg in sorted({d for b in faces for d in module.degrees(b)})
    }
    ranks = {deg: len(lbls) for deg, lbls in basis.items()}
    # rows keep their canonical label order, so the entries fall in
    # ascending columns: the order in which snf._unit_reduce breaks ties
    diffs = {}
    for deg in ranks:
        if deg + 1 in ranks:
            pos = {lbl: j for j, lbl in enumerate(basis[deg])}
            rows = module.diff.get(deg, {})
            diffs[deg] = [
                {pos[t]: x for t, x in rows.get(lbl, {}).items() if t in pos}
                for lbl in basis[deg + 1]
            ]
    return ChainComplex(ranks, diffs), basis


def local_complex(
    module: PosetModule, a: Face
) -> tuple[ChainComplex, dict[int, list[tuple[Face, int]]]]:
    """The total complex over the faces above a, with its basis labels."""
    a = Face(a)
    return total_complex(module, [b for b in module.faces() if a <= b])


def integer_kernel(
    mat, ncols: int
) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
    """A basis of the integer kernel lattice of an integer matrix, and its
    coordinate rows.

    Unimodular column operations V bring mat to column echelon form; the
    columns of V past the pivots span the kernel lattice.  Each operation
    on V is paired with the row operation that undoes it on V^-1, so the
    matching rows of V^-1 give the coordinates of a kernel vector x:
    x == sum over k of (coords[k] . x) * basis[k].  mat is given by its
    rows, each a dict column -> nonzero entry, and ncols is its width.
    """
    a = [[r.get(j, 0) for j in range(ncols)] for r in mat]
    v = [[1 if i == j else 0 for j in range(ncols)] for i in range(ncols)]
    vinv = [row[:] for row in v]
    r = 0
    for i in range(len(a)):
        while True:
            nz = [j for j in range(r, ncols) if a[i][j]]
            if not nz:
                break
            piv = min(nz, key=lambda j: abs(a[i][j]))
            for row in itertools.chain(a, v):
                row[r], row[piv] = row[piv], row[r]
            vinv[r], vinv[piv] = vinv[piv], vinv[r]
            done = True
            for j in range(r + 1, ncols):
                if a[i][j]:
                    q = a[i][j] // a[i][r]
                    for row in itertools.chain(a, v):
                        row[j] -= q * row[r]
                    vinv[r] = [x + q * y for x, y in zip(vinv[r], vinv[j])]
                    if a[i][j]:
                        done = False
            if done:
                r += 1
                break
    # the pivot columns are independent, so the kernel columns are the rest
    basis = [tuple(row[j] for row in v) for j in range(r, ncols)]
    return basis, [tuple(row) for row in vinv[r:]]


def _cone(module: PosetModule, a: Face, cutoff):
    """Kill the local cohomology at the face a above the cutoff degree.

    Forms the mapping cone of the adjunction from the module to the pushed
    forward truncated local complex, shifted down by one.  -inf kills the
    local cohomology at a entirely.  Returns the cone's (pieces, diff) as
    built, unchecked and with its contractible pairs, or None when the
    module stays as it is (at +inf, or with no local complex at a).
    """
    if a == module.index_set:
        raise ValueError("the open face is never truncated")
    if cutoff == inf:
        return None
    cx, basis = local_complex(module, a)
    degs = sorted(cx.ranks)
    if not degs:
        return None

    # tau_{<= cutoff} as the subcomplex (full below the cutoff, kernel at
    # it), with the coordinate rows of each basis (identity below the cutoff)
    sub_basis: dict[int, list[tuple[int, ...]]] = {}
    sub_coords: dict[int, list[tuple[int, ...]]] = {}
    if cutoff != -inf:
        for deg in degs:
            if deg < cutoff:
                n = cx.rank(deg)
                sub_basis[deg] = sub_coords[deg] = [
                    tuple(1 if i == j else 0 for i in range(n))
                    for j in range(n)
                ]
            elif deg == cutoff:
                sub_basis[deg], sub_coords[deg] = integer_kernel(
                    cx.diff(deg), cx.rank(deg)
                )

    # the cone T of the inclusion, T^d = sub^{d+1} (+) L^d, joins the piece
    # at a in degree d + 1 after its old generators; every old row stays
    pieces = dict(module.pieces)
    new_a = dict(pieces.get(a, {}))
    first: dict[int, int] = {}  # degree -> index at a of its first T generator
    for deg in range(degs[0], degs[-1] + 2):
        n = len(sub_basis.get(deg, ())) + cx.rank(deg - 1)
        if n:
            first[deg] = new_a.get(deg, 0)
            new_a[deg] = first[deg] + n
    pieces[a] = new_a
    diff = {deg: dict(rows) for deg, rows in module.diff.items()}
    # each T generator's row is its row of -d_T = [[d_sub, 0], [-incl, -d_L]]
    # in the T generators one degree down, and a copy of a generator of L
    # also maps by -1 to that generator
    for deg, f in first.items():
        rows = diff.setdefault(deg - 1, {})
        source, target = sub_basis.get(deg - 1, ()), sub_basis.get(deg, ())
        f0 = first.get(deg - 1)
        dL = cx.diff(deg - 1)
        images = []  # d_sub of each source vector, in the target's coordinates
        for vec in source:
            img = [sum(x * vec[k] for k, x in row.items()) for row in dL]
            coords = [
                sum(x * y for x, y in zip(row, img))
                for row in sub_coords.get(deg, ())
            ]
            rebuilt = [
                sum(c * v[i] for c, v in zip(coords, target))
                for i in range(len(img))
            ]
            if rebuilt != img:
                raise AssertionError("vector outside subcomplex basis span")
            images.append(coords)
        for s in range(len(target)):
            row = {(a, f0 + j): c[s] for j, c in enumerate(images) if c[s]}
            if row:
                rows[a, f + s] = row
        below = cx.diff(deg - 2)
        for p, lbl in enumerate(basis.get(deg - 1, ())):
            cone = {(a, f0 + j): -v[p] for j, v in enumerate(source) if v[p]}
            for q, x in below[p].items():
                cone[a, f0 + len(source) + q] = -x
            # an old generator at a sorts before the T generators there
            rows[a, f + len(target) + p] = (
                {lbl: -1, **cone} if lbl[0] == a else {**cone, lbl: -1}
            )
    return pieces, diff


def _cancel_units(index_set, pieces, diff) -> PosetModule:
    """The module left after cancelling every +-1 entry of D inside a face.

    Pivoting on a unit D[y0][x0] with y0 and x0 at one face A (Gaussian
    elimination, or algebraic Morse theory: Skoldberg, Trans. AMS 2006)
    removes x0 and y0 and changes D[y][x] only where face(y) <= A <=
    face(x).  So D' is again a module differential, and the total complex
    over any convex set of faces keeps its cohomology, torsion included.
    Rows are visited in canonical order until no unit is left inside a
    face; the survivors of each (face, degree) keep their order.
    """
    # a generator is (degree, (face, index)); rows[y][x] = D[y][x]
    rows = {
        (deg + 1, y): {(deg, x): v for x, v in r.items()}
        for deg, rs in diff.items()
        for y, r in rs.items()
    }
    cols: dict = {}
    for y, r in rows.items():
        for x in r:
            cols.setdefault(x, set()).add(y)

    def order(g):
        return g[0], face_key(g[1][0]), g[1][1]

    gone = set()
    todo = sorted(rows, key=order)
    pivoted = True
    while pivoted:
        pivoted = False
        for y0 in todo:
            x0 = min(
                (x for x, v in rows.get(y0, {}).items()
                 if x[1][0] == y0[1][0] and v * v == 1),
                key=order, default=None,
            )
            if x0 is not None:
                snf._pivot(rows, cols, y0, x0)
                # x0's own row and y0's own column go too
                for x in rows.pop(x0, {}):
                    cols[x].discard(x0)
                for y in cols.pop(y0, ()):
                    del rows[y][y0]
                gone.update((x0, y0))
                pivoted = True
    new, kept_pieces = {}, {}  # (degree, old label) -> new label
    for b, degs in pieces.items():
        for deg, n in degs.items():
            kept = [i for i in range(n) if (deg, (b, i)) not in gone]
            new.update({(deg, (b, i)): (b, j) for j, i in enumerate(kept)})
            kept_pieces.setdefault(b, {})[deg] = len(kept)
    kept_diff: dict = {}
    for y, r in rows.items():
        if r:
            kept_diff.setdefault(y[0] - 1, {})[new[y]] = {
                new[x]: r[x] for x in sorted(r, key=order)
            }
    return PosetModule(index_set, kept_pieces, kept_diff)


def ic_module(index_set, cutoffs: dict, order=None) -> PosetModule:
    """Successive truncation of the pushforward over all proper faces.

    cutoffs maps every proper face to an extended integer; the faces are
    processed in decreasing stratum dimension (decreasing subset size), with
    ties broken canonically unless an explicit linear extension is given.
    """
    module = pushforward_module(index_set)
    faces = [a for a in subsets(index_set) if a != frozenset(index_set)]
    if order is None:
        order = sorted(faces, key=face_key, reverse=True)
    else:
        order = [Face(a) for a in order]
        if sorted(order, key=face_key) != sorted(faces, key=face_key):
            raise ValueError("order must enumerate every proper face once")
        sizes = [len(a) for a in order]
        if sizes != sorted(sizes, reverse=True):
            raise ValueError("order must be nonincreasing in stratum dimension")
    for a in order:
        cone = _cone(module, a, cutoffs[a])
        if cone is not None:
            module = _cancel_units(module.index_set, *cone)
    return module


def link_cohomology(module: PosetModule, a: Face) -> GradedAbelian:
    """Cohomology of the total complex over the faces strictly above a."""
    a = Face(a)
    cx, _ = total_complex(module, [b for b in module.faces() if a < b])
    return cx.cohomology()


def truncation_marks(module: PosetModule, cutoffs: dict) -> dict[Face, bool]:
    """Whether truncating at each face removed a class, read off the result.

    A face a is marked when its link (the faces strictly above a) has a
    class above the cutoff at a.  The module must be the one ic_module built
    from these cutoffs, in any order it accepts.  Then this is the local
    cohomology at a just before its truncation: until then the module has
    no generator at a, and no step from a on changes the link, since a step
    at a face c adds, cancels and pivots generators at c alone, changing D
    only between faces below and above c (see _cancel_units), and c is not
    strictly above a.
    """
    return {
        a: any(d > cut for d in link_cohomology(module, a).degrees())
        for a, cut in cutoffs.items()
    }


def all_or_nothing(n: int, marked) -> GradedAbelian:
    """Base-face local cohomology of the profile on n indices that cuts the
    marked faces entirely (cutoff -inf) and keeps the rest (+inf)."""
    idx = tuple(range(n))
    marked = {frozenset(a) for a in marked}
    cutoffs = {a: -inf if a in marked else inf for a in subsets(idx)[:-1]}
    cx, _ = local_complex(ic_module(idx, cutoffs), frozenset())
    return cx.cohomology()


def supported_local_cohomology(module: PosetModule, a: Face) -> GradedAbelian:
    """Cohomology of the total complex over the faces below a."""
    a = Face(a)
    cx, _ = total_complex(module, [b for b in module.faces() if b <= a])
    return cx.cohomology()


def attaching_map_rank(
    module: PosetModule, a1: Face, a2: Face
) -> dict[int, int]:
    """Per-degree rank of the map between supported local cohomologies.

    The sub-poset below a1 includes into the one below a2; the induced map
    sends an integer cocycle basis below a1 across.  Its rank over the
    rationals is that of the boundaries below a2 with the images appended
    as extra columns, less that of the boundaries alone.
    """
    a1, a2 = Face(a1), Face(a2)
    if not a1 <= a2:
        raise ValueError("first face is not below the second")
    c1, b1 = total_complex(module, [b for b in module.faces() if b <= a1])
    c2, b2 = total_complex(module, [b for b in module.faces() if b <= a2])
    out = {}
    for deg in sorted(c1.ranks):
        pos2 = {lbl: i for i, lbl in enumerate(b2[deg])}
        cocycles, _ = integer_kernel(c1.diff(deg), c1.rank(deg))
        boundaries = c2.diff(deg - 1)
        rows = [dict(r) for r in boundaries]
        n = c2.rank(deg - 1)
        for k, vec in enumerate(cocycles):
            for lbl, x in zip(b1[deg], vec):
                if x:
                    rows[pos2[lbl]][n + k] = x
        rank = len(snf.snf_divisors(rows)) - len(snf.snf_divisors(boundaries))
        if rank:
            out[deg] = rank
    return out


def open_complement_cohomology(module: PosetModule, a: Face) -> GradedAbelian:
    """Cohomology of the link minus the closed subsimplex spanned by a.

    Faces not contained in a form an open, upward-closed union of strata;
    the base face (cone point) is excluded since the link does not contain
    it.
    """
    a = Face(a)
    faces = [b for b in module.faces() if b and not b <= a]
    cx, _ = total_complex(module, faces)
    return cx.cohomology()


def mv_E1_page(module: PosetModule, a: Face) -> dict[Face, GradedAbelian]:
    """Open-star covering page for the complement of the subsimplex a.

    Indexed by the nonempty faces r of the complementary subsimplex; the
    entry at r is the local cohomology of the cone at r (its open star
    neighborhood).  The entry contributes to abutment degree
    deg + len(r) - 1.
    """
    a = Face(a)
    if not a or a == module.index_set:
        raise ValueError("need a proper nonempty subsimplex")
    comp = module.index_set - a
    page = {}
    for r in subsets(sorted(comp)):
        if not r:
            continue
        cx, _ = local_complex(module, r)
        page[r] = cx.cohomology()
    return page


def fary_E1_page(module: PosetModule, a: Face) -> dict[Face, GradedAbelian]:
    """Fibration page for the complement of the subsimplex a.

    Indexed by the nonempty faces r of the complementary subsimplex; the
    entry at r is the cohomology supported on the join face (a union r)
    within the cone at r.  The entry contributes to abutment degree deg.
    """
    a = Face(a)
    if not a or a == module.index_set:
        raise ValueError("need a proper nonempty subsimplex")
    comp = module.index_set - a
    page = {}
    for r in subsets(sorted(comp)):
        if not r:
            continue
        join = a | r
        faces = [b for b in module.faces() if r <= b <= join]
        cx, _ = total_complex(module, faces)
        page[r] = cx.cohomology()
    return page


def mv_abutment_ranks(page: dict[Face, GradedAbelian]) -> dict[int, int]:
    """Total entry count per abutment degree of an open-star covering page."""
    out: dict[int, int] = {}
    for r, g in page.items():
        for d in g.degrees():
            k = d + len(r) - 1
            out[k] = out.get(k, 0) + g.free_rank(d) + len(g.torsion(d))
    return {k: v for k, v in out.items() if v}


def fary_abutment_ranks(page: dict[Face, GradedAbelian]) -> dict[int, int]:
    """Total entry count per abutment degree of a fibration page."""
    out: dict[int, int] = {}
    for _, g in page.items():
        for d in g.degrees():
            out[d] = out.get(d, 0) + g.free_rank(d) + len(g.torsion(d))
    return {k: v for k, v in out.items() if v}
