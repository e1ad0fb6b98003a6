"""Graded modules over a parabolic face poset with degree-1 structure maps.

The face poset of a base parabolic P0 is modeled by the subsets A of a finite
index set I (the restricted simple roots of P0): A is the set of simple roots
adjoined to the Levi of P0, so the empty set is P0 itself and the full set is
the ambient group.  A module assigns to each face a graded free abelian group
and to each pair A <= B a degree-1 integer matrix g_AB; these must satisfy

    sum over A <= B <= C of g_AB . g_BC = 0

for every pair A <= C.  The internal differential g_AA may be nonzero; the
built families keep it zero on the open face.

Degrees are thread-normalized: the open-face piece of a pushforward sits in
degree 0, and consumers working over a Kostant class w convert to total
degrees by adding l(w).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import inf

from . import snf
from .snf import mat_mul, zero_matrix

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
    """A cochain complex of finitely generated free abelian groups."""

    ranks: dict[int, int]
    diffs: dict[int, tuple[tuple[int, ...], ...]]

    def rank(self, deg: int) -> int:
        return self.ranks.get(deg, 0)

    def diff(self, deg: int):
        d = self.diffs.get(deg)
        if d is None:
            return zero_matrix(self.rank(deg + 1), self.rank(deg))
        return d

    def check(self) -> None:
        for deg in self.ranks:
            if self.rank(deg) and self.rank(deg + 1) and self.rank(deg + 2):
                prod = mat_mul(self.diff(deg + 1), self.diff(deg))
                if not snf.is_zero_matrix(prod):
                    raise AssertionError(f"d.d != 0 at degree {deg}")

    def cohomology(self) -> GradedAbelian:
        divisors = {
            deg: snf.snf_divisors(self.diff(deg))
            for deg in self.ranks
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

    def __init__(self, index_set, pieces, maps, check: bool = True):
        self.index_set = frozenset(index_set)
        # pieces: face -> {degree: rank}; only nonzero ranks stored
        self.pieces = {
            Face(a): {d: r for d, r in degs.items() if r}
            for a, degs in pieces.items()
        }
        self.pieces = {a: degs for a, degs in self.pieces.items() if degs}
        # maps: (a, b) -> {degree: matrix}, a <= b, g: piece(b)^d -> piece(a)^{d+1}
        self.maps = {}
        for (a, b), mats in maps.items():
            a, b = Face(a), Face(b)
            if not a <= b:
                raise ValueError("map target face is not below its source face")
            kept = {
                d: tuple(tuple(row) for row in m)
                for d, m in mats.items()
                if not snf.is_zero_matrix(m)
            }
            if kept:
                self.maps[(a, b)] = kept
        if check:
            self.check_condition()

    # -- accessors --------------------------------------------------------

    def faces(self) -> list[Face]:
        return sorted(self.pieces, key=face_key)

    def rank(self, a: Face, deg: int) -> int:
        return self.pieces.get(a, {}).get(deg, 0)

    def degrees(self, a: Face) -> list[int]:
        return sorted(self.pieces.get(a, {}))

    def map_matrix(self, a: Face, b: Face, deg: int):
        m = self.maps.get((a, b), {}).get(deg)
        if m is None:
            return zero_matrix(self.rank(a, deg + 1), self.rank(b, deg))
        return m

    def check_condition(self) -> None:
        """Assert the triangle identity sum g_AB . g_BC = 0 for all A <= C."""
        faces = self.faces()
        all_degs = sorted({d for degs in self.pieces.values() for d in degs})
        if not all_degs:
            return
        lo, hi = all_degs[0], all_degs[-1]
        for a in faces:
            for c in faces:
                if not a <= c:
                    continue
                mids = [b for b in faces if a <= b <= c]
                for deg in range(lo, hi + 1):
                    rows = self.rank(a, deg + 2)
                    cols = self.rank(c, deg)
                    if not rows or not cols:
                        continue
                    total = zero_matrix(rows, cols)
                    for b in mids:
                        if not self.rank(b, deg + 1):
                            continue
                        total = snf.mat_add(
                            total,
                            mat_mul(
                                self.map_matrix(a, b, deg + 1),
                                self.map_matrix(b, c, deg),
                            ),
                        )
                    if not snf.is_zero_matrix(total):
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

    The face list must be closed under the structure maps that matter, i.e.
    for b <= c both in the list the map contributes; maps leaving the list
    are dropped.  Returns the complex and, per degree, the (face, index)
    labels of its basis, in canonical face order.
    """
    faces = sorted((Face(b) for b in faces), key=face_key)
    basis: dict[int, list[tuple[Face, int]]] = {}
    degs = sorted({d for b in faces for d in module.degrees(b)})
    for deg in degs:
        basis[deg] = [
            (b, i) for b in faces for i in range(module.rank(b, deg))
        ]
    ranks = {deg: len(basis[deg]) for deg in degs}
    pos = {
        deg: {lbl: i for i, lbl in enumerate(lbls)}
        for deg, lbls in basis.items()
    }
    diffs = {}
    for deg in degs:
        rows = ranks.get(deg + 1, 0)
        cols = ranks[deg]
        if not rows or not cols:
            continue
        mat = [[0] * cols for _ in range(rows)]
        for c in faces:
            nc = module.rank(c, deg)
            if not nc:
                continue
            for b in faces:
                if not b <= c or not module.rank(b, deg + 1):
                    continue
                g = module.map_matrix(b, c, deg)
                for i in range(module.rank(b, deg + 1)):
                    ri = pos[deg + 1][(b, i)]
                    for j in range(nc):
                        if g[i][j]:
                            mat[ri][pos[deg][(c, j)]] += g[i][j]
        diffs[deg] = tuple(tuple(r) for r in mat)
    cx = ChainComplex(ranks, diffs)
    return cx, basis


def local_complex(
    module: PosetModule, a: Face
) -> tuple[ChainComplex, dict[int, list[tuple[Face, int]]]]:
    """The total complex over the faces above a, with its basis labels."""
    a = Face(a)
    return total_complex(module, [b for b in module.faces() if a <= b])


def restrict_shriek(module: PosetModule, a: Face) -> PosetModule:
    """Restriction to the closed sub-poset of faces below a."""
    a = Face(a)
    if not a <= module.index_set:
        raise ValueError("face outside the module's index set")
    pieces = {b: dict(degs) for b, degs in module.pieces.items() if b <= a}
    maps = {
        (b, c): dict(mats)
        for (b, c), mats in module.maps.items()
        if c <= a
    }
    return PosetModule(sorted(a), pieces, maps, check=False)


def restrict_star(module: PosetModule, a: Face) -> PosetModule:
    """Restriction to the closure of the stratum a, collapsing faces onto it.

    The piece at b <= a collects every face c with c intersect a = b; the
    structure maps are inherited blockwise.
    """
    a = Face(a)
    groups: dict[Face, list[Face]] = {}
    for c in module.faces():
        b = c & a
        groups.setdefault(b, []).append(c)
    pieces: dict[Face, dict[int, int]] = {}
    offsets: dict[Face, dict[int, dict[Face, int]]] = {}
    for b, members in groups.items():
        members.sort(key=face_key)
        degs: dict[int, int] = {}
        offs: dict[int, dict[Face, int]] = {}
        for c in members:
            for d in module.degrees(c):
                offs.setdefault(d, {})[c] = degs.get(d, 0)
                degs[d] = degs.get(d, 0) + module.rank(c, d)
        pieces[b] = degs
        offsets[b] = offs
    maps: dict[tuple[Face, Face], dict[int, list[list[int]]]] = {}
    for (c1, c2), mats in module.maps.items():
        b1, b2 = c1 & a, c2 & a
        if not b1 <= b2:
            # c1 <= c2 forces c1&a <= c2&a, so this cannot happen
            raise AssertionError("incoherent face intersection")
        for d, m in mats.items():
            rows = pieces[b1].get(d + 1, 0)
            cols = pieces[b2].get(d, 0)
            block = maps.setdefault((b1, b2), {}).setdefault(
                d, [[0] * cols for _ in range(rows)]
            )
            ro = offsets[b1][d + 1][c1]
            co = offsets[b2][d][c2]
            for i, row in enumerate(m):
                for j, x in enumerate(row):
                    if x:
                        block[ro + i][co + j] += x
    return PosetModule(sorted(a), pieces, maps, check=False)


def integer_kernel(mat, ncols: int | None = None) -> list[tuple[int, ...]]:
    """A basis of the integer kernel lattice of an integer matrix."""
    rows = len(mat)
    cols = ncols if ncols is not None else (len(mat[0]) if rows else 0)
    a = [list(r) for r in mat]
    v = [[1 if i == j else 0 for j in range(cols)] for i in range(cols)]
    # integer column echelon via unimodular column operations
    r = 0
    for i in range(rows):
        while True:
            nz = [j for j in range(r, cols) if a[i][j]]
            if not nz:
                break
            piv = min(nz, key=lambda j: abs(a[i][j]))
            for rowset in (a, v):
                for row in rowset:
                    row[r], row[piv] = row[piv], row[r]
            done = True
            for j in range(r + 1, cols):
                if a[i][j]:
                    q = a[i][j] // a[i][r]
                    for rowset in (a, v):
                        for row in rowset:
                            row[j] -= q * row[r]
                    if a[i][j]:
                        done = False
            if done:
                r += 1
                break
    kernel = []
    for j in range(cols):
        if all(a[i][j] == 0 for i in range(rows)):
            kernel.append(tuple(v[i][j] for i in range(cols)))
    return kernel


def truncate_at(module: PosetModule, a: Face, cutoff) -> PosetModule:
    """Kill the local cohomology at the face a above the cutoff degree.

    Forms the mapping cone of the adjunction from the module to the pushed
    forward truncated local complex, shifted down by one.  +inf returns the
    module unchanged; -inf kills the local cohomology at a entirely.
    """
    a = Face(a)
    if a == module.index_set:
        raise ValueError("the open face is never truncated")
    if cutoff == inf:
        return module
    cx, basis = local_complex(module, a)
    degs = sorted(cx.ranks)
    if not degs:
        return module

    # tau_{<= cutoff} as the subcomplex (full below the cutoff, kernel at it)
    sub_basis: dict[int, list[tuple[int, ...]]] = {}
    if cutoff != -inf:
        for deg in degs:
            if deg < cutoff:
                n = cx.rank(deg)
                sub_basis[deg] = [
                    tuple(1 if i == j else 0 for i in range(n))
                    for j in range(n)
                ]
            elif deg == cutoff:
                ker = integer_kernel(cx.diff(deg), ncols=cx.rank(deg))
                if ker:
                    sub_basis[deg] = ker

    # cone T of the inclusion: T^d = sub^{d+1} (+) L^d
    t_ranks: dict[int, int] = {}
    for deg in range(degs[0] - 1, degs[-1] + 1):
        n = len(sub_basis.get(deg + 1, ())) + cx.rank(deg)
        if n:
            t_ranks[deg] = n

    def t_diff(deg: int):
        ks, ls = len(sub_basis.get(deg + 1, ())), cx.rank(deg)
        kt, lt = len(sub_basis.get(deg + 2, ())), cx.rank(deg + 1)
        mat = [[0] * (ks + ls) for _ in range(kt + lt)]
        # -d_sub on the shifted subcomplex part
        dL = cx.diff(deg + 1)
        for j, vec in enumerate(sub_basis.get(deg + 1, ())):
            img = [
                sum(dL[i][k] * vec[k] for k in range(len(vec)))
                for i in range(cx.rank(deg + 2))
            ]
            coords = _in_basis(img, sub_basis.get(deg + 2, ()))
            for i, x in enumerate(coords):
                mat[i][j] = -x
            # inclusion of the subcomplex into L, placed in the L block
            for i, x in enumerate(vec):
                mat[kt + i][j] += x
        d = cx.diff(deg)
        for j in range(ls):
            for i in range(lt):
                if d[i][j]:
                    mat[kt + i][ks + j] = d[i][j]
        return mat

    # assemble the result module
    pieces = {b: dict(degs_) for b, degs_ in module.pieces.items()}
    new_a: dict[int, int] = dict(pieces.get(a, {}))
    for deg, n in t_ranks.items():
        if n:
            new_a[deg + 1] = new_a.get(deg + 1, 0) + n
    if new_a:
        pieces[a] = new_a
    maps = {k: dict(v) for k, v in module.maps.items()}

    def a_offset(deg: int) -> int:
        # the T part of the new piece at a sits after the original piece
        return module.rank(a, deg)

    # maps out of a toward smaller faces act by zero on the new cone part
    for (b, c) in list(maps):
        if c == a and b != a:
            padded = {}
            for d, m in maps[(b, c)].items():
                cols = new_a.get(d, 0)
                padded[d] = tuple(
                    tuple(row) + (0,) * (cols - len(row)) for row in m
                )
            maps[(b, c)] = padded

    # internal differential at a: [[old g_AA, 0], [-phi_AA, -d_T]]
    pos_in_L = {}
    for deg, lbls in basis.items():
        pos_in_L[deg] = {lbl: i for i, lbl in enumerate(lbls)}
    a_degs = sorted(set(new_a) | set(module.degrees(a)))
    gaa = {}
    for deg in a_degs:
        rows = new_a.get(deg + 1, 0)
        cols = new_a.get(deg, 0)
        if not rows or not cols:
            continue
        mat = [[0] * cols for _ in range(rows)]
        old = module.map_matrix(a, a, deg)
        for i in range(module.rank(a, deg + 1)):
            for j in range(module.rank(a, deg)):
                mat[i][j] = old[i][j]
        # -phi_AA: include piece(a)^deg into the L block of T^deg
        ks = len(sub_basis.get(deg + 1, ()))
        for j in range(module.rank(a, deg)):
            li = pos_in_L.get(deg, {}).get((a, j))
            if li is not None:
                mat[a_offset(deg + 1) + ks + li][j] = -1
        # -d_T on the cone part: T^{deg-1} -> T^deg inside the shifted piece
        td = t_diff(deg - 1)
        for i in range(len(td)):
            for j in range(len(td[0]) if td else 0):
                if td[i][j]:
                    mat[a_offset(deg + 1) + i][a_offset(deg) + j] = -td[i][j]
        gaa[deg] = mat
    if gaa:
        maps[(a, a)] = {
            d: tuple(tuple(r) for r in m) for d, m in gaa.items()
        }

    # maps from faces above a into a: [g_AC ; -phi_AC]
    for c in module.faces():
        if not (a < c):
            continue
        mats = {}
        for deg in module.degrees(c):
            rows = new_a.get(deg + 1, 0)
            cols = module.rank(c, deg)
            if not rows or not cols:
                continue
            mat = [[0] * cols for _ in range(rows)]
            old = module.map_matrix(a, c, deg)
            for i in range(module.rank(a, deg + 1)):
                for j in range(cols):
                    mat[i][j] = old[i][j]
            ks = len(sub_basis.get(deg + 1, ()))
            for j in range(cols):
                li = pos_in_L.get(deg, {}).get((c, j))
                if li is not None:
                    mat[a_offset(deg + 1) + ks + li][j] = -1
            mats[deg] = tuple(tuple(r) for r in mat)
        if mats:
            maps[(a, c)] = mats
        elif (a, c) in maps:
            del maps[(a, c)]

    return PosetModule(module.index_set, pieces, maps)


def _in_basis(vec, basis_vectors) -> list[int]:
    """Coordinates of an integer vector in a given integral basis."""
    cols = [[c[i] for c in basis_vectors] for i in range(len(vec))]
    coords = snf.solve(cols, [[x] for x in vec])
    if coords is None:
        raise AssertionError("vector outside subcomplex basis span")
    if any(c.denominator != 1 for (c,) in coords):
        raise AssertionError("non-integral coordinates in subcomplex basis")
    return [int(c) for (c,) in coords]


def ic_module(index_set, cutoffs: dict, order=None) -> PosetModule:
    """Successive truncation of the pushforward over all proper faces.

    cutoffs maps every proper face to an extended integer; the faces are
    processed in decreasing stratum dimension (decreasing subset size), with
    ties broken canonically unless an explicit linear extension is given.
    """
    return _successive_truncation(index_set, cutoffs, order)


def _successive_truncation(
    index_set, cutoffs: dict, order=None, marks: dict | None = None
) -> PosetModule:
    """The loop behind ic_module; marks[a] tells if truncating a cut a class."""
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
        cut = cutoffs[a]
        if marks is not None:
            cx, _ = local_complex(module, a)
            marks[a] = any(d > cut for d in cx.cohomology().degrees())
        module = truncate_at(module, a, cut)
    return module


def supported_local_cohomology(module: PosetModule, a: Face) -> GradedAbelian:
    """Cohomology of the base-face local complex of the restriction below a."""
    sub = restrict_shriek(module, Face(a))
    cx, _ = local_complex(sub, frozenset())
    return cx.cohomology()


def attaching_map_rank(
    module: PosetModule, a1: Face, a2: Face
) -> dict[int, int]:
    """Per-degree rank of the map between supported local cohomologies.

    The sub-poset below a1 includes into the one below a2; the induced map on
    base-face local cohomology is computed over the rationals.
    """
    a1, a2 = Face(a1), Face(a2)
    if not a1 <= a2:
        raise ValueError("first face is not below the second")
    c1, b1 = local_complex(restrict_shriek(module, a1), frozenset())
    c2, b2 = local_complex(restrict_shriek(module, a2), frozenset())
    out = {}
    for deg in sorted(c1.ranks):
        if not c1.rank(deg):
            continue
        pos2 = {lbl: i for i, lbl in enumerate(b2.get(deg, []))}
        n2 = c2.rank(deg)
        # cocycles of the source complex
        cocycles = snf.kernel_basis(c1.diff(deg), ncols=c1.rank(deg))
        images = []
        for vec in cocycles:
            img = [0] * n2
            for j, lbl in enumerate(b1.get(deg, [])):
                img[pos2[lbl]] = vec[j]
            images.append(tuple(img))
        boundaries = (
            list(zip(*c2.diff(deg - 1)))
            if c2.rank(deg - 1) and c2.rank(deg)
            else []
        )
        base = snf.column_span_rank(boundaries)
        total = snf.column_span_rank(boundaries + images)
        rank = total - base
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
