"""Guard: the sparse total differential against the earlier block form.

Poset modules used to store one dense degree-1 block g_AB per face pair
A <= B, and truncation assembled the cone's blocks [g_AC; -phi_AC] from
them.  That path is kept here, test-local, as the reference the row form
is compared against: same piece ranks, and the same total complexes over
every face set the engine uses, basis labels, rows and entry order alike
(entry order is how the unit pivots of the Smith reduction break ties).
"""

import random
from math import inf

from test_posetmod import CUT_VALUES, _face_sets, truncated, unreduced_ic_module

from weylcoh.posetmod import (
    ChainComplex,
    face_key,
    integer_kernel,
    subsets,
    total_complex,
)

class BlockModule:
    """pieces: face -> {degree: rank}; maps: (a, b) -> {degree: g_ab}, a <= b."""

    def __init__(self, index_set, pieces, maps):
        self.index_set = frozenset(index_set)
        self.pieces = {
            a: {d: r for d, r in degs.items() if r} for a, degs in pieces.items()
        }
        self.pieces = {a: degs for a, degs in self.pieces.items() if degs}
        self.maps = {}
        for (a, b), mats in maps.items():
            assert a <= b
            kept = {
                d: tuple(tuple(row) for row in m)
                for d, m in mats.items()
                if any(x for row in m for x in row)
            }
            if kept:
                self.maps[(a, b)] = kept

    def faces(self):
        return sorted(self.pieces, key=face_key)

    def rank(self, a, deg):
        return self.pieces.get(a, {}).get(deg, 0)

    def degrees(self, a):
        return sorted(self.pieces.get(a, {}))

    def map_matrix(self, a, b, deg):
        m = self.maps.get((a, b), {}).get(deg)
        if m is None:
            return tuple((0,) * self.rank(b, deg) for _ in range(self.rank(a, deg + 1)))
        return m


def block_total_complex(module, faces):
    faces = sorted(faces, key=face_key)
    basis, start = {}, {}
    for deg in sorted({d for b in faces for d in module.degrees(b)}):
        lbls = basis[deg] = []
        for b in faces:
            start[deg, b] = len(lbls)
            lbls.extend((b, i) for i in range(module.rank(b, deg)))
    ranks = {deg: len(lbls) for deg, lbls in basis.items()}
    diffs = {
        deg: [{} for _ in range(ranks[deg + 1])] for deg in ranks if deg + 1 in ranks
    }
    for deg, rows in diffs.items():
        for k, b in enumerate(faces):
            r0 = start[deg + 1, b]
            for c in faces[k:]:
                g = module.maps.get((b, c), {}).get(deg)
                if g is None:
                    continue
                c0 = start[deg, c]
                for i, grow in enumerate(g):
                    for j, x in enumerate(grow):
                        if x:
                            rows[r0 + i][c0 + j] = x
    return ChainComplex(ranks, diffs), basis


def block_truncate_at(module, a, cutoff):
    if cutoff == inf:
        return module
    cx, basis = block_total_complex(module, [b for b in module.faces() if a <= b])
    degs = sorted(cx.ranks)
    if not degs:
        return module
    sub_basis, sub_coords = {}, {}
    if cutoff != -inf:
        for deg in degs:
            if deg < cutoff:
                n = cx.rank(deg)
                sub_basis[deg] = sub_coords[deg] = [
                    tuple(int(i == j) for i in range(n)) for j in range(n)
                ]
            elif deg == cutoff:
                sub_basis[deg], sub_coords[deg] = integer_kernel(
                    cx.diff(deg), cx.rank(deg)
                )
    t_ranks = {}
    for deg in range(degs[0] - 1, degs[-1] + 1):
        n = len(sub_basis.get(deg + 1, ())) + cx.rank(deg)
        if n:
            t_ranks[deg] = n

    def t_diff(deg):
        source, target = sub_basis.get(deg + 1, ()), sub_basis.get(deg + 2, ())
        ks, ls = len(source), cx.rank(deg)
        kt, lt = len(target), cx.rank(deg + 1)
        mat = [[0] * (ks + ls) for _ in range(kt + lt)]
        dL = cx.diff(deg + 1)
        for j, vec in enumerate(source):
            img = [sum(x * vec[k] for k, x in row.items()) for row in dL]
            coords = [
                sum(x * y for x, y in zip(row, img))
                for row in sub_coords.get(deg + 2, ())
            ]
            for i, x in enumerate(coords):
                mat[i][j] = -x
            for i, x in enumerate(vec):
                mat[kt + i][j] += x
        for i, row in enumerate(cx.diff(deg)):
            for j, x in row.items():
                mat[kt + i][ks + j] = x
        return mat

    pieces = {b: dict(d) for b, d in module.pieces.items()}
    new_a = dict(pieces.get(a, {}))
    for deg, n in t_ranks.items():
        new_a[deg + 1] = new_a.get(deg + 1, 0) + n
    pieces[a] = new_a
    maps = {k: dict(v) for k, v in module.maps.items()}
    for (b, c) in list(maps):
        if c == a and b != a:
            maps[(b, c)] = {
                d: tuple(tuple(row) + (0,) * (new_a.get(d, 0) - len(row)) for row in m)
                for d, m in maps[(b, c)].items()
            }
    pos_in_L = {
        deg: {lbl: i for i, lbl in enumerate(lbls)} for deg, lbls in basis.items()
    }
    for c in sorted(pieces, key=face_key):
        if not a <= c:
            continue
        mats = {}
        for deg in sorted(pieces[c]):
            rows, cols = new_a.get(deg + 1, 0), pieces[c][deg]
            if not rows or not cols:
                continue
            mat = [[0] * cols for _ in range(rows)]
            for i, row in enumerate(module.map_matrix(a, c, deg)):
                mat[i][: len(row)] = row
            top = module.rank(a, deg + 1)
            offset = top + len(sub_basis.get(deg + 1, ()))
            for j in range(module.rank(c, deg)):
                mat[offset + pos_in_L[deg][(c, j)]][j] = -1
            if c == a:
                for i, row in enumerate(t_diff(deg - 1)):
                    mat[top + i][module.rank(a, deg):] = [-x for x in row]
            mats[deg] = mat
        maps[(a, c)] = mats
    return BlockModule(module.index_set, pieces, maps)


def block_ic_module(index_set, cutoffs):
    full = frozenset(index_set)
    module = BlockModule(index_set, {full: {0: 1}}, {})
    for a in sorted(cutoffs, key=face_key, reverse=True):
        module = block_truncate_at(module, a, cutoffs[a])
    return module


def test_total_complex_matches_block_form():
    # unreduced ic modules (ic_module cancels unit pairs, the block form
    # does not), and each truncated once more at a face that already
    # carries a piece, as the truncation contract does
    rng = random.Random(7)
    face_sets = 0
    for n in (2,) * 20 + (3,) * 20 + (4,) * 10:
        idx = tuple(range(n))
        cuts = {a: rng.choice(CUT_VALUES) for a in subsets(idx)[:-1]}
        rows = unreduced_ic_module(idx, cuts)
        blocks = block_ic_module(idx, cuts)
        a, t = rng.choice(subsets(idx)[:-1]), rng.choice(CUT_VALUES)
        pairs = [
            (rows, blocks),
            (truncated(rows, a, t), block_truncate_at(blocks, a, t)),
        ]
        for rows, blocks in pairs:
            assert rows.pieces == blocks.pieces
            for fs in _face_sets(rows):
                cx, basis = total_complex(rows, fs)
                ref, ref_basis = block_total_complex(blocks, fs)
                assert basis == ref_basis
                assert cx.ranks == ref.ranks
                # entry order included
                assert {
                    d: [list(r.items()) for r in m] for d, m in cx.diffs.items()
                } == {
                    d: [list(r.items()) for r in m] for d, m in ref.diffs.items()
                }
                face_sets += 1
    assert face_sets == 2 * (20 * 17 + 20 * 43 + 10 * 113)
