"""Poset modules: truncation, local cohomology, and the spectral pages."""

import random
import re
from functools import lru_cache
from math import inf

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_snf import _rows, sparse_entries

from weylcoh import roots
from weylcoh.posetmod import (
    ChainComplex,
    GradedAbelian,
    PosetModule,
    _cancel_units,
    _cone,
    attaching_map_rank,
    face_key,
    fary_E1_page,
    fary_abutment_ranks,
    ic_module,
    local_complex,
    mv_E1_page,
    mv_abutment_ranks,
    open_complement_cohomology,
    pushforward_module,
    subsets,
    supported_local_cohomology,
    total_complex,
    truncation_marks,
)
from weylcoh.roots import build_root_system, enumerate_min_coset_reps, parabolic
from weylcoh.threads import ic_cutoffs

CUT_VALUES = [-inf, -2, -1, 0, 1, 2, inf]


def _local(module, a):
    cx, _ = local_complex(module, a)
    return cx.cohomology()


def _mat_mul(a, b):
    """The dense product of a and b; b has at least one row."""
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def _block(module, b, c, deg):
    """The dense block g_bc: piece(c)^deg -> piece(b)^(deg+1) of the differential."""
    rows = module.diff.get(deg, {})
    return [
        [rows.get((b, i), {}).get((c, j), 0) for j in range(module.rank(c, deg))]
        for i in range(module.rank(b, deg + 1))
    ]


def _blocks(module):
    """The nonzero blocks g_bc of the differential: (b, c) -> {deg: matrix}."""
    maps = {}
    for deg, rows in module.diff.items():
        for (b, _), row in rows.items():
            for c, _ in row:
                mats = maps.setdefault((b, c), {})
                if deg not in mats:
                    mats[deg] = _block(module, b, c, deg)
    return maps


def _module(index_set, pieces, maps, check=True):
    """The module whose differential has the given dense blocks g_bc."""
    diff = {}
    for (b, c), mats in sorted(maps.items(), key=lambda kv: face_key(kv[0][1])):
        for deg, m in mats.items():
            rows = diff.setdefault(deg, {})
            for i, mrow in enumerate(m):
                for j, x in enumerate(mrow):
                    if x:
                        rows.setdefault((b, i), {})[c, j] = x
    return PosetModule(index_set, pieces, diff, check=check)


def test_graded_abelian_repr():
    assert repr(GradedAbelian()) == "0"
    assert repr(GradedAbelian.from_dict({0: (1, ())})) == "Z"
    assert repr(GradedAbelian.from_dict({1: (2, ())})) == "Z^2[-1]"
    g = GradedAbelian.from_dict({1: (1, ()), 2: (0, (2,))})
    assert repr(g) == "Z[-1] + Z/2[-2]"


def test_graded_abelian_shift():
    g = GradedAbelian.from_dict({0: (1, ()), 2: (3, ())})
    assert g.shifted(1).degrees() == [1, 3]
    assert g.shifted(1).free_rank(3) == 3


def test_chain_complex_torsion():
    # multiplication by 2 in one degree: Z/2 appears one degree up
    cx = ChainComplex({0: 1, 1: 1}, {0: [{0: 2}]})
    h = cx.cohomology()
    assert h.free_rank(0) == 0 and h.free_rank(1) == 0
    assert h.torsion(1) == (2,)


def _unimodular(n, rng):
    """A random integer n x n matrix of determinant +-1, and its inverse."""
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    inv = [row[:] for row in u]
    for _ in range(n):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((1, -1))
        # u <- (1 + c e_ij) u and inv <- inv (1 - c e_ij)
        u[i] = [x + c * y for x, y in zip(u[i], u[j])]
        for row in inv:
            row[j] -= c * row[i]
    return u, inv


def test_chain_complex_torsion_behind_unit_entries():
    # Z^2 -> Z^3 -> Z^2 with e1 -> f1, f2 -> g1 and f3 -> 2 g2 has
    # H^0 = Z and H^2 = Z/2; a change of basis in every degree mixes the
    # 2 with entries +-1, which are eliminated before the Smith step
    rng = random.Random(5)
    mixed = 0
    for _ in range(20):
        (u0, u0inv), (u1, u1inv), (u2, _) = (
            _unimodular(n, rng) for n in (2, 3, 2)
        )
        d0 = _mat_mul(_mat_mul(u1, ((1, 0), (0, 0), (0, 0))), u0inv)
        d1 = _mat_mul(_mat_mul(u2, ((0, 1, 0), (0, 0, 2))), u1inv)
        mixed += any(abs(x) == 1 for row in d1 for x in row)
        cx = ChainComplex({0: 2, 1: 3, 2: 2}, {0: _rows(d0), 1: _rows(d1)})
        assert cx.dd_failure() is None
        h = cx.cohomology()
        assert h.degrees() == [0, 2]
        assert h.free_rank(0) == 1 and h.torsion(0) == ()
        assert h.free_rank(2) == 0 and h.torsion(2) == (2,)
    assert mixed


@given(st.integers(-2, 1), st.lists(st.integers(1, 4), min_size=2, max_size=4), st.data())
@settings(max_examples=200, deadline=None)
def test_dd_failure_is_first_nonzero_of_dense_product(low, ranks, data):
    # random differentials, d.d = 0 or not: the sparse row product finds
    # the first nonzero entry of the dense product, in (deg, i, j) order
    dense = {
        low + k: data.draw(
            st.lists(
                st.lists(sparse_entries, min_size=n, max_size=n),
                min_size=m,
                max_size=m,
            )
        )
        for k, (n, m) in enumerate(zip(ranks, ranks[1:]))
    }
    cx = ChainComplex(
        {low + k: n for k, n in enumerate(ranks)},
        {deg: _rows(m) for deg, m in dense.items()},
    )
    expected = next(
        (
            (deg, i, j)
            for deg in sorted(dense)
            if deg + 1 in dense
            for i, row in enumerate(_mat_mul(dense[deg + 1], dense[deg]))
            for j, x in enumerate(row)
            if x
        ),
        None,
    )
    assert cx.dd_failure() == expected


def _dense_total_complex(module, faces):
    """The total differential assembled dense through a label -> position map."""
    faces = sorted(faces, key=face_key)
    degs = sorted({d for b in faces for d in module.degrees(b)})
    basis = {
        deg: [(b, i) for b in faces for i in range(module.rank(b, deg))]
        for deg in degs
    }
    pos = {deg: {lbl: i for i, lbl in enumerate(lbls)} for deg, lbls in basis.items()}
    diffs = {}
    for deg in degs:
        if deg + 1 not in basis:
            continue
        mat = [[0] * len(basis[deg]) for _ in basis[deg + 1]]
        for b in faces:
            for c in faces:
                if b <= c:
                    g = _block(module, b, c, deg)
                    for i in range(module.rank(b, deg + 1)):
                        for j in range(module.rank(c, deg)):
                            mat[pos[deg + 1][b, i]][pos[deg][c, j]] += g[i][j]
        diffs[deg] = mat
    return diffs, basis


def _face_sets(module):
    """Every face set the engine takes a total complex over: above a, below
    a, the faces not below a, and r <= b <= a | r, for every face a."""
    faces = module.faces()
    for a in subsets(module.index_set):
        yield [b for b in faces if a <= b]
        yield [b for b in faces if b <= a]
        yield [b for b in faces if b and not b <= a]
        for r in subsets(module.index_set - a):
            if r:
                yield [b for b in faces if r <= b <= a | r]


def test_total_complex_matches_dense_assembly():
    rng = random.Random(11)
    shapes = 0
    for n in (2,) * 8 + (3,) * 8 + (4,) * 3:
        module = _random_ic(rng, n)
        for fs in _face_sets(module):
            cx, basis = total_complex(module, fs)
            dense, dense_basis = _dense_total_complex(module, fs)
            assert basis == dense_basis
            assert cx.ranks == {d: len(lbls) for d, lbls in basis.items()}
            assert {
                deg: [[row.get(j, 0) for j in range(cx.rank(deg))] for row in rows]
                for deg, rows in cx.diffs.items()
            } == dense
            shapes += 1
    assert shapes == 8 * 17 + 8 * 43 + 3 * 113


def test_pushforward_base_value():
    for n in (1, 2, 3, 4):
        m = pushforward_module(range(n))
        assert repr(_local(m, frozenset())) == "Z"


def test_differential_must_point_up_the_poset():
    # a generator at {1} may not map to one at {0}, which is not above it
    pieces = {frozenset({0}): {0: 1}, frozenset({1}): {1: 1}}
    diff = {0: {(frozenset({1}), 0): {(frozenset({0}), 0): 1}}}
    with pytest.raises(ValueError, match="not below its source face"):
        PosetModule((0, 1), pieces, diff)


def test_open_face_never_truncated():
    m = pushforward_module(range(2))
    with pytest.raises(ValueError):
        truncated(m, frozenset({0, 1}), 0)


def test_cut_both_vertices():
    # removing both vertex strata of the rank-2 cone shifts the base class
    cuts = {frozenset(): inf, frozenset({0}): -inf, frozenset({1}): -inf}
    m = ic_module((0, 1), cuts)
    assert repr(_local(m, frozenset())) == "Z[-1]"


def test_cut_one_vertex():
    cuts = {frozenset(): inf, frozenset({0}): -inf, frozenset({1}): inf}
    m = ic_module((0, 1), cuts)
    assert _local(m, frozenset()).is_zero


def truncated(module, a, cutoff):
    """One truncation step at the face a, its cone as built and checked."""
    cone = _cone(module, frozenset(a), cutoff)
    return module if cone is None else PosetModule(module.index_set, *cone)


def unreduced_ic_module(index_set, cutoffs):
    """ic_module without the unit cancellation: the pushforward, then the
    truncation cone at every proper face in decreasing face order."""
    module = pushforward_module(index_set)
    for a in sorted(cutoffs, key=face_key, reverse=True):
        module = truncated(module, a, cutoffs[a])
    return module


def _random_ic(rng, n):
    idx = tuple(range(n))
    cuts = {
        a: rng.choice(CUT_VALUES)
        for a in subsets(idx)
        if a != frozenset(idx)
    }
    return ic_module(idx, cuts)


cutoff_profiles = st.tuples(
    st.integers(2, 3),
    st.integers(0, 2**31 - 1),
    st.sampled_from([-inf, -2, -1, 0, 1, 2]),
)


@given(cutoff_profiles)
@settings(max_examples=60, deadline=None)
def test_truncation_contract(params):
    # after truncating at a face, the local cohomology there agrees with
    # the old one up to the cutoff and vanishes strictly above it
    n, seed, t = params
    rng = random.Random(seed)
    module = _random_ic(rng, n)
    a = rng.choice([b for b in subsets(range(n)) if b != frozenset(range(n))])
    before = _local(module, a)
    after = _local(truncated(module, a, t), a)
    for d in set(before.degrees()) | set(after.degrees()):
        if d <= t:
            assert after.free_rank(d) == before.free_rank(d)
            assert after.torsion(d) == before.torsion(d)
        else:
            assert after.free_rank(d) == 0 and after.torsion(d) == ()


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_closed_open_decomposition(seed):
    # the closed subposet below a face and its open complement split the
    # full local complex; ranks obey the resulting exactness constraints
    rng = random.Random(seed)
    module = _random_ic(rng, rng.choice([2, 3]))
    full = module.index_set
    for a in subsets(sorted(full)):
        if not a or a == full:
            continue
        total = _local(module, frozenset())
        closed = supported_local_cohomology(module, a)
        open_ = open_complement_cohomology(module, a)
        chi = lambda g: sum((-1) ** d * g.free_rank(d) for d in g.degrees())
        assert chi(total) == chi(closed) + chi(open_)
        degs = set(total.degrees()) | set(closed.degrees()) | set(open_.degrees())
        for k in degs:
            assert total.free_rank(k) <= closed.free_rank(k) + open_.free_rank(k)


def test_ic_order_validation():
    idx = (0, 1)
    cuts = {a: inf for a in subsets(idx) if a != frozenset(idx)}
    with pytest.raises(ValueError):
        ic_module(idx, cuts, order=[frozenset({0})])
    with pytest.raises(ValueError):
        # increasing stratum dimension is not a valid sweep
        ic_module(
            idx,
            cuts,
            order=[frozenset(), frozenset({0}), frozenset({1})],
        )


def _replayed_marks(index_set, cutoffs, order):
    """The marks of a truncation loop that records, before each cone, whether
    the local cohomology at the face has a class above its cutoff."""
    module = pushforward_module(index_set)
    marks = {}
    for a in order:
        marks[a] = any(d > cutoffs[a] for d in _local(module, a).degrees())
        cone = _cone(module, a, cutoffs[a])
        if cone is not None:
            module = _cancel_units(index_set, *cone)
    return marks


def test_truncation_marks_read_the_built_module():
    # the marks read off the built module equal those recorded mid-loop, for
    # random index sets, cutoffs inside and outside the degree range, and
    # random orders nonincreasing in face size
    rng = random.Random(40)
    values = [-inf, *range(-2, 6), inf]
    seen = set()
    for n in [1] * 10 + [2] * 60 + [3] * 80 + [4] * 40 + [5] * 10:
        idx = tuple(sorted(rng.sample(range(8), n)))
        faces = subsets(idx)[:-1]
        cuts = {a: rng.choice(values) for a in faces}
        order = sorted(faces, key=lambda a: (-len(a), rng.random()))
        marks = truncation_marks(ic_module(idx, cuts, order=order), cuts)
        assert marks == _replayed_marks(idx, cuts, order), (idx, cuts, order)
        seen.update(marks.values())
    assert seen == {False, True}


def shriek_oracle(module: PosetModule, a) -> PosetModule:
    """Restriction to the closed sub-poset of faces below a, built as a module."""
    a = frozenset(a)
    pieces = {b: dict(degs) for b, degs in module.pieces.items() if b <= a}
    maps = {
        (b, c): dict(mats) for (b, c), mats in _blocks(module).items() if c <= a
    }
    return _module(sorted(a), pieces, maps, check=False)


def star_oracle(module: PosetModule, a) -> PosetModule:
    """Restriction collapsing every face c onto c & a, built as a module.

    The piece at b <= a is the direct sum of the pieces at the faces c with
    c & a = b, and the structure maps are summed blockwise.
    """
    a = frozenset(a)
    groups: dict = {}
    for c in module.faces():
        groups.setdefault(c & a, []).append(c)
    pieces, offsets = {}, {}
    for b, members in groups.items():
        degs, offs = {}, {}
        for c in sorted(members, key=face_key):
            for d in module.degrees(c):
                offs.setdefault(d, {})[c] = degs.get(d, 0)
                degs[d] = degs.get(d, 0) + module.rank(c, d)
        pieces[b], offsets[b] = degs, offs
    maps: dict = {}
    for (c1, c2), mats in _blocks(module).items():
        b1, b2 = c1 & a, c2 & a
        for d, m in mats.items():
            block = maps.setdefault((b1, b2), {}).setdefault(
                d,
                [[0] * pieces[b2].get(d, 0)
                 for _ in range(pieces[b1].get(d + 1, 0))],
            )
            ro, co = offsets[b1][d + 1][c1], offsets[b2][d][c2]
            for i, row in enumerate(m):
                for j, x in enumerate(row):
                    block[ro + i][co + j] += x
    return _module(sorted(a), pieces, maps, check=False)


def test_restrictions_are_faces_of_the_module():
    # a restriction's supported cohomology at s is the module's own at a
    # downward-closed face: s itself (shriek), or s | (I - a) (star)
    rng = random.Random(5)
    cut_values = [-inf, -1, 0, 1, 2, inf]
    triples = 0
    # rank 4 costs about 0.5 s a module, so it gets fewer draws
    for n in (2,) * 26 + (3,) * 26 + (4,) * 8:
        idx = tuple(range(n))
        module = ic_module(
            idx,
            {a: rng.choice(cut_values) for a in subsets(idx)[:-1]},
        )
        own = {b: supported_local_cohomology(module, b) for b in subsets(idx)}
        for a in subsets(idx):
            star, shriek = star_oracle(module, a), shriek_oracle(module, a)
            for s in subsets(sorted(a)):
                assert supported_local_cohomology(star, s) == own[
                    s | (module.index_set - a)
                ]
                assert supported_local_cohomology(shriek, s) == own[s]
                triples += 1
    assert triples == 26 * 9 + 26 * 27 + 8 * 81


def test_spectral_pages_bound_the_target():
    rng = random.Random(23)
    for _ in range(15):
        module = _random_ic(rng, 3)
        for a in subsets(range(3)):
            if not a or a == module.index_set:
                continue
            target = open_complement_cohomology(module, a)
            mv = mv_abutment_ranks(mv_E1_page(module, a))
            fary = fary_abutment_ranks(fary_E1_page(module, a))
            for d in target.degrees():
                entries = target.free_rank(d) + len(target.torsion(d))
                assert mv.get(d, 0) >= entries > 0
                assert fary.get(d, 0) >= entries


def test_spectral_page_rejects_trivial_subsimplex():
    m = pushforward_module(range(2))
    with pytest.raises(ValueError):
        mv_E1_page(m, frozenset())
    with pytest.raises(ValueError):
        fary_E1_page(m, frozenset({0, 1}))


@lru_cache(maxsize=None)
def _c3_borel_modules():
    """The unreduced ic modules of the 96 C3 Borel profiles (48 elements,
    m and n): reduced modules can have no structure map left to perturb."""
    P = parabolic(build_root_system("C", 3), ())
    return tuple(
        unreduced_ic_module(P.restricted_indices, ic_cutoffs(P, w, kind))
        for w in enumerate_min_coset_reps(P)
        for kind in ("m", "n")
    )


def _failing_triangles(module):
    """(A, C, d) wherever sum over A <= B <= C of g_AB . g_BC is nonzero."""
    faces = module.faces()
    degs = [d for degs in module.pieces.values() for d in degs]
    failing = set()
    for a in faces:
        for c in faces:
            if not a <= c:
                continue
            for deg in range(min(degs), max(degs) + 1):
                rows, cols = module.rank(a, deg + 2), module.rank(c, deg)
                if not rows or not cols:
                    continue
                total = [[0] * cols for _ in range(rows)]
                for b in faces:
                    if a <= b <= c and module.rank(b, deg + 1):
                        prod = _mat_mul(
                            _block(module, a, b, deg + 1),
                            _block(module, b, c, deg),
                        )
                        for i, row in enumerate(prod):
                            for j, x in enumerate(row):
                                total[i][j] += x
                if any(x for row in total for x in row):
                    failing.add((str(sorted(a)), str(sorted(c)), deg))
    return failing


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_module_condition_rejects_unit_changes(data):
    # a single +-1 change to one structure map of a thread module is
    # rejected exactly when some triangle sum g_AB . g_BC stops vanishing,
    # and the message names the faces and degree of a failing triangle
    module = data.draw(st.sampled_from(_c3_borel_modules()))
    assert not _failing_triangles(module)
    slots = [
        (b, c, deg)
        for b in module.faces()
        for c in module.faces()
        if b <= c
        for deg in module.degrees(c)
        if module.rank(b, deg + 1)
    ]
    b, c, deg = data.draw(st.sampled_from(slots))
    mat = _block(module, b, c, deg)
    i = data.draw(st.integers(0, len(mat) - 1))
    j = data.draw(st.integers(0, len(mat[0]) - 1))
    mat[i][j] += data.draw(st.sampled_from((1, -1)))
    maps = _blocks(module)
    maps.setdefault((b, c), {})[deg] = mat
    changed = _module(module.index_set, module.pieces, maps, check=False)
    failing = _failing_triangles(changed)
    try:
        _module(module.index_set, module.pieces, maps)
    except AssertionError as err:
        found = re.fullmatch(
            r"module condition fails between (\[.*?\]) and (\[.*?\]) "
            r"at degree (-?\d+)",
            str(err),
        )
        assert found, str(err)
        a_name, c_name, d = found.groups()
        assert (a_name, c_name, int(d)) in failing
    else:
        assert not failing


def test_posetmod_never_solves_over_the_rationals(monkeypatch):
    # truncation, supported local cohomology and attaching ranks stay in
    # integer arithmetic: none of them reaches the rational inverse
    def refuse(*args):
        raise AssertionError("a posetmod routine called roots._invert")

    P = parabolic(build_root_system("C", 3), ())
    monkeypatch.setattr(roots, "_invert", refuse)
    faces = subsets(P.restricted_indices)
    for w in enumerate_min_coset_reps(P):
        for kind in ("m", "n"):
            module = ic_module(P.restricted_indices, ic_cutoffs(P, w, kind))
            for a in faces:
                supported_local_cohomology(module, a)
            for a1 in faces:
                for a2 in faces:
                    if a1 < a2:
                        attaching_map_rank(module, a1, a2)
