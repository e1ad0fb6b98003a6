"""Root systems, Weyl elements, parabolics, and length bookkeeping."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_snf import qq_echelon

from weylcoh import roots
from weylcoh.kostant import kostant_class, kostant_decomposition
from weylcoh.posetmod import subsets
from weylcoh.roots import (
    InvalidTypeError,
    Parabolic,
    bidegree,
    build_root_system,
    codim_and_perversity,
    dim_nilradical,
    enumerate_min_coset_reps,
    factorize,
    full_parabolic,
    is_min_coset_rep,
    longest_levi_element,
    parabolic,
    weyl_group_order,
)
from weylcoh.threads import wc_keep

POSITIVE_COUNTS = {
    ("A", 2): 3,
    ("A", 3): 6,
    ("B", 3): 9,
    ("C", 2): 4,
    ("C", 3): 9,
    ("C", 10): 100,
}


def exact_solve(a, b):
    """The X with a @ X == b, for a nonsingular square a over Q.

    The test-local reference for the rational inverses of roots: a row
    echelon form of [a | b], then back substitution.
    """
    n, width = len(a), len(b[0]) if b else 0
    rows, _ = qq_echelon([(*ra, *rb) for ra, rb in zip(a, b)])
    x = [()] * n
    for i in reversed(range(n)):
        x[i] = tuple(
            (rows[i][n + k] - sum(rows[i][j] * x[j][k] for j in range(i + 1, n)))
            / rows[i][i]
            for k in range(width)
        )
    return tuple(x)


@pytest.mark.parametrize("typ,rank", sorted(POSITIVE_COUNTS))
def test_positive_root_count(typ, rank):
    sys = build_root_system(typ, rank)
    assert len(sys.positive_roots) == POSITIVE_COUNTS[(typ, rank)]


def test_invalid_type_rejected():
    # only A, B and C are realized; D-G are unknown types like Z
    for typ, rank in [("Z", 2), ("C", 0), ("D", 4), ("E", 6), ("G", 2)]:
        with pytest.raises(InvalidTypeError):
            build_root_system(typ, rank)


@pytest.mark.parametrize("typ,low", [("A", 1), ("B", 2), ("C", 2)])
def test_rational_inverses_match_reference_solver(typ, low):
    # the Cartan inverse, and M = G_LL^-1 G_LR of every Levi
    for rank in range(low, 7):
        sys = build_root_system(typ, rank)
        g = sys.gram
        assert sys._cartan_inv == exact_solve(sys.cartan, _mat_identity(rank))
        for levi in subsets(range(rank)):
            lev = sorted(levi)
            rest = [i for i in range(rank) if i not in levi]
            m, _ = roots.levi_split(sys, levi)
            assert m == exact_solve(
                [[g[a][b] for b in lev] for a in lev],
                [[g[a][b] for b in rest] for a in lev],
            )


@pytest.mark.parametrize(
    "mat", [((0, 0), (0, 0)), ((1, 2), (2, 4)), ((1, 2, 3), (4, 5, 6), (7, 8, 9))]
)
def test_singular_matrix_has_no_inverse(mat):
    with pytest.raises(ValueError):
        roots._invert(mat)


def test_rho_has_positive_simple_coords():
    # threads.wc_keep reads the 'mu' profile (a small positive multiple of
    # rho added to 'nu') as a strict sign test; that needs rho > 0 here
    for typ, low in [("A", 1), ("B", 2), ("C", 2)]:
        for rank in range(low, 11):
            assert all(c > 0 for c in build_root_system(typ, rank).rho)


@pytest.mark.parametrize(
    "typ,rank,order", [("A", 2, 6), ("C", 2, 8), ("C", 3, 48)]
)
def test_weyl_group_order(typ, rank, order):
    sys = build_root_system(typ, rank)
    reps = list(enumerate_min_coset_reps(parabolic(sys, ())))
    assert len(reps) == order
    assert len(set(reps)) == order


def _group_order(sys, gens):
    """Order of the group generated by the given simple reflections."""
    seen = {sys.identity_element()}
    frontier = list(seen)
    while frontier:
        nxt = []
        for w in frontier:
            for i in gens:
                v = w * sys.simple_reflection(i)
                if v not in seen:
                    seen.add(v)
                    nxt.append(v)
        frontier = nxt
    return len(seen)


@pytest.mark.parametrize(
    "typ,rank,order", [("A", 3, 24), ("B", 3, 48), ("C", 3, 48)]
)
def test_min_coset_counts_every_levi(typ, rank, order):
    # |W| by closure, and |W| / |W_L| minimal representatives for every Levi
    sys = build_root_system(typ, rank)
    assert _group_order(sys, range(rank)) == order
    for levi in itertools.chain.from_iterable(
        itertools.combinations(range(rank), k) for k in range(rank + 1)
    ):
        reps = list(enumerate_min_coset_reps(parabolic(sys, levi)))
        assert len(set(reps)) == len(reps) == order // _group_order(sys, levi)


def test_longest_element_involution():
    sys = build_root_system("C", 3)
    w0 = longest_levi_element(sys, frozenset(range(3)))
    assert w0.length() == len(sys.positive_roots)
    assert (w0 * w0).is_identity()


def test_min_coset_rep_counts():
    # |W| / |W_L| for C2 with an A1 Levi: 8 / 2
    sys = build_root_system("C", 2)
    P = parabolic(sys, (0,))
    reps = list(enumerate_min_coset_reps(P))
    assert len(reps) == 4
    assert sorted(w.length() for w in reps) == [0, 1, 2, 3]
    for w in reps:
        assert is_min_coset_rep(w, P)


def test_inversion_count_is_length():
    sys = build_root_system("C", 3)
    for word in [(), (0,), (0, 1, 0), (2, 1, 0, 1, 2), (0, 1, 2, 1, 0, 2)]:
        w = sys.from_word(word)
        assert len(w.inversions()) == w.length()


words_c3 = st.lists(st.integers(0, 2), max_size=8)


@given(words_c3)
@settings(max_examples=120, deadline=None)
def test_reduced_word_roundtrip(word):
    sys = build_root_system("C", 3)
    w = sys.from_word(word)
    red = w.reduced_word()
    assert len(red) == w.length() <= len(word)
    assert sys.from_word(red) == w


@pytest.mark.parametrize("typ,rank", [("A", 3), ("B", 3), ("C", 4)])
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_inverse_is_reversed_word(typ, rank, data):
    # simple reflections are involutions, so w^-1 is the reversed word
    sys = build_root_system(typ, rank)
    word = data.draw(st.lists(st.integers(0, rank - 1), max_size=12))
    w = sys.from_word(word)
    inv = w.inverse()
    assert w * inv == sys.identity_element() == inv * w
    assert inv == sys.from_word(reversed(word))


@given(words_c3, st.sets(st.integers(0, 2), max_size=2))
@settings(max_examples=120, deadline=None)
def test_factorize_lengths_add(word, levi):
    sys = build_root_system("C", 3)
    w = sys.from_word(word)
    P = parabolic(sys, ())
    Q = parabolic(sys, levi)
    u, v = factorize(w, P, Q)
    assert u * v == w
    assert u.length() + v.length() == w.length()
    assert is_min_coset_rep(v, Q)


def test_bidegree_extremes():
    sys = build_root_system("C", 3)
    P = parabolic(sys, ())
    G = full_parabolic(sys)
    for w in enumerate_min_coset_reps(parabolic(sys, (0, 1))):
        assert bidegree(w, G) == 0
        assert bidegree(w, P) == w.length()


def test_bidegree_monotone_under_inclusion():
    sys = build_root_system("C", 3)
    w = sys.from_word((2, 1, 0, 1, 2, 0))
    chain = [parabolic(sys, levi) for levi in [(), (1,), (1, 2), (0, 1, 2)]]
    vals = [bidegree(w, Q) for Q in chain]
    assert vals == sorted(vals, reverse=True)


def test_dim_nilradical_counts_outside_roots():
    sys = build_root_system("C", 3)
    for levi in [(), (0,), (0, 1), (1, 2), (0, 1, 2)]:
        P = parabolic(sys, levi)
        expect = len(sys.positive_roots) - len(P.levi_positive_indices())
        assert dim_nilradical(P) == expect


def test_relative_nilradical_additivity():
    sys = build_root_system("C", 3)
    P = parabolic(sys, ())
    Q = parabolic(sys, (0, 1))
    assert dim_nilradical(P) == dim_nilradical(Q) + dim_nilradical(P, Q)


def test_perversity_values():
    sys = build_root_system("C", 2)
    # minimal parabolic: 4 + 2 = 6 transverse directions
    codim, m = codim_and_perversity(parabolic(sys, ()), "m")
    assert (codim, m) == (6, 2)
    _, n = codim_and_perversity(parabolic(sys, ()), "n")
    assert n == 2
    codim, m = codim_and_perversity(parabolic(sys, (0,)), "m")
    assert (codim, m) == (4, 1)
    with pytest.raises(ValueError):
        codim_and_perversity(full_parabolic(sys), "m")


def test_parabolic_ordering():
    sys = build_root_system("A", 3)
    P = parabolic(sys, (0,))
    Q = parabolic(sys, (0, 2))
    assert P <= Q and P < Q and not Q <= P
    assert Q.restricted_indices == (1,)
    assert full_parabolic(sys).is_full


def test_parabolic_rejects_bad_index():
    sys = build_root_system("A", 2)
    with pytest.raises(ValueError):
        Parabolic(sys, frozenset({5}))


# -- matrix reference ---------------------------------------------------------
#
# The routines Weyl elements used before they were carried as root
# permutations: integer action matrices on the simple-root basis, products of
# matrices, the inverse by exact elimination, and inversion sets through
# w^-1.  Kept here as the reference the permutation routines are compared
# against.

SP20_WORD = (
    3, 2, 1, 6, 5, 4, 3, 2, 7, 6, 5, 4, 3, 8, 10, 9, 8, 7, 6, 5, 4,
    10, 9, 8, 7, 6, 5, 10, 9, 8, 7, 6, 10, 9, 8, 7, 10, 9, 8, 10, 9, 10,
)
SP20_LEVI = (1, 3, 4, 6, 7, 8)


def _mat_identity(n):
    return tuple(tuple(int(r == c) for c in range(n)) for r in range(n))


def _mat_mul(a, b):
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in zip(*b))
        for row in a
    )


def _mat_inverse(m):
    n = len(m)
    inv = exact_solve(m, _mat_identity(n))
    return tuple(tuple(int(x) for x in row) for row in inv)


def _mat_reflection(sys, i):
    rows = [list(r) for r in _mat_identity(sys.rank)]
    for j in range(sys.rank):
        rows[i][j] -= sys.cartan[j][i]
    return tuple(tuple(r) for r in rows)


def _mat_word(sys, word):
    m = _mat_identity(sys.rank)
    for i in word:
        m = _mat_mul(m, _mat_reflection(sys, i))
    return m


def _mat_descends(m, j):
    return any(row[j] < 0 for row in m)


def _mat_inversions(sys, m):
    inv = _mat_inverse(m)
    return [
        idx for idx, r in enumerate(sys.positive_roots)
        if any(sum(x * c for x, c in zip(row, r)) < 0 for row in inv)
    ]


def _mat_reduced_word(sys, m):
    letters = []
    while m != _mat_identity(sys.rank):
        j = next(j for j in range(sys.rank) if _mat_descends(m, j))
        letters.append(j)
        m = _mat_mul(m, _mat_reflection(sys, j))
    return tuple(reversed(letters))


def _mat_first_negative(inv, levi):
    return next((i for i in sorted(levi) if _mat_descends(inv, i)), None)


def _mat_factorize(sys, m, Q):
    v, vinv, u = m, _mat_inverse(m), _mat_identity(sys.rank)
    while (i := _mat_first_negative(vinv, Q.levi)) is not None:
        s = _mat_reflection(sys, i)
        v, vinv, u = _mat_mul(s, v), _mat_mul(vinv, s), _mat_mul(u, s)
    return u, v


def _mat_min_coset_reps(P):
    sys = P.system
    ident = _mat_identity(sys.rank)
    seen, frontier, out = {ident}, [ident], []
    while frontier:
        out.extend(frontier)
        nxt = []
        for w in frontier:
            for j in range(sys.rank):
                if _mat_descends(w, j):
                    continue
                w2 = _mat_mul(w, _mat_reflection(sys, j))
                if w2 in seen:
                    continue
                if _mat_first_negative(_mat_inverse(w2), P.levi) is not None:
                    continue
                seen.add(w2)
                nxt.append(w2)
        frontier = nxt
    return out


def _assert_matches_matrix_reference(sys, word, levi):
    w = sys.from_word(word)
    m = _mat_word(sys, word)
    assert w.matrix == m
    assert w.inverse().matrix == _mat_inverse(m)
    assert w.inversions() == _mat_inversions(sys, m)
    assert w.length() == len(_mat_inversions(sys, m))
    assert w.reduced_word() == _mat_reduced_word(sys, m)
    for j in range(sys.rank):
        assert w.descends_right(j) == _mat_descends(m, j)
    u, v = factorize(w, parabolic(sys, ()), parabolic(sys, levi))
    assert (u.matrix, v.matrix) == _mat_factorize(sys, m, parabolic(sys, levi))


REFERENCE_SYSTEMS = [("A", 3), ("B", 3), ("C", 3), ("C", 4)]


@pytest.mark.parametrize("typ,rank", REFERENCE_SYSTEMS)
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_permutations_match_matrix_reference(typ, rank, data):
    sys = build_root_system(typ, rank)
    word = data.draw(st.lists(st.integers(0, rank - 1), max_size=14))
    other = data.draw(st.lists(st.integers(0, rank - 1), max_size=8))
    levi = data.draw(st.sets(st.integers(0, rank - 1), max_size=rank - 1))
    _assert_matches_matrix_reference(sys, word, levi)
    product = sys.from_word(word) * sys.from_word(other)
    assert product.matrix == _mat_mul(_mat_word(sys, word), _mat_word(sys, other))


def test_sp20_word_matches_matrix_reference():
    sys = build_root_system("C", 10)
    word = tuple(x - 1 for x in SP20_WORD)
    assert sys.from_word(word).length() == 42
    for levi in [(), SP20_LEVI, (0, 1, 2, 3, 4, 5, 6, 7, 8)]:
        _assert_matches_matrix_reference(sys, word, levi)


@pytest.mark.parametrize("typ,rank", REFERENCE_SYSTEMS)
def test_coset_rep_order_matches_matrix_reference(typ, rank):
    sys = build_root_system(typ, rank)
    for levi in subsets(range(rank)):
        P = parabolic(sys, levi)
        reps = [w.matrix for w in enumerate_min_coset_reps(P)]
        assert reps == _mat_min_coset_reps(P)
        assert len(reps) == (
            weyl_group_order(sys, range(rank)) // weyl_group_order(sys, levi)
        )


@pytest.mark.parametrize("rank", [3, 4])
def test_weyl_elements_never_eliminate(monkeypatch, rank):
    sys = build_root_system("C", rank)
    lam = sys.weight_from_fundamental((1,) + (0,) * (rank - 1))

    def refuse(*args):
        raise AssertionError("a Weyl-element routine called roots._invert")

    monkeypatch.setattr(roots, "_invert", refuse)
    P = parabolic(sys, ())
    for w in enumerate_min_coset_reps(P):
        assert w * w.inverse() == sys.identity_element()
        assert len(w.inversions()) == w.length() == len(w.reduced_word())
        for j in range(rank):
            shorter = (w * sys.simple_reflection(j)).length() < w.length()
            assert w.descends_right(j) == shorter
        u, v = factorize(w, P, parabolic(sys, (0, 1)))
        assert u * v == w
        for a in subsets(range(rank))[:-1]:
            wc_keep(kostant_class(P, w, lam), a, "nu")
    for levi in subsets(range(rank)):
        assert kostant_decomposition((1,) + (0,) * (rank - 1), parabolic(sys, levi))
