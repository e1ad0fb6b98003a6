"""Root systems, Weyl elements, parabolics, and length bookkeeping."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
)

POSITIVE_COUNTS = {
    ("A", 2): 3,
    ("A", 3): 6,
    ("B", 3): 9,
    ("C", 2): 4,
    ("C", 3): 9,
    ("C", 10): 100,
}


@pytest.mark.parametrize("typ,rank", sorted(POSITIVE_COUNTS))
def test_positive_root_count(typ, rank):
    sys = build_root_system(typ, rank)
    assert len(sys.positive_roots) == POSITIVE_COUNTS[(typ, rank)]


def test_invalid_type_rejected():
    with pytest.raises(InvalidTypeError):
        build_root_system("Z", 2)
    with pytest.raises(InvalidTypeError):
        build_root_system("C", 0)


@pytest.mark.parametrize(
    "typ,rank,order", [("A", 2, 6), ("C", 2, 8), ("C", 3, 48)]
)
def test_weyl_group_order(typ, rank, order):
    sys = build_root_system(typ, rank)
    reps = list(enumerate_min_coset_reps(parabolic(sys, ())))
    assert len(reps) == order
    assert len(set(reps)) == order


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
