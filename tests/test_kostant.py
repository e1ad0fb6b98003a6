"""Isotypical class bookkeeping: weights, pairings, bracketing parabolics."""

import itertools
from fractions import Fraction

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st
from test_roots import exact_solve

from weylcoh.kostant import (
    bracketing_parabolics,
    is_self_contragredient,
    kostant_class,
    kostant_decomposition,
    levi_self_dual,
)
from weylcoh.posetmod import subsets
from weylcoh.roots import (
    bidegree,
    build_root_system,
    enumerate_min_coset_reps,
    factorize,
    levi_part,
    longest_levi_element,
    parabolic,
)
from weylcoh.threads import PROFILES, face_parabolic, wc_keep


def _classes(typ, rank, levi, lam):
    sys = build_root_system(typ, rank)
    return kostant_decomposition(lam, parabolic(sys, levi))


def _pairings(c):
    return {i: c.pairing(i) for i in c.P.restricted_indices}


def test_class_count_and_degrees():
    cs = _classes("C", 2, (0,), (0, 0))
    assert len(cs) == 4
    assert [c.degree for c in cs] == [0, 1, 2, 3]
    for c in cs:
        assert c.degree == c.w.length()


def test_weight_recomputation():
    # mu must be the rho-shifted action of the representative on lambda
    # (lam and rho are carried in simple-root coordinates; compare ambient)
    for c in _classes("C", 2, (), (1, 1)):
        sys = c.system
        lam = sys.from_simple_coords(c.lam)
        rho = sys.from_simple_coords(sys.rho)
        lam_rho = tuple(a + b for a, b in zip(lam, rho))
        want = tuple(a - b for a, b in zip(_ref_act(c.w, lam_rho), rho))
        assert tuple(c.mu) == want


def test_dominance_required():
    sys = build_root_system("A", 2)
    with pytest.raises(ValueError):
        kostant_decomposition((-1, 0), parabolic(sys, ()))
    with pytest.raises(ValueError):
        kostant_decomposition((0,), parabolic(sys, ()))


def test_pairing_outside_levi_only():
    cs = _classes("C", 3, (0,), (0, 0, 0))
    for c in cs:
        with pytest.raises(ValueError):
            c.pairing(0)
        assert set(_pairings(c)) == {1, 2}


def test_identity_class_has_positive_pairings():
    cs = _classes("C", 3, (1,), (0, 0, 0))
    by_deg = {c.degree: c for c in cs}
    top = max(by_deg)
    assert all(v > 0 for v in _pairings(by_deg[0]).values())
    assert all(v < 0 for v in _pairings(by_deg[top]).values())


def test_bracketing_parabolics_nested():
    for c in _classes("C", 2, (), (0, 0)) + _classes("A", 3, (1,), (1, 0, 1)):
        q_lo, q_hi = bracketing_parabolics(c)
        assert c.P <= q_lo <= q_hi
        if all(v != 0 for v in _pairings(c).values()):
            assert q_lo.levi == q_hi.levi


def _bracketing_by_pairing(typ, rank, values):
    """Compare bracketing_parabolics with the signs of the Fraction pairings
    on every class of every proper parabolic, at every weight with
    fundamental coordinates in values; returns the number of classes."""
    sys = build_root_system(typ, rank)
    count = 0
    for levi in subsets(range(rank))[:-1]:
        P = parabolic(sys, levi)
        reps = list(enumerate_min_coset_reps(P))
        for coords in itertools.product(values, repeat=rank):
            lam = sys.weight_from_fundamental(coords)
            for w in reps:
                c = kostant_class(P, w, lam)
                pairs = _pairings(c)
                q_lo, q_hi = bracketing_parabolics(c)
                assert q_lo.levi == P.levi | {i for i, v in pairs.items() if v < 0}
                assert q_hi.levi == P.levi | {i for i, v in pairs.items() if v <= 0}
                count += 1
    return count


def test_bracketing_signs_match_pairing():
    # the integer signs agree with the Fraction pairings at every weight in
    # {0, 1, 2}^rank up to rank 3, and in {0, 1}^4 on C4 (the full C4 grid
    # is the opt-in test below)
    small = (("A", 2), ("B", 2), ("C", 2), ("A", 3), ("B", 3), ("C", 3))
    counts = [_bracketing_by_pairing(typ, rank, (0, 1, 2)) for typ, rank in small]
    assert sum(counts) == 10278
    assert _bracketing_by_pairing("C", 4, (0, 1)) == 27136


@pytest.mark.exhaustive
def test_bracketing_signs_match_pairing_c4_grid():
    assert _bracketing_by_pairing("C", 4, (0, 1, 2)) == 137376


def test_self_contragredience_split():
    # rank-1 Levi factors act by -1 on their root line, so everything passes
    assert all(is_self_contragredient(c) for c in _classes("C", 2, (0,), (1, 1)))
    # an A2 Levi factor has a nontrivial diagram flip; some classes fail
    cs = _classes("A", 3, (0, 1), (1, 0, 0))
    assert any(not is_self_contragredient(c) for c in cs)
    assert any(is_self_contragredient(c) for c in cs)


def test_bidegrees_interpolate():
    for c in _classes("C", 3, (), (1, 0, 1)):
        # inversion counts inside each intermediate nilradical, keyed by
        # the face adjoined to the Levi
        bd = {
            a: bidegree(c.w, face_parabolic(c.P, a))
            for a in subsets(c.P.restricted_indices)
        }
        assert bd[frozenset()] == c.degree
        assert bd[frozenset(c.P.restricted_indices)] == 0
        for small, v in bd.items():
            for big, u in bd.items():
                if small <= big:
                    assert v >= u


def test_central_character_splits_mu():
    for c in _classes("C", 3, (0, 1), (1, 1, 1)):
        recomposed = tuple(a + b for a, b in zip(c.xi, c.mu_semisimple))
        assert recomposed == tuple(c.mu)


# -- ambient reference -------------------------------------------------------
#
# The orthogonal-projection maths the engine used before it carried weights in
# simple-root coordinates: Levi projections and restricted coordinates solved
# in the ambient realization.  Kept here as the reference the coordinate layer
# is compared against.


def _dot(u, v):
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def _combine(coeffs, vectors, dim):
    return tuple(
        sum((c * v[k] for c, v in zip(coeffs, vectors)), Fraction(0))
        for k in range(dim)
    )


def _ref_levi_projection(sys, v, levi):
    basis = [sys.simple_roots[i] for i in sorted(levi)]
    if not basis:
        return (Fraction(0),) * sys.ambient_dim
    gram = [[_dot(a, b) for b in basis] for a in basis]
    coeffs = exact_solve(gram, [[_dot(v, a)] for a in basis])
    return _combine([c for (c,) in coeffs], basis, sys.ambient_dim)


def _ref_restricted_coords(sys, levi, v):
    idx = [i for i in range(sys.rank) if i not in levi]
    basis = [
        tuple(
            a - b
            for a, b in zip(
                sys.simple_roots[i],
                _ref_levi_projection(sys, sys.simple_roots[i], levi),
            )
        )
        for i in idx
    ]
    gram = [[_dot(a, b) for b in basis] for a in basis]
    coords = exact_solve(gram, [[_dot(a, v)] for a in basis])
    return {i: c for i, (c,) in zip(idx, coords)}


def _ref_reflect(v, alpha):
    c = 2 * _dot(v, alpha) / _dot(alpha, alpha)
    return tuple(x - c * a for x, a in zip(v, alpha))


def _ref_act(w, v):
    """w acting on ambient v by the reflections of a reduced word."""
    for i in reversed(w.reduced_word()):
        v = _ref_reflect(v, w.system.simple_roots[i])
    return v


def _ref_weights(sys):
    """Ambient fundamental weights: <omega_i, alpha_k^vee> = delta_ik."""
    roots, n = sys.simple_roots, sys.rank
    mat = [[2 * _dot(roots[j], roots[k]) / _dot(roots[k], roots[k])
            for j in range(n)] for k in range(n)]
    inv = exact_solve(mat, [[int(i == j) for j in range(n)] for i in range(n)])
    return [
        _combine([inv[j][i] for j in range(n)], roots, sys.ambient_dim)
        for i in range(n)
    ]


def _ref_self_contragredient(sys, levi, mu):
    mss = _ref_levi_projection(sys, mu, levi)
    if not any(mss):
        return True
    v = _combine([1] * sys.rank, _ref_weights(sys), sys.ambient_dim)
    w0 = sys.identity_element()
    while True:
        i = next(
            (i for i in sorted(levi) if _dot(v, sys.simple_roots[i]) > 0), None
        )
        if i is None:
            break
        v = _ref_reflect(v, sys.simple_roots[i])
        w0 = sys.simple_reflection(i) * w0
    return tuple(-x for x in _ref_act(w0, mss)) == mss


def _ref_wc_keep(P, w, lam_rho, eps, a):
    """Both weight profiles' verdicts; eps maps a Levi to rho's coordinates."""
    sys = P.system
    Q = parabolic(sys, P.levi | a)
    if Q.is_full:
        return {"mu": True, "nu": True}
    _, wQ = factorize(w, P, Q)
    rat = _ref_restricted_coords(sys, Q.levi, _ref_act(wQ, lam_rho))
    e = eps[Q.levi]
    return {
        "nu": all(c >= 0 for c in rat.values()),
        "mu": all(rat[i] > 0 or (rat[i] == 0 and e[i] <= 0) for i in rat),
    }


@pytest.mark.parametrize("typ", ["A", "B", "C"])
def test_coordinates_match_ambient_reference(typ):
    sys = build_root_system(typ, 3)
    weights = _ref_weights(sys)
    rho = _combine([1] * 3, weights, sys.ambient_dim)
    eps = {
        frozenset(L): _ref_restricted_coords(sys, frozenset(L), rho)
        for L in subsets(range(3))
    }
    for lam_coords in itertools.product((0, 1), repeat=3):
        lam = _combine(lam_coords, weights, sys.ambient_dim)
        lam_rho = tuple(a + b for a, b in zip(lam, rho))
        for levi in subsets(range(3)):
            P = parabolic(sys, levi)
            for c in kostant_decomposition(lam_coords, P):
                mu = tuple(a - b for a, b in zip(_ref_act(c.w, lam_rho), rho))
                assert c.mu == mu
                semi = _ref_levi_projection(sys, mu, levi)
                assert c.mu_semisimple == semi
                assert c.xi == tuple(a - b for a, b in zip(mu, semi))
                target = tuple(a + b for a, b in zip(mu, rho))
                torus = tuple(
                    a - b
                    for a, b in zip(
                        target, _ref_levi_projection(sys, target, levi)
                    )
                )
                for i in P.restricted_indices:
                    assert c.pairing(i) == _dot(torus, sys.simple_roots[i])
                assert is_self_contragredient(c) == _ref_self_contragredient(
                    sys, levi, mu
                )
                for a in subsets(P.restricted_indices):
                    want = _ref_wc_keep(P, c.w, lam_rho, eps, a)
                    for profile in PROFILES:
                        assert wc_keep(c, a, profile) == want[profile]


@pytest.mark.parametrize("typ,rank", [("A", 4), ("B", 3), ("C", 4)])
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_levi_self_dual_matches_longest_element_action(typ, rank, data):
    # -w0 acting on the Levi projection through its matrix, on weights that
    # are often forced into the fixed space of -w0
    sys = build_root_system(typ, rank)
    levi = frozenset(data.draw(st.sets(st.integers(0, rank - 1))))
    mu = tuple(
        Fraction(data.draw(st.integers(-3, 3)), data.draw(st.integers(1, 3)))
        for _ in range(rank)
    )
    w0 = longest_levi_element(sys, levi)
    if data.draw(st.booleans()):
        mu = tuple(a - b for a, b in zip(mu, w0.apply_coords(mu)))
    part = levi_part(sys, levi, mu)
    expected = tuple(-x for x in w0.apply_coords(part)) == part
    assert levi_self_dual(sys, levi, mu) == expected
