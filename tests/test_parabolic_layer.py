"""The cached integer parabolic layer against copies of the scans it replaced.

Levi root sets are bitmasks cached per (system, Levi), bidegrees are
popcounts, and Kostant classes carry w(d(lambda+rho)) as integers.  The
reference routines below are the Fraction and root-scan versions those
replaced; every value must agree exactly, on every Levi of A3, B3, C3 and
C4, every minimal coset representative and a small grid of weights.
"""

import itertools
from fractions import Fraction
from functools import lru_cache

import pytest

from weylcoh.kostant import (
    bracketing_parabolics,
    is_self_contragredient,
    kostant_decomposition,
    levi_self_dual,
)
from weylcoh.posetmod import subsets
from weylcoh.roots import (
    bidegree,
    build_root_system,
    codim_and_perversity,
    dim_nilradical,
    factorize,
    full_parabolic,
    levi_part,
    levi_split,
    longest_levi_element,
    parabolic,
    scaled_lam_rho,
)
from weylcoh.threads import PROFILES, face_parabolic, ic_cutoffs, wc_keep

# -- the routines before the bitmask and integer layer ---------------------


@lru_cache(maxsize=None)
def _ref_levi_positive_indices(P):
    out = []
    for idx, coords in enumerate(P.system.positive_roots):
        if all(c == 0 or i in P.levi for i, c in enumerate(coords)):
            out.append(idx)
    return out


def _ref_dim_nilradical(P, Q=None):
    if Q is None:
        Q = full_parabolic(P.system)
    return len(_ref_levi_positive_indices(Q)) - len(_ref_levi_positive_indices(P))


def _ref_codim_and_perversity(P, kind):
    codim = _ref_dim_nilradical(P) + len(P.restricted_indices)
    return codim, (codim - 2) // 2 if kind == "m" else (codim - 1) // 2


def _ref_inversions(w):
    npos = len(w.system.positive_roots)
    return sorted(p - npos for p in w.perm[:npos] if p >= npos)


def _ref_bidegree(w, Q):
    levi_pos = set(_ref_levi_positive_indices(Q))
    return sum(1 for idx in _ref_inversions(w) if idx not in levi_pos)


def _ref_wlr(w, lam):
    return w.apply_coords(tuple(a + r for a, r in zip(lam, w.system.rho)))


def _ref_pairing(P, wlr, i):
    _, s = levi_split(P.system, P.levi)
    rest = P.restricted_indices
    row = s[rest.index(i)]
    return sum((x * wlr[j] for x, j in zip(row, rest)), Fraction(0))


def _ref_levi_self_dual(system, levi, mu):
    part = levi_part(system, levi, mu)
    if all(x == 0 for x in part):
        return True
    perm = longest_levi_element(system, levi).perm
    sigma = {
        i: system.roots[perm[system.simple_indices[i]]].index(-1) for i in levi
    }
    return all(part[sigma[i]] == part[i] for i in levi)


def _ref_ic_cutoffs(P, w, kind):
    out = {}
    for a in subsets(P.restricted_indices)[:-1]:
        Q = face_parabolic(P, a)
        out[a] = _ref_codim_and_perversity(Q, kind)[1] - _ref_bidegree(w, Q)
    return out


def _ref_wc_keep(P, w, lam, a):
    """The verdicts of both weight profiles."""
    Q = face_parabolic(P, a)
    if Q.is_full:
        return {"mu": True, "nu": True}
    target = factorize(w, P, Q)[1].apply_coords(scaled_lam_rho(P.system, lam)[0])
    rest = [target[i] for i in Q.restricted_indices]
    return {"mu": all(c > 0 for c in rest), "nu": all(c >= 0 for c in rest)}


# -- comparisons -------------------------------------------------------------

LAYER_CASES = [
    ("A", 3, list(itertools.product((0, 1), repeat=3))),
    ("B", 3, list(itertools.product((0, 1), repeat=3))),
    ("C", 3, list(itertools.product((0, 1), repeat=3))),
    ("C", 4, [(0, 0, 0, 0), (1, 0, 1, 0), (2, 1, 0, 1)]),
]


@pytest.mark.parametrize("typ,rank", [(t, r) for t, r, _ in LAYER_CASES])
def test_levi_facts_match_root_scans(typ, rank):
    sys = build_root_system(typ, rank)
    for levi in subsets(range(rank)):
        P = parabolic(sys, levi)
        assert P.levi_positive_indices() == _ref_levi_positive_indices(P)
        assert dim_nilradical(P) == _ref_dim_nilradical(P)
        for extra in subsets(P.restricted_indices):
            Q = parabolic(sys, levi | extra)
            assert dim_nilradical(P, Q) == _ref_dim_nilradical(P, Q)
        if not P.is_full:
            for kind in ("m", "n"):
                assert codim_and_perversity(P, kind) == (
                    _ref_codim_and_perversity(P, kind)
                )
        # is_self_contragredient reads w(lambda+rho) for mu: rho passes
        assert levi_self_dual(sys, levi, sys.rho)


@pytest.mark.parametrize("typ,rank,lams", LAYER_CASES)
def test_kostant_classes_match_fraction_reference(typ, rank, lams):
    sys = build_root_system(typ, rank)
    for lam_coords in lams:
        for levi in subsets(range(rank)):
            P = parabolic(sys, levi)
            rest = P.restricted_indices
            for c in kostant_decomposition(lam_coords, P):
                wlr = _ref_wlr(c.w, c.lam)
                assert c.wlr == wlr
                assert c.degree == len(_ref_inversions(c.w))
                mu = tuple(a - r for a, r in zip(wlr, sys.rho))
                assert c.mu_coords == mu
                pairs = [_ref_pairing(P, wlr, i) for i in rest]
                assert [c.pairing(i) for i in rest] == pairs
                assert [
                    (v > 0) - (v < 0) for v in c.scaled_pairings()
                ] == [(v > 0) - (v < 0) for v in pairs]
                q_lo, q_hi = bracketing_parabolics(c)
                assert q_lo.levi == levi | {i for i, v in zip(rest, pairs) if v < 0}
                assert q_hi.levi == levi | {i for i, v in zip(rest, pairs) if v <= 0}
                assert is_self_contragredient(c) == _ref_levi_self_dual(sys, levi, mu)
                # the ell-side test of satake reads every sub-Levi the same way
                for zeta in subsets(levi):
                    assert levi_self_dual(sys, zeta, c.wlr_scaled) == (
                        _ref_levi_self_dual(sys, zeta, mu)
                    )


@pytest.mark.parametrize("typ,rank,lams", LAYER_CASES)
def test_thread_cutoffs_match_fraction_reference(typ, rank, lams):
    sys = build_root_system(typ, rank)
    for levi in subsets(range(rank)):
        P = parabolic(sys, levi)
        faces = subsets(P.restricted_indices)
        for i, lam_coords in enumerate(lams):
            for c in kostant_decomposition(lam_coords, P):
                if i == 0:
                    for a in faces:
                        Q = face_parabolic(P, a)
                        assert bidegree(c.w, Q) == _ref_bidegree(c.w, Q)
                    if not P.is_full:
                        for kind in ("m", "n"):
                            assert ic_cutoffs(P, c.w, kind) == (
                                _ref_ic_cutoffs(P, c.w, kind)
                            )
                for a in faces:
                    want = _ref_wc_keep(P, c.w, c.lam, a)
                    for profile in PROFILES:
                        assert wc_keep(c, a, profile) == want[profile]
