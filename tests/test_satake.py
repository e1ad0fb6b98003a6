"""Connectivity splits, saturation, fibers, and fiber restriction bounds."""

import itertools
from fractions import Fraction
from math import inf

import pytest
from test_posetmod import shriek_oracle, star_oracle

from weylcoh import threads
from weylcoh.kostant import bracketing_parabolics, kostant_decomposition
from weylcoh.microsupport import micro_support
from weylcoh.posetmod import subsets, supported_local_cohomology
from weylcoh.roots import build_root_system, parabolic
from weylcoh.satake import (
    FiberEntry,
    FiberRestriction,
    SatakeDatum,
    _ell_dimDV,
    baily_borel,
    codim_boundary_stratum,
    dim_boundary_symmetric_space,
    fiber_self_contragredient,
    fiber_strata,
    is_saturated,
    kappa_zeta,
    p_dagger,
    pairing_shift,
    restrict_to_fiber,
    saturated_parabolics,
)


def test_datum_validation():
    sys = build_root_system("C", 3)
    with pytest.raises(ValueError):
        SatakeDatum(sys, frozenset())
    with pytest.raises(ValueError):
        SatakeDatum(sys, frozenset({7}))
    with pytest.raises(ValueError):
        baily_borel(build_root_system("A", 2))


def test_kappa_zeta_extremes():
    datum = baily_borel(build_root_system("C", 3))
    assert kappa_zeta(datum, ()) == (frozenset(), frozenset())
    k, z = kappa_zeta(datum, (0, 1, 2))
    assert k == frozenset({0, 1, 2}) and z == frozenset()


def test_kappa_zeta_split():
    # roots chained to the weight end go to the connected part
    datum = baily_borel(build_root_system("C", 3))
    k, z = kappa_zeta(datum, (0, 2))
    assert k == frozenset({2}) and z == frozenset({0})
    k, z = kappa_zeta(datum, (0, 1))
    assert k == frozenset() and z == frozenset({0, 1})


def test_kappa_zeta_orthogonal_everywhere():
    datum = baily_borel(build_root_system("C", 4))
    for psi in subsets(range(4)):
        k, z = kappa_zeta(datum, psi)
        assert k | z == frozenset(psi) and not (k & z)


def test_p_dagger_idempotent_and_monotone():
    sys = build_root_system("C", 3)
    datum = baily_borel(sys)
    for levi in subsets(range(3)):
        P = parabolic(sys, levi)
        Q = p_dagger(datum, P)
        assert P <= Q
        assert p_dagger(datum, Q).levi == Q.levi
        k1, _ = kappa_zeta(datum, P.levi)
        k2, _ = kappa_zeta(datum, Q.levi)
        assert k1 == k2


def _p_dagger_by_search(datum, P):
    # the largest Levi above P's whose weight-connected part is P's
    kappa, _ = kappa_zeta(datum, P.levi)
    best = P.levi
    for extra in subsets(P.restricted_indices):
        levi = P.levi | extra
        if kappa_zeta(datum, levi)[0] == kappa and len(levi) > len(best):
            best = levi
    return best


@pytest.mark.parametrize(
    "cartan_type,rank",
    [("A", n) for n in range(1, 7)] + [(t, n) for t in "BC" for n in range(2, 7)],
)
def test_p_dagger_rule_matches_search(cartan_type, rank):
    sys = build_root_system(cartan_type, rank)
    for support in subsets(range(rank)):
        if not support:
            continue
        datum = SatakeDatum(sys, frozenset(support))
        for levi in subsets(range(rank)):
            P = parabolic(sys, levi)
            assert p_dagger(datum, P).levi == _p_dagger_by_search(datum, P)


def test_saturated_are_maximal_plus_full():
    for rank in (2, 3, 4):
        sys = build_root_system("C", rank)
        datum = baily_borel(sys)
        sat = {tuple(sorted(P.levi)) for P in saturated_parabolics(datum)}
        want = {tuple(range(rank))}
        for i in range(rank):
            want.add(tuple(j for j in range(rank) if j != i))
        assert sat == want


def test_fiber_strata_partition():
    sys = build_root_system("C", 3)
    datum = baily_borel(sys)
    seen = []
    for R in saturated_parabolics(datum):
        for P in fiber_strata(datum, R):
            assert p_dagger(datum, P).levi == R.levi
            seen.append(tuple(sorted(P.levi)))
    assert sorted(seen) == sorted(
        tuple(sorted(s)) for s in subsets(range(3))
    )


def test_fiber_strata_needs_saturation():
    sys = build_root_system("C", 3)
    datum = baily_borel(sys)
    with pytest.raises(ValueError):
        fiber_strata(datum, parabolic(sys, ()))


def test_restrict_to_fiber_bounds():
    sys = build_root_system("C", 2)
    datum = baily_borel(sys)
    for R in saturated_parabolics(datum):
        if R.is_full:
            continue
        fr = restrict_to_fiber(datum, R, "ic", (0, 0), kind="n")
        assert fr.bounds_hold
        assert fr.d_bound < fr.c_bound


def test_restrict_to_fiber_needs_saturation():
    sys = build_root_system("C", 2)
    datum = baily_borel(sys)
    with pytest.raises(ValueError):
        restrict_to_fiber(datum, parabolic(sys, ()), "ic", (0, 0), kind="n")


def _module_fiber_entries(datum, R, family, lam, kind, profile, shriek):
    # the fiber restriction built as a module: one new thread per class,
    # collapsed onto a_R (star) or cut down to it (shriek)
    shift = (
        dim_boundary_symmetric_space(datum, R, "h")
        if shriek and not R.is_full
        else 0
    )
    entries = []
    for P in fiber_strata(datum, R):
        a_R = frozenset(P.restricted_indices) & R.levi
        for c in kostant_decomposition(lam, P):
            if not fiber_self_contragredient(datum, c):
                continue
            thread = threads.build_thread(
                threads.thread_key(family, c, kind=kind, profile=profile)
            )
            restrict = shriek_oracle if shriek else star_oracle
            fiber = restrict(thread, a_R)
            q_lo, q_hi = bracketing_parabolics(c)
            s_lo = frozenset(q_lo.levi - P.levi) & a_R
            s_hi = frozenset(q_hi.levi - P.levi) & a_R
            window = []
            for s in subsets(sorted(s_hi)):
                if not s_lo <= s:
                    continue
                g = supported_local_cohomology(fiber, s)
                if not g.is_zero:
                    window.append((s, g.shifted(c.degree + shift)))
            if not window:
                continue
            degs = [d for _, g in window for d in g.degrees()]
            entries.append(
                FiberEntry(cls=c, window=tuple(window), c=min(degs), d=max(degs))
            )
    return entries


FIBER_CASES = [
    ("C", 2, lam, family, kind, profile)
    for lam in itertools.product((0, 1), repeat=2)
    for family, kind, profile in [
        ("pushforward", None, None),
        ("ic", "m", None),
        ("ic", "n", None),
        ("wc", None, "mu"),
        ("wc", None, "nu"),
    ]
] + [("C", 3, (1, 1, 1), "ic", "m", None)]


def _module_fiber_restriction(datum, R, family, lam, kind, profile):
    args = (datum, R, family, lam, kind, profile)
    star = _module_fiber_entries(*args, shriek=False)
    shriek = _module_fiber_entries(*args, shriek=True)

    d_star, c_shriek = -inf, inf
    for e in star:
        ell = dim_boundary_symmetric_space(datum, e.cls.P, "ell")
        d_star = max(d_star, Fraction(ell + _ell_dimDV(datum, e.cls), 2) + e.d)
    for e in shriek:
        ell = dim_boundary_symmetric_space(datum, e.cls.P, "ell")
        c_shriek = min(
            c_shriek, Fraction(ell - _ell_dimDV(datum, e.cls), 2) + e.c
        )
    codim = codim_boundary_stratum(datum, R)
    n_rest = len(R.restricted_indices)
    return FiberRestriction(
        R=R,
        star_entries=tuple(star),
        shriek_entries=tuple(shriek),
        d_star=d_star,
        c_shriek=c_shriek,
        d_bound=Fraction(codim, 2) - n_rest,
        c_bound=Fraction(codim, 2) + n_rest,
    )


@pytest.mark.parametrize(
    "typ,rank,lam,family,kind,profile",
    FIBER_CASES,
    ids=[
        f"{t}{n}-{f}-{k or p or ''}-{''.join(map(str, lam))}"
        for t, n, lam, f, k, p in FIBER_CASES
    ],
)
def test_fiber_windows_match_restricted_modules(
    typ, rank, lam, family, kind, profile
):
    datum = baily_borel(build_root_system(typ, rank))
    for R in saturated_parabolics(datum):
        args = (datum, R, family, lam, kind, profile)
        assert restrict_to_fiber(*args) == _module_fiber_restriction(*args)


def _all_fibers(datum, family, lam, **kw):
    return [
        restrict_to_fiber(datum, R, family, lam, **kw)
        for R in saturated_parabolics(datum)
    ]


def test_fiber_restriction_same_cold_and_warm(clear_thread_caches):
    sys = build_root_system("C", 3)
    datum = baily_borel(sys)
    clear_thread_caches()
    cold = _all_fibers(datum, "ic", (1, 1, 1), kind="m")
    clear_thread_caches()
    for family, kw in [("ic", {"kind": "m"}), ("wc", {"profile": "nu"})]:
        micro_support(family, (1, 1, 1), sys, **kw)
    assert _all_fibers(datum, "ic", (1, 1, 1), kind="m") == cold


def test_second_fiber_restriction_builds_no_module(
    monkeypatch, clear_thread_caches
):
    built = []
    real = threads.ic_module

    def counting(*args, **kwargs):
        built.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(threads, "ic_module", counting)
    clear_thread_caches()
    datum = baily_borel(build_root_system("C", 3))
    first = _all_fibers(datum, "wc", (1, 0, 1), profile="mu")
    cold_builds = len(built)
    assert cold_builds > 0
    assert _all_fibers(datum, "wc", (1, 0, 1), profile="mu") == first
    assert len(built) == cold_builds


def test_pairing_shift_validation():
    sys = build_root_system("C", 3)
    P = parabolic(sys, (0,))
    c = kostant_decomposition((0, 0, 0), P)[0]
    with pytest.raises(ValueError):
        pairing_shift(c, 0)


def test_pairing_shift_factors_through_parent():
    sys = build_root_system("C", 3)
    P = parabolic(sys, ())
    for c in kostant_decomposition((1, 0, 1), P):
        parent, comparisons = pairing_shift(c, 0)
        assert parent.P.levi == frozenset({0})
        assert parent.degree <= c.degree
        assert set(comparisons) == {1, 2}
