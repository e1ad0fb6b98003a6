"""Boundary-component combinatorics and fiber restriction.

A compactification datum is encoded by the set of simple roots touching
the defining highest weight.  The Levi set of a parabolic splits into the
part chain-connected to that weight (the h-side) and its complement (the
ell-side); parabolics sharing the h-side part normalize the same boundary
component, and the largest one in each group is called saturated.  The
projection onto the coarser compactification has fibers stratified by the
parabolics whose saturation is the given one, and restricting a family to
such a fiber collapses each thread along Q -> Q intersect R.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import inf

from .kostant import (
    KostantClass,
    bracketing_parabolics,
    kostant_class,
    kostant_decomposition,
    levi_self_dual,
)
from .microsupport import RealFormOracle
from .posetmod import Face, GradedAbelian, face_key, subsets
from .roots import (
    Parabolic,
    RootSystem,
    factorize,
    parabolic,
)
from .threads import thread_key, thread_window


@dataclass(frozen=True)
class SatakeDatum:
    """Connectivity datum of a compactification of the given group."""

    system: RootSystem
    mu_support: frozenset

    def __post_init__(self):
        if not self.mu_support:
            raise ValueError("the defining weight must touch the diagram")
        if not all(0 <= i < self.system.rank for i in self.mu_support):
            raise ValueError(f"bad support indices {sorted(self.mu_support)}")


def baily_borel(system: RootSystem) -> SatakeDatum:
    """The natural datum for type C: weight at the long-root end."""
    if system.cartan_type != "C":
        raise ValueError("the natural datum needs a type C group")
    return SatakeDatum(system, frozenset({system.rank - 1}))


def _adjacent(system: RootSystem, i: int, j: int) -> bool:
    return system.gram[i][j] != 0


def kappa_zeta(datum: SatakeDatum, psi) -> tuple[frozenset, frozenset]:
    """Split psi into the part chain-connected to the weight and the rest.

    A root joins kappa when a chain inside psi reaches a root pairing
    nontrivially with the defining weight.  The two parts are checked to
    be orthogonal, not assumed.
    """
    psi = frozenset(psi)
    sys = datum.system
    # the chain ends at the weight itself, so it seeds at its support
    reached = set(psi & datum.mu_support)
    frontier = set(reached)
    while frontier:
        nxt = {
            i
            for i in psi - reached
            if any(_adjacent(sys, i, j) for j in frontier)
        }
        reached |= nxt
        frontier = nxt
    kappa = frozenset(reached)
    zeta = psi - kappa
    for i in kappa:
        for j in zeta:
            if _adjacent(sys, i, j):
                raise AssertionError(
                    f"connected split: {i} in the weight part touches {j}"
                )
    return kappa, zeta


def p_dagger(datum: SatakeDatum, P: Parabolic) -> Parabolic:
    """The largest parabolic above P with the same weight-connected part.

    A restricted root leaves kappa(P) unchanged exactly when it is off the
    weight's support and not adjacent to kappa(P); such roots never chain
    into kappa together, so P-dagger adds all of them.
    """
    kappa, _ = kappa_zeta(datum, P.levi)
    sys = datum.system
    extra = {
        i
        for i in P.restricted_indices
        if i not in datum.mu_support
        and not any(_adjacent(sys, i, j) for j in kappa)
    }
    return parabolic(sys, P.levi | extra)


def is_saturated(datum: SatakeDatum, P: Parabolic) -> bool:
    return p_dagger(datum, P).levi == P.levi


def saturated_parabolics(datum: SatakeDatum) -> list[Parabolic]:
    sys = datum.system
    out = [
        parabolic(sys, levi)
        for levi in subsets(range(sys.rank))
        if is_saturated(datum, parabolic(sys, levi))
    ]
    out.sort(key=lambda P: face_key(P.levi))
    return out


def fiber_strata(datum: SatakeDatum, R: Parabolic) -> list[Parabolic]:
    """Strata of the fiber over a point of the boundary piece of R."""
    if not is_saturated(datum, R):
        raise ValueError(f"{R} is not saturated")
    sys = datum.system
    out = [
        parabolic(sys, levi)
        for levi in subsets(sorted(R.levi))
        if p_dagger(datum, parabolic(sys, levi)).levi == R.levi
    ]
    out.sort(key=lambda P: face_key(P.levi))
    return out


# -- dimension bookkeeping (split preset) ---------------------------------


def dim_boundary_symmetric_space(
    datum: SatakeDatum, P: Parabolic, side: str
) -> int:
    """Split dimension of the h- or ell-side symmetric space of P."""
    kappa, zeta = kappa_zeta(datum, P.levi)
    part = kappa if side == "h" else zeta
    if side not in ("h", "ell"):
        raise ValueError(f"side must be 'h' or 'ell', got {side!r}")
    return len(parabolic(datum.system, part).levi_positive_indices()) + len(part)


def codim_boundary_stratum(datum: SatakeDatum, R: Parabolic) -> int:
    sys = datum.system
    dim_full = len(sys.positive_roots) + sys.rank
    return dim_full - dim_boundary_symmetric_space(datum, R, "h")


def fiber_self_contragredient(datum: SatakeDatum, c: KostantClass) -> bool:
    """Self-duality of the class after restriction to the ell-side Levi."""
    _, zeta = kappa_zeta(datum, c.P.levi)
    # rho passes every duality test (is_self_contragredient)
    return levi_self_dual(c.system, zeta, c.wlr_scaled)


def _ell_dimDV(datum: SatakeDatum, c: KostantClass) -> int:
    _, zeta = kappa_zeta(datum, c.P.levi)
    return RealFormOracle().dimDV(parabolic(c.system, zeta), c.mu_coords)


# -- fiber restriction ----------------------------------------------------


@dataclass(frozen=True)
class FiberEntry:
    """One class detected on the fiber, with total-degree range."""

    cls: KostantClass
    window: tuple[tuple[Face, GradedAbelian], ...]
    c: int
    d: int


@dataclass(frozen=True)
class FiberRestriction:
    """Micro-support data of the two fiber restrictions of a family."""

    R: Parabolic
    star_entries: tuple[FiberEntry, ...]
    shriek_entries: tuple[FiberEntry, ...]
    d_star: Fraction | float
    c_shriek: Fraction | float
    d_bound: Fraction
    c_bound: Fraction

    @property
    def bounds_hold(self) -> bool:
        return self.d_star <= self.d_bound and self.c_shriek >= self.c_bound


def _fiber_entries(
    datum: SatakeDatum,
    R: Parabolic,
    family: str,
    lam_coords,
    kind: str | None,
    profile: str | None,
) -> tuple[list[FiberEntry], list[FiberEntry]]:
    """The star and shriek entries, each read off the thread's cache."""
    shift = 0 if R.is_full else dim_boundary_symmetric_space(datum, R, "h")
    star, shriek = [], []
    for P in fiber_strata(datum, R):
        a_R = frozenset(P.restricted_indices) & R.levi
        collapsed = frozenset(P.restricted_indices) - R.levi
        for c in _fiber_classes(datum, tuple(lam_coords), P):
            key = thread_key(family, c, kind=kind, profile=profile)
            # detection only counts between the bracketing faces, cut to R
            q_lo, q_hi = bracketing_parabolics(c)
            s_lo = frozenset(q_lo.levi - P.levi) & a_R
            s_hi = frozenset(q_hi.levi - P.levi) & a_R
            for entries, extra, k in ((star, collapsed, 0), (shriek, Face(), shift)):
                window = thread_window(key, s_lo, s_hi, c.degree + k, extra)
                if not window:
                    continue
                degs = [d for _, g in window for d in g.degrees()]
                entries.append(
                    FiberEntry(cls=c, window=window, c=min(degs), d=max(degs))
                )
    return star, shriek


@lru_cache(maxsize=None)
def _fiber_classes(datum: SatakeDatum, lam_coords: tuple, P: Parabolic) -> tuple:
    """The fiber self-contragredient classes of (lam, P), for every R and family."""
    return tuple(
        c for c in kostant_decomposition(lam_coords, P)
        if fiber_self_contragredient(datum, c)
    )


def restrict_to_fiber(
    datum: SatakeDatum,
    R: Parabolic,
    family: str,
    lam_coords,
    kind: str | None = None,
    profile: str | None = None,
) -> FiberRestriction:
    """Micro-support of both fiber restrictions, with the degree bounds.

    The plain restriction collapses each thread onto the faces inside R;
    the shriek version keeps only those faces and shifts degrees up by the
    dimension of the h-side boundary component.  Degree ranges combine the
    class data with the split-preset ell-side dimensions.

    Neither restriction is built as a module.  Let I be the restricted
    roots of a stratum P and a_R = I & R.levi.  For s <= a_R, the shriek
    restriction's supported cohomology at s is the thread's at s.  The
    star restriction collapses a face c onto c & a_R, so at s it covers
    the faces c with c & a_R <= s, which are the faces below
    s | (I - R.levi).  Both are downward-closed sets of faces, so each
    window is read from the per-profile cache of the thread itself.
    """
    if not is_saturated(datum, R):
        raise ValueError(f"{R} is not saturated")
    star, shk = _fiber_entries(datum, R, family, lam_coords, kind, profile)

    def half(e: FiberEntry, sign: int) -> Fraction:
        dim = dim_boundary_symmetric_space(datum, e.cls.P, "ell")
        return Fraction(dim + sign * _ell_dimDV(datum, e.cls), 2)

    codim = codim_boundary_stratum(datum, R)
    n_rest = len(R.restricted_indices)
    return FiberRestriction(
        R=R,
        star_entries=tuple(star),
        shriek_entries=tuple(shk),
        d_star=max((half(e, 1) + e.d for e in star), default=-inf),
        c_shriek=min((half(e, -1) + e.c for e in shk), default=inf),
        d_bound=Fraction(codim, 2) - n_rest,
        c_bound=Fraction(codim, 2) + n_rest,
    )


# -- pairing comparison across one adjoined root --------------------------


def pairing_shift(c: KostantClass, alpha0: int):
    """Compare a class's pairings with those of its one-step parent.

    Adjoining alpha0 to the Levi factors the representative through the
    larger parabolic; the parent class there has its own pairings against
    the remaining restricted roots.  Returns the parent class and, for each
    remaining root, the pair (parent pairing, child pairing).
    """
    if alpha0 not in c.P.restricted_indices:
        raise ValueError(f"{alpha0} is not a restricted root of {c.P}")
    bigger = parabolic(c.system, c.P.levi | {alpha0})
    _, w_up = factorize(c.w, c.P, bigger)
    parent = kostant_class(bigger, w_up, c.lam)
    comparisons = {
        i: (parent.pairing(i), c.pairing(i))
        for i in c.P.restricted_indices
        if i != alpha0
    }
    return parent, comparisons
