"""Highest-weight bookkeeping for nilpotent-cohomology summands.

For an irreducible module with dominant highest weight lambda and a
parabolic P, the cohomology of the nilradical splits into one-dimensional
isotypical threads indexed by minimal coset representatives w, with Levi
highest weight w(lambda+rho)-rho sitting in degree len(w).  This module
computes those weights, their central characters on the split torus of the
Levi, the self-contragredience test, and the pair of parabolics bracketing
where a thread can carry supported cohomology.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm

from .roots import (
    Parabolic,
    RootSystem,
    Vec,
    WeylElement,
    enumerate_min_coset_reps,
    levi_part,
    levi_split,
    longest_levi_element,
    parabolic,
    scaled_lam_rho,
)


@dataclass(frozen=True)
class KostantClass:
    """One isotypical summand of the nilradical cohomology of P.

    lam and wlr = w(lambda+rho) are in simple-root coordinates; mu, xi and
    mu_semisimple are ambient vectors, for output.
    """

    P: Parabolic
    w: WeylElement
    lam: Vec
    wlr: Vec
    degree: int

    @property
    def system(self) -> RootSystem:
        return self.P.system

    @property
    def mu_coords(self) -> Vec:
        """Simple-root coordinates of mu = w(lambda+rho) - rho."""
        return tuple(a - r for a, r in zip(self.wlr, self.system.rho))

    @property
    def mu(self) -> Vec:
        """mu = w(lambda+rho) - rho as an ambient vector."""
        return self.system.from_simple_coords(self.mu_coords)

    @property
    def xi(self) -> Vec:
        """Central character: projection of mu off the Levi root span."""
        mu = self.mu_coords
        semi = levi_part(self.system, self.P.levi, mu)
        return self.system.from_simple_coords(
            tuple(a - b for a, b in zip(mu, semi))
        )

    @property
    def mu_semisimple(self) -> Vec:
        """Projection of mu onto the Levi root span."""
        return self.system.from_simple_coords(
            levi_part(self.system, self.P.levi, self.mu_coords)
        )

    def pairing(self, i: int) -> Fraction:
        """Inner product of the torus part of w(lambda+rho) with simple root i.

        i must index a simple root outside the Levi.  The torus projection
        is orthogonal, so pairing against the projected root equals pairing
        against the root itself.
        """
        if i in self.P.levi:
            raise ValueError(f"root {i} lies in the Levi of {self.P}")
        _, s = levi_split(self.system, self.P.levi)
        rest = self.P.restricted_indices
        row = s[rest.index(i)]
        return sum(
            (x * self.wlr[j] for x, j in zip(row, rest)), Fraction(0)
        )

    def __repr__(self) -> str:
        return (
            f"KostantClass(P={sorted(self.P.levi)}, deg={self.degree}, "
            f"mu={tuple(self.mu)})"
        )


def kostant_class(P: Parabolic, w: WeylElement, lam) -> KostantClass:
    """The class of w for the highest weight lam (simple-root coordinates)."""
    lam_rho, d = scaled_lam_rho(P.system, lam)
    wlr = tuple(Fraction(x, d) for x in w.apply_coords(lam_rho))
    return KostantClass(P=P, w=w, lam=lam, wlr=wlr, degree=w.length())


def kostant_decomposition(lam_coords, P: Parabolic) -> list[KostantClass]:
    """All isotypical summands for highest weight lam and parabolic P.

    lam_coords are coordinates in the fundamental-weight basis; they must
    be nonnegative integers (dominance).  Returns one class per minimal
    coset representative, in length order.
    """
    coords = tuple(lam_coords)
    sys = P.system
    if len(coords) != sys.rank:
        raise ValueError(f"expected {sys.rank} coordinates, got {len(coords)}")
    if any(c != int(c) or c < 0 for c in coords):
        raise ValueError(f"highest weight must be dominant integral: {coords}")
    lam = sys.weight_from_fundamental(coords)
    return [kostant_class(P, w, lam) for w in enumerate_min_coset_reps(P)]


def levi_self_dual(system: RootSystem, levi: frozenset, mu) -> bool:
    """Whether the opposition involution of the Levi fixes mu's Levi part.

    mu is in simple-root coordinates.  True iff minus the longest element
    of the Levi Weyl group fixes the projection of mu onto the Levi root
    span; a zero projection passes vacuously.  -w0 permutes the Levi simple
    roots, -w0(alpha_i) = alpha_sigma(i), so it fixes the projection iff
    the projection's coordinates agree at i and sigma(i).
    """
    part = levi_part(system, levi, mu)
    if all(x == 0 for x in part):
        return True
    perm = longest_levi_element(system, levi).perm
    # w0(alpha_i) = -alpha_sigma(i): coordinate -1 at sigma(i), 0 elsewhere
    sigma = {i: system.roots[perm[system.simple_indices[i]]].index(-1) for i in levi}
    return all(part[sigma[i]] == part[i] for i in levi)


def is_self_contragredient(c: KostantClass) -> bool:
    """Split-form self-duality test on the semisimple part of mu.

    Minimal parabolics pass vacuously.
    """
    return levi_self_dual(c.system, c.P.levi, c.mu_coords)


@lru_cache(maxsize=None)
def _pairing_rows(system: RootSystem, levi: frozenset) -> tuple:
    """The rows of levi_split's S, each scaled by the lcm of its denominators.

    Row k against d * w(lambda+rho) has the sign of the pairing with the
    k-th restricted simple root (d > 0 as in scaled_lam_rho).
    """
    _, s = levi_split(system, levi)
    out = []
    for row in s:
        den = lcm(*(x.denominator for x in row))
        out.append(tuple(int(x * den) for x in row))
    return tuple(out)


def bracketing_parabolics(c: KostantClass) -> tuple[Parabolic, Parabolic]:
    """Parabolics bracketing where the thread is locally detectable.

    The lower one adjoins the strictly negative pairings, the upper one the
    nonpositive ones; they coincide exactly when no pairing vanishes.  Only
    the signs count, so they are read in integers.
    """
    rest = c.P.restricted_indices
    wlr = c.w.apply_coords(scaled_lam_rho(c.system, c.lam)[0])
    neg, nonpos = set(), set()
    for i, row in zip(rest, _pairing_rows(c.system, c.P.levi)):
        v = sum(x * wlr[j] for x, j in zip(row, rest))
        if v < 0:
            neg.add(i)
        if v <= 0:
            nonpos.add(i)
    q_lo = parabolic(c.system, c.P.levi | neg)
    q_hi = parabolic(c.system, c.P.levi | nonpos)
    return q_lo, q_hi
