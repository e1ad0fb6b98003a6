"""Highest-weight bookkeeping for nilpotent-cohomology summands.

For an irreducible module with dominant highest weight lambda and a
parabolic P, the cohomology of the nilradical splits into one-dimensional
isotypical threads indexed by minimal coset representatives w, with Levi
highest weight w(lambda+rho)-rho sitting in degree len(w).  This module
computes those weights, their central characters on the split torus of the
Levi, the self-contragredience test, and the pair of parabolics bracketing
where a thread can carry supported cohomology.  A class keeps
w(lambda+rho) as an integer vector with one denominator; the sign and
self-duality tests read it against integer rows cached per (system, Levi),
and Fractions are built only for output.
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

    lam is in simple-root coordinates; wlr_scaled = w(den * (lambda+rho)),
    with den from scaled_lam_rho, is what the sign and duality tests read.
    wlr, mu, xi and mu_semisimple are views for output (mu, xi ambient).
    """

    P: Parabolic
    w: WeylElement
    lam: Vec
    wlr_scaled: tuple[int, ...]
    den: int
    degree: int

    @property
    def system(self) -> RootSystem:
        return self.P.system

    @property
    def wlr(self) -> Vec:
        """w(lambda+rho) in simple-root coordinates."""
        return tuple(Fraction(x, self.den) for x in self.wlr_scaled)

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

    def scaled_pairings(self) -> tuple[int, ...]:
        """Positive multiples of pairing(i), i over P.restricted_indices."""
        rest = self.P.restricted_indices
        return tuple(
            sum(x * self.wlr_scaled[j] for x, j in zip(row, rest))
            for row, _ in _pairing_rows(self.system, self.P.levi)
        )

    def pairing(self, i: int) -> Fraction:
        """Inner product of the torus part of w(lambda+rho) with simple root i.

        i must index a simple root outside the Levi.  The torus projection
        is orthogonal, so pairing against the projected root equals pairing
        against the root itself.
        """
        if i in self.P.levi:
            raise ValueError(f"root {i} lies in the Levi of {self.P}")
        k = self.P.restricted_indices.index(i)
        _, den = _pairing_rows(self.system, self.P.levi)[k]
        return Fraction(self.scaled_pairings()[k], den * self.den)

    def __repr__(self) -> str:
        return (
            f"KostantClass(P={sorted(self.P.levi)}, deg={self.degree}, "
            f"mu={tuple(self.mu)})"
        )


def kostant_class(P: Parabolic, w: WeylElement, lam) -> KostantClass:
    """The class of w for the highest weight lam (simple-root coordinates)."""
    lam_rho, d = scaled_lam_rho(P.system, lam)
    return KostantClass(P, w, lam, w.apply_coords(lam_rho), d, w.length())


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

    mu is in simple-root coordinates.  -w0 of the Levi sends alpha_i to
    alpha_sigma(i), so it fixes a vector v of the Levi root span iff
    <v, alpha_i^vee> = <v, alpha_sigma(i)^vee> for every Levi root i.  The
    Levi part of mu has mu's pairings with the Levi coroots, so the test
    reads integer Cartan rows against mu itself; a zero part passes.
    """
    return all(
        sum(x * c for x, c in zip(row, mu)) == 0
        for row in _duality_rows(system, levi)
    )


@lru_cache(maxsize=None)
def _duality_rows(system: RootSystem, levi: frozenset) -> tuple:
    """<., alpha_i^vee - alpha_sigma(i)^vee> as rows, one per i < sigma(i)."""
    perm = longest_levi_element(system, levi).perm
    rows = []
    for i in sorted(levi):
        # w0(alpha_i) = -alpha_sigma(i): coordinate -1 at sigma(i), 0 elsewhere
        s = system.roots[perm[system.simple_indices[i]]].index(-1)
        if s > i:
            rows.append(tuple(r[i] - r[s] for r in system.cartan))
    return tuple(rows)


def is_self_contragredient(c: KostantClass) -> bool:
    """Split-form self-duality test on the semisimple part of mu.

    rho pairs to 1 with every simple coroot, so the test reads
    w(lambda+rho) in place of mu.  Minimal parabolics pass vacuously.
    """
    return levi_self_dual(c.system, c.P.levi, c.wlr_scaled)


@lru_cache(maxsize=None)
def _pairing_rows(system: RootSystem, levi: frozenset) -> tuple:
    """The rows of levi_split's S, each scaled by the lcm of its denominators.

    Each entry is (row, lcm).  Row k against d * w(lambda+rho) is a positive
    multiple of the pairing with the k-th restricted simple root.
    """
    _, s = levi_split(system, levi)
    out = []
    for row in s:
        den = lcm(*(x.denominator for x in row))
        out.append((tuple(int(x * den) for x in row), den))
    return tuple(out)


def bracketing_parabolics(c: KostantClass) -> tuple[Parabolic, Parabolic]:
    """Parabolics bracketing where the thread is locally detectable.

    The lower one adjoins the strictly negative pairings, the upper one the
    nonpositive ones; they coincide exactly when no pairing vanishes.
    """
    pairs = list(zip(c.P.restricted_indices, c.scaled_pairings()))
    q_lo = parabolic(c.system, c.P.levi | {i for i, v in pairs if v < 0})
    q_hi = parabolic(c.system, c.P.levi | {i for i, v in pairs if v <= 0})
    return q_lo, q_hi
