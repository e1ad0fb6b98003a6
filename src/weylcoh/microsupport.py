"""Detection of isotypical classes by supported local cohomology.

A class at a parabolic P belongs to the support set of a family when it is
self-contragredient and some face between its bracketing parabolics carries
nonzero supported cohomology; it is essential when the map between the
cohomologies at the two bracketing faces is itself nonzero.  Degrees are
reported as total degrees (thread degree plus the length of the class).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import inf

from .kostant import (
    KostantClass,
    bracketing_parabolics,
    is_self_contragredient,
    kostant_decomposition,
)
from .posetmod import Face, GradedAbelian, face_key, subsets
from .roots import (
    Parabolic,
    RootSystem,
    Vec,
    dim_nilradical,
    parabolic,
)
from .snf import snf_divisors
from .threads import (
    FAMILIES,
    thread_attaching_rank,
    thread_key,
    thread_window,
)


@dataclass(frozen=True)
class MicroSupportEntry:
    """One detected class, with its window and degree data."""

    family: str
    cls: KostantClass
    q_lo: Parabolic
    q_hi: Parabolic
    window: tuple[tuple[Face, GradedAbelian], ...]  # total degrees
    c: int
    d: int
    essential: bool
    fundamental: bool
    kind: str | None = None
    profile: str | None = None

    @property
    def P(self) -> Parabolic:
        return self.cls.P

    def __repr__(self) -> str:
        groups = ", ".join(
            f"{sorted(a)}:{g}" for a, g in self.window
        )
        return (
            f"MicroSupportEntry(P={sorted(self.P.levi)}, deg={self.cls.degree}, "
            f"c={self.c}, d={self.d}, essential={self.essential}, "
            f"fundamental={self.fundamental}, window=[{groups}])"
        )


def _entry_for_class(
    family: str,
    c: KostantClass,
    kind: str | None,
    profile: str | None,
) -> MicroSupportEntry | None:
    P = c.P
    q_lo, q_hi = bracketing_parabolics(c)
    a_lo = frozenset(q_lo.levi - P.levi)
    a_hi = frozenset(q_hi.levi - P.levi)
    key = thread_key(family, c, kind=kind, profile=profile)
    window = thread_window(key, a_lo, a_hi, c.degree)
    if not window:
        return None
    degs = [d for _, g in window for d in g.degrees()]
    ranks = thread_attaching_rank(key, a_lo, a_hi)
    fundamental = (
        not P.is_full
        and q_lo.levi == P.levi
        and q_hi.is_full
        and 2 * c.degree == dim_nilradical(P)
    )
    return MicroSupportEntry(
        family=family,
        cls=c,
        q_lo=q_lo,
        q_hi=q_hi,
        window=window,
        c=min(degs),
        d=max(degs),
        essential=bool(ranks),
        fundamental=fundamental,
        kind=kind,
        profile=profile,
    )


def micro_support(
    family: str,
    lam_coords,
    system: RootSystem,
    kind: str | None = None,
    profile: str | None = None,
) -> list[MicroSupportEntry]:
    """All detected classes over every parabolic of the given group."""
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    entries = []
    for levi in subsets(range(system.rank)):
        P = parabolic(system, levi)
        for c in kostant_decomposition(lam_coords, P):
            if not is_self_contragredient(c):
                continue
            e = _entry_for_class(family, c, kind, profile)
            if e is not None:
                entries.append(e)
    entries.sort(key=lambda e: (face_key(e.P.levi), e.cls.degree, e.cls.mu))
    return entries


def classify_fundamental(entry: MicroSupportEntry) -> bool:
    """Whether an entry of a perversity family has the boundary-case shape.

    When true, also asserts the expected supported values at the two
    bracketing faces: the lower-middle perversity concentrates at the base
    face and vanishes at the open face, the upper-middle the other way
    around, with the class sitting in a single degree.
    """
    if entry.family != "ic":
        raise ValueError("only perversity-truncated entries are classified")
    if not entry.fundamental:
        return False
    P = entry.P
    a_lo = frozenset(entry.q_lo.levi - P.levi)
    a_hi = frozenset(entry.q_hi.levi - P.levi)
    groups = dict(entry.window)
    lo = groups.get(a_lo, GradedAbelian())
    hi = groups.get(a_hi, GradedAbelian())
    nonzero = [g for g in (lo, hi) if not g.is_zero]
    if len(nonzero) != 1 or len(nonzero[0].degrees()) != 1:
        raise AssertionError(
            f"boundary-case entry with unexpected supported shape: {entry}"
        )
    if len(P.restricted_indices) == 2 and entry.kind is not None:
        # rank-two slice: value pinned at one end in a single known degree
        deg = entry.cls.degree
        if entry.kind == "m":
            ok = hi.is_zero and lo.degrees() == [deg + 2]
        else:
            ok = lo.is_zero and hi.degrees() == [deg]
        if not ok:
            raise AssertionError(
                f"boundary-case entry with unexpected values: {entry}"
            )
    return True


@dataclass(frozen=True)
class RealFormOracle:
    """Dimension data for symmetric spaces attached to Levi quotients.

    For the split form, dim D_P is the number of positive Levi roots plus
    the Levi rank, and dim D_P(V) likewise for the sub-root-system of Levi
    roots orthogonal to the highest weight of V.
    """

    def dimD(self, P: Parabolic) -> int:
        return len(P.levi_positive_indices()) + len(P.levi)

    def dimDV(self, P: Parabolic, mu: Vec) -> int:
        """dim D_P(V) for the weight mu, given in simple-root coordinates."""
        sys = P.system
        perp = [
            sys.positive_roots[i]
            for i in P.levi_positive_indices()
            if sys.form(sys.positive_roots[i], mu) == 0
        ]
        if not perp:
            return 0
        return len(perp) + len(
            snf_divisors([{j: x for j, x in enumerate(r) if x} for r in perp])
        )


def global_degree_bounds(
    entries: list[MicroSupportEntry], oracle: RealFormOracle
) -> tuple[Fraction | float, Fraction | float]:
    """Exact lower/upper degree range implied by the detected classes.

    Empty input yields (+inf, -inf): the family has no cohomology at all.
    Halves are possible; consumers floor or ceil as appropriate.
    """
    lo, hi = inf, -inf
    for e in entries:
        dd = oracle.dimD(e.P)
        dv = oracle.dimDV(e.P, e.cls.mu_coords)
        lo = min(lo, Fraction(dd - dv, 2) + e.c)
        hi = max(hi, Fraction(dd + dv, 2) + e.d)
    return lo, hi
