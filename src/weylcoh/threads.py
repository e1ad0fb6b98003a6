"""Builders tying Weyl-group data to poset modules.

A thread is the one-dimensional isotypical slice of a constructible family
over the face poset of a base parabolic P, indexed by a minimal coset
representative w.  Faces are subsets of the restricted simple-root indices
of P.  Three families are built here: the plain zero-extension of the open
face, the perversity-truncated family (integer cutoffs p(Q) - l_Q(w)), and
the weight-truncated family (all-or-nothing cutoffs decided by comparing
the central character of the face against a weight profile).
"""

from __future__ import annotations

from math import inf

from .posetmod import (
    Face,
    PosetModule,
    face_key,
    ic_module,
    local_complex,
    pushforward_module,
    subsets,
    truncate_at,
)
from .roots import (
    Parabolic,
    Vec,
    WeylElement,
    bidegree,
    codim_and_perversity,
    factorize,
    parabolic,
)

FAMILIES = ("pushforward", "ic", "wc")
PROFILES = ("mu", "nu")


def face_parabolic(P: Parabolic, a: Face) -> Parabolic:
    """The parabolic obtained by adjoining the face's roots to the Levi."""
    a = Face(a)
    if not a <= frozenset(P.restricted_indices):
        raise ValueError(f"face {sorted(a)} outside the restricted roots of {P}")
    return parabolic(P.system, P.levi | a)


def ic_cutoffs(P: Parabolic, w: WeylElement, kind: str) -> dict[Face, int]:
    """Shifted-perversity cutoff p(Q) - l_Q(w) for every proper face."""
    out = {}
    for a in subsets(P.restricted_indices):
        if a == frozenset(P.restricted_indices):
            continue
        Q = face_parabolic(P, a)
        _, p = codim_and_perversity(Q, kind)
        out[a] = p - bidegree(w, Q)
    return out


def wc_keep(
    P: Parabolic,
    w: WeylElement,
    lam: Vec,
    a: Face,
    profile: str,
) -> bool:
    """Whether the weight profile keeps the face a of the thread of w.

    lam is in simple-root coordinates.  The face is kept when the central
    character of its piece dominates the profile in the restricted-root
    cone, i.e. when the simple-root coordinates of wQ(lambda+rho) off the
    Levi of Q are all >= 0.  The profile 'nu' is the exact lower-middle
    weight; 'mu' adds an infinitesimally small positive multiple of rho,
    whose simple-root coordinates are all positive, so there the
    coordinates must be > 0.
    """
    if profile not in PROFILES:
        raise ValueError(f"unknown weight profile {profile!r}")
    Q = face_parabolic(P, a)
    if Q.is_full:
        return True
    _, wQ = factorize(w, P, Q)
    rho = P.system.rho
    target = wQ.apply_coords(tuple(x + r for x, r in zip(lam, rho)))
    rest = [target[i] for i in Q.restricted_indices]
    if profile == "nu":
        return all(c >= 0 for c in rest)
    return all(c > 0 for c in rest)


def wc_cutoffs(
    P: Parabolic, w: WeylElement, lam: Vec, profile: str
) -> dict[Face, float]:
    """All-or-nothing cutoff map for the weight-truncated family."""
    out = {}
    for a in subsets(P.restricted_indices):
        if a == frozenset(P.restricted_indices):
            continue
        out[a] = inf if wc_keep(P, w, lam, a, profile) else -inf
    return out


def build_thread(
    family: str,
    P: Parabolic,
    w: WeylElement,
    *,
    kind: str | None = None,
    profile: str | None = None,
    lam: Vec | None = None,
    order=None,
) -> PosetModule:
    """Build the isotypical thread of w over the face poset of P."""
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES}")
    index_set = P.restricted_indices
    if family == "pushforward":
        return pushforward_module(index_set)
    if family == "ic":
        if kind not in ("m", "n"):
            raise ValueError("perversity kind must be 'm' or 'n'")
        return ic_module(index_set, ic_cutoffs(P, w, kind), order=order)
    if lam is None:
        raise ValueError("weight-truncated family needs the highest weight")
    return ic_module(index_set, wc_cutoffs(P, w, lam, profile), order=order)


def ic_module_with_marks(
    index_set, cutoffs: dict, order=None
) -> tuple[PosetModule, dict[Face, bool]]:
    """Successive truncation recording where it actually removes classes.

    A face is marked when, at the moment of its truncation, the local
    cohomology there has a class above the cutoff.  The marks identify the
    dot/line picture a shifted perversity realizes.
    """
    module = pushforward_module(index_set)
    faces = [a for a in subsets(index_set) if a != frozenset(index_set)]
    if order is None:
        order = sorted(faces, key=face_key, reverse=True)
    marks = {}
    for a in order:
        cx, _ = local_complex(module, a)
        h = cx.cohomology()
        cut = cutoffs[a]
        marks[a] = any(d > cut for d in h.degrees())
        module = truncate_at(module, a, cut)
    return module, marks
