"""Builders tying Weyl-group data to poset modules.

A thread is the one-dimensional isotypical slice of a constructible family
over the face poset of a base parabolic P, indexed by a minimal coset
representative w.  Faces are subsets of the restricted simple-root indices
of P.  Three families are built here: the plain zero-extension of the open
face, the perversity-truncated family (integer cutoffs p(Q) - l_Q(w)), and
the weight-truncated family (all-or-nothing cutoffs decided by comparing
the central character of the face against a weight profile).

A thread is a value keyed by its cutoff profile (thread_key).  What
micro-support asks of a thread is cached per process under that key.
"""

from __future__ import annotations

from functools import lru_cache
from math import inf

from .posetmod import (
    Face,
    GradedAbelian,
    PosetModule,
    _successive_truncation,
    attaching_map_rank,
    ic_module,
    subsets,
    supported_local_cohomology,
)
from .roots import (
    Parabolic,
    Vec,
    WeylElement,
    bidegree,
    codim_and_perversity,
    factorize,
    parabolic,
    scaled_lam_rho,
)

FAMILIES = ("pushforward", "ic", "wc")
PROFILES = ("mu", "nu")


def face_parabolic(P: Parabolic, a: Face) -> Parabolic:
    """The parabolic obtained by adjoining the face's roots to the Levi."""
    a = Face(a)
    if not a <= frozenset(P.restricted_indices):
        raise ValueError(f"face {sorted(a)} outside the restricted roots of {P}")
    return parabolic(P.system, P.levi | a)


@lru_cache(maxsize=None)
def _proper_faces(index_set: tuple) -> tuple[Face, ...]:
    # one shared tuple of faces per index set, so cache entries share them
    return tuple(subsets(index_set)[:-1])


def ic_cutoffs(P: Parabolic, w: WeylElement, kind: str) -> dict[Face, int]:
    """Shifted-perversity cutoff p(Q) - l_Q(w) for every proper face."""
    faces = _proper_faces(P.restricted_indices)
    return dict(zip(faces, _ic_cutoff_values(P, w, kind)))


@lru_cache(maxsize=None)
def _face_parabolics(P: Parabolic) -> dict[Face, tuple[Parabolic, tuple]]:
    """face -> (Q, simple roots off Q's Levi); one Q per face, for _min_rep keys."""
    out = {}
    for a in subsets(P.restricted_indices):
        Q = face_parabolic(P, a)
        out[a] = Q, Q.restricted_indices
    return out


@lru_cache(maxsize=None)
def _ic_cutoff_values(P: Parabolic, w: WeylElement, kind: str) -> tuple:
    faces = _face_parabolics(P)
    values = []
    for a in _proper_faces(P.restricted_indices):
        Q, _ = faces[a]
        values.append(codim_and_perversity(Q, kind)[1] - bidegree(w, Q))
    return tuple(values)


@lru_cache(maxsize=None)
def _min_rep(w: WeylElement, P: Parabolic, Q: Parabolic) -> WeylElement:
    # P is part of the key: equality of Weyl elements compares permutations only
    return factorize(w, P, Q)[1]


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
    Q, off = _face_parabolics(P)[Face(a)]
    if not off:
        return True
    lam_rho, _ = scaled_lam_rho(P.system, lam)
    rows = _min_rep(w, P, Q).matrix
    coords = (sum(m * c for m, c in zip(rows[i], lam_rho)) for i in off)
    if profile == "nu":
        return all(c >= 0 for c in coords)
    return all(c > 0 for c in coords)


def wc_cutoffs(
    P: Parabolic, w: WeylElement, lam: Vec, profile: str
) -> dict[Face, float]:
    """All-or-nothing cutoff map for the weight-truncated family."""
    return {
        a: inf if wc_keep(P, w, lam, a, profile) else -inf
        for a in _proper_faces(P.restricted_indices)
    }


def thread_key(
    family: str, P: Parabolic, w: WeylElement, *, kind=None, profile=None,
    lam: Vec | None = None,
) -> tuple:
    """The cutoff profile of a thread: (index set, cutoffs).

    The cutoffs are those of the proper faces in subsets order; threads
    with equal profiles are equal modules.  The pushforward is the profile
    with every cutoff +inf.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES}")
    if family == "pushforward":
        cuts = (inf,) * len(_proper_faces(P.restricted_indices))
    elif family == "ic":
        if kind not in ("m", "n"):
            raise ValueError("perversity kind must be 'm' or 'n'")
        cuts = _ic_cutoff_values(P, w, kind)
    elif lam is None:
        raise ValueError("weight-truncated family needs the highest weight")
    else:
        cuts = tuple(wc_cutoffs(P, w, lam, profile).values())
    return P.restricted_indices, cuts


def build_thread(key) -> PosetModule:
    """The thread module with the given cutoff profile (see thread_key)."""
    index_set, cuts = key
    return ic_module(index_set, dict(zip(_proper_faces(index_set), cuts)))


# at most the last four builds, so a window and its attaching rank share one
_thread_module = lru_cache(maxsize=4)(build_thread)


@lru_cache(maxsize=None)
def thread_local_cohomology(key: tuple, a: Face) -> GradedAbelian:
    """Supported local cohomology at a of the thread with the given profile."""
    return supported_local_cohomology(_thread_module(key), a)


def thread_window(key: tuple, lo: Face, hi: Face, shift: int, extra=frozenset()):
    """The nonzero supported cohomology at a | extra, shifted by shift, for
    each face lo <= a <= hi in subsets order."""
    window = []
    for a in subsets(hi):
        if lo <= a:
            g = thread_local_cohomology(key, a | extra)
            if not g.is_zero:
                window.append((a, g.shifted(shift)))
    return tuple(window)


@lru_cache(maxsize=None)
def _attaching_items(key, a1, a2):
    return tuple(attaching_map_rank(_thread_module(key), a1, a2).items())


def thread_attaching_rank(key: tuple, a1: Face, a2: Face) -> dict[int, int]:
    """Per-degree attaching-map rank of the thread with the given profile."""
    return dict(_attaching_items(key, a1, a2))


def ic_module_with_marks(
    index_set, cutoffs: dict, order=None
) -> tuple[PosetModule, dict[Face, bool]]:
    """Successive truncation recording where it actually removes classes.

    A face is marked when, at the moment of its truncation, the local
    cohomology there has a class above the cutoff.  The marks identify the
    dot/line picture a shifted perversity realizes.
    """
    marks: dict[Face, bool] = {}
    return _successive_truncation(index_set, cutoffs, order, marks), marks
