"""Builders tying Weyl-group data to poset modules.

A thread is the one-dimensional isotypical slice of a constructible family
over the face poset of a base parabolic P, indexed by a minimal coset
representative w.  Faces are subsets of the restricted simple-root indices
of P.  Three families are built here: the plain zero-extension of the open
face, the perversity-truncated family (integer cutoffs p(Q) - l_Q(w)), and
the weight-truncated family (all-or-nothing cutoffs decided by comparing
the central character of the face against a weight profile).

A thread is a value keyed by its cutoff profile (thread_key).  What
micro-support asks of a thread is cached per process under that key, and
where its truncation removed classes is a read of the built module
(posetmod.truncation_marks), not a second build.
"""

from __future__ import annotations

from functools import lru_cache
from math import inf

from .kostant import KostantClass
from .posetmod import (
    Face,
    GradedAbelian,
    PosetModule,
    attaching_map_rank,
    ic_module,
    subsets,
    supported_local_cohomology,
)
from .roots import (
    Parabolic,
    WeylElement,
    bidegree,
    codim_and_perversity,
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


@lru_cache(maxsize=None)
def _proper_faces(index_set: tuple) -> tuple[Face, ...]:
    # one shared tuple of faces per index set, so cache entries share them
    return tuple(subsets(index_set)[:-1])


def ic_cutoffs(P: Parabolic, w: WeylElement, kind: str) -> dict[Face, int]:
    """Shifted-perversity cutoff p(Q) - l_Q(w) for every proper face."""
    faces = _proper_faces(P.restricted_indices)
    return dict(zip(faces, _ic_cutoff_values(P, w, kind)))


@lru_cache(maxsize=None)
def _face_parabolics(P: Parabolic) -> dict[Face, Parabolic]:
    """proper face -> its parabolic, as the perversity cutoffs read them."""
    return {a: face_parabolic(P, a) for a in _proper_faces(P.restricted_indices)}


@lru_cache(maxsize=None)
def _ic_cutoff_values(P: Parabolic, w: WeylElement, kind: str) -> tuple:
    faces = _face_parabolics(P)
    values = []
    for a in _proper_faces(P.restricted_indices):
        Q = faces[a]
        values.append(codim_and_perversity(Q, kind)[1] - bidegree(w, Q))
    return tuple(values)


def wc_keep(c: KostantClass, a: Face, profile: str) -> bool:
    """Whether the weight profile keeps the face a of the thread of c.

    The face is kept when the central character of its piece dominates the
    profile in the restricted-root cone: the simple-root coordinates of
    v(lambda+rho) off the Levi of Q = face_parabolic(P, a) are all >= 0,
    where w = u * v with v minimal for Q and u in the Weyl group of Q's
    Levi.  A simple reflection s_i changes only the i-th simple-root
    coordinate, so v(lambda+rho) and w(lambda+rho) agree off Q's Levi,
    i.e. at the restricted indices of P outside a.  The test therefore
    reads the signs of c.wlr_scaled, a positive multiple of w(lambda+rho),
    there.  The profile 'nu' is the exact lower-middle weight; 'mu' adds an
    infinitesimally small positive multiple of rho, whose simple-root
    coordinates are all positive, so there the coordinates must be > 0.
    """
    if profile not in PROFILES:
        raise ValueError(f"unknown weight profile {profile!r}")
    coords = (c.wlr_scaled[i] for i in c.P.restricted_indices if i not in a)
    if profile == "nu":
        return all(x >= 0 for x in coords)
    return all(x > 0 for x in coords)


def thread_key(
    family: str, c: KostantClass, *, kind=None, profile=None
) -> tuple:
    """The cutoff profile of the thread of c: (index set, cutoffs).

    The cutoffs are those of the proper faces in subsets order; threads
    with equal profiles are equal modules.  The pushforward is the profile
    with every cutoff +inf; the perversity-truncated family reads (P, w),
    the weight-truncated family the class vector.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES}")
    P = c.P
    if family == "pushforward":
        cuts = (inf,) * len(_proper_faces(P.restricted_indices))
    elif family == "ic":
        if kind not in ("m", "n"):
            raise ValueError("perversity kind must be 'm' or 'n'")
        cuts = _ic_cutoff_values(P, c.w, kind)
    elif profile not in PROFILES:
        raise ValueError(f"unknown weight profile {profile!r}")
    else:
        # all or nothing: each face is kept whole or cut whole
        cuts = tuple(
            inf if wc_keep(c, a, profile) else -inf
            for a in _proper_faces(P.restricted_indices)
        )
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
