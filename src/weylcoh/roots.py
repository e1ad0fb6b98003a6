"""Exact root-system data and Weyl-group combinatorics.

Roots and weights are carried in simple-root coordinates.  Everything is
derived from the integer Gram matrix of the simple roots and from the
Cartan matrix: the positive roots, rho, the fundamental weights and the
Levi splits that project a weight onto a Levi root span.  The weights and
the splits come from one small inverse over Q (`_invert`), the only
rational elimination in the package.  The standard orthonormal-coordinate
realization of types A, B and C is kept only as the output edge
(simple_roots and from_simple_coords).
A Weyl element is carried as the permutation it induces on the roots
(Casselman, "Machine calculations in Weyl groups", 1994): products,
inverses, lengths, inversion sets and descents are index tests, and the
integer action matrix is derived from the images of the simple roots only
where a vector is acted on.  Reduced words are recovered on demand.
Inversion sets and the positive roots of each Levi (cached per (system,
Levi)) are int bitmasks over the positive roots, so nilradical dimensions
and bidegrees are popcounts.

All groups are treated as split over Q: rational, real and complex roots
coincide and the restricted simple roots of a parabolic are in bijection with
the simple roots outside its Levi subset.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from math import lcm
from typing import Iterable, Iterator, Optional

Vec = tuple[Fraction, ...]

_POSITIVE_COUNT = {
    "A": lambda n: n * (n + 1) // 2,
    "B": lambda n: n * n,
    "C": lambda n: n * n,
}

_VALID_RANKS = {
    "A": lambda n: n >= 1,
    "B": lambda n: n >= 2,
    "C": lambda n: n >= 2,
}


def _dot(u, v):
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def _simple_root_vectors(cartan_type: str, n: int) -> tuple[tuple[Vec, ...], int]:
    """Simple roots in the standard coordinate realization; returns (roots, dim)."""
    dim = n + 1 if cartan_type == "A" else n
    rows = [[0] * dim for _ in range(n)]
    for i in range(n if cartan_type == "A" else n - 1):
        rows[i][i], rows[i][i + 1] = 1, -1
    if cartan_type != "A":
        rows[n - 1][n - 1] = 1 if cartan_type == "B" else 2
    return tuple(tuple(Fraction(x) for x in r) for r in rows), dim


class InvalidTypeError(ValueError):
    pass


def check_type(cartan_type: str, rank: int) -> None:
    """Raise InvalidTypeError unless (type, rank) names a root system."""
    if cartan_type not in _VALID_RANKS or not _VALID_RANKS[cartan_type](rank):
        raise InvalidTypeError(f"invalid type/rank pair ({cartan_type!r}, {rank})")


class RootSystem:
    """A finite irreducible root system of type A, B or C with exact data.

    gram is the integer matrix of the invariant form on the simple roots and
    cartan[i][j] = <alpha_i, alpha_j^vee>.  positive_roots are integer
    simple-root coordinates, ordered by height then lexicographically; rho
    is the half-sum of the positive roots in the same coordinates.  roots
    lists the positive roots and then their negatives in the same order, so
    index k is positive iff k < len(positive_roots); root_index inverts it
    and simple_indices holds the index of each simple root.
    """

    def __init__(self, cartan_type: str, rank: int):
        cartan_type = cartan_type.upper()
        check_type(cartan_type, rank)
        self.cartan_type = cartan_type
        self.rank = rank
        self.simple_roots, self.ambient_dim = _simple_root_vectors(cartan_type, rank)
        self.gram = tuple(
            tuple(int(_dot(a, b)) for b in self.simple_roots)
            for a in self.simple_roots
        )
        g = self.gram
        self.cartan = tuple(
            tuple(2 * g[i][j] // g[j][j] for j in range(rank)) for i in range(rank)
        )
        self._cartan_inv = _invert(self.cartan)
        self._build_roots()
        self.rho = tuple(
            Fraction(sum(col), 2) for col in zip(*self.positive_roots)
        )
        self._validate()

    # -- construction -----------------------------------------------------

    def _reflect(self, i: int, r: tuple) -> tuple:
        # s_i(r) = r - <r, alpha_i^vee> alpha_i changes coordinate i only
        out = list(r)
        out[i] -= sum(c * row[i] for c, row in zip(r, self.cartan))
        return tuple(out)

    def _build_roots(self) -> None:
        n = self.rank
        simple = [tuple(int(i == j) for j in range(n)) for i in range(n)]
        seen = set(simple)
        frontier = simple
        while frontier:
            nxt = []
            for r in frontier:
                for i in range(n):
                    img = self._reflect(i, r)
                    if img not in seen:
                        seen.add(img)
                        nxt.append(img)
            frontier = nxt
        pos = [r for r in seen if all(c >= 0 for c in r)]
        pos.sort(key=lambda r: (sum(r), r))
        self.positive_roots = tuple(pos)
        self.roots = self.positive_roots + tuple(
            tuple(-c for c in r) for r in pos
        )
        self.root_index = {r: k for k, r in enumerate(self.roots)}
        self.simple_indices = tuple(self.root_index[r] for r in simple)
        self._identity = WeylElement(self, tuple(range(len(self.roots))))
        self._reflections = tuple(
            WeylElement(
                self, tuple(self.root_index[self._reflect(i, r)] for r in self.roots)
            )
            for i in range(n)
        )

    def _validate(self) -> None:
        n = self.rank
        for i in range(n):
            for j in range(n):
                c = self.cartan[i][j]
                if 2 * self.gram[i][j] != c * self.gram[j][j]:
                    raise AssertionError("non-integral Cartan pairing")
                if i == j and c != 2:
                    raise AssertionError("Cartan diagonal is not 2")
                if i != j and c > 0:
                    raise AssertionError("positive off-diagonal Cartan entry")
        if len(self.positive_roots) != _POSITIVE_COUNT[self.cartan_type](n):
            raise AssertionError("positive root count mismatch")
        for i in range(n):
            if 2 * _dot(self.gram[i], self.rho) != self.gram[i][i]:
                raise AssertionError("rho is not the sum of fundamental weights")

    # -- coordinates --------------------------------------------------------

    def form(self, u, v) -> Fraction:
        """Invariant form of two vectors given in simple-root coordinates."""
        g = self.gram
        n = self.rank
        return sum(
            (u[i] * g[i][j] * v[j] for i in range(n) for j in range(n)),
            Fraction(0),
        )

    def weight_from_fundamental(self, coords) -> Vec:
        """Simple-root coordinates of sum_i coords[i] * omega_i.

        omega_i is row i of the inverse Cartan matrix, since
        <omega_i, alpha_k^vee> = delta_ik.
        """
        inv = self._cartan_inv
        return tuple(
            sum((c * inv[i][j] for i, c in enumerate(coords)), Fraction(0))
            for j in range(self.rank)
        )

    # -- the standard realization (output edge) -----------------------------

    def from_simple_coords(self, coords) -> Vec:
        """The ambient vector with the given simple-root coordinates."""
        return tuple(
            _dot(coords, col) for col in zip(*self.simple_roots)
        )

    # -- identity and hashing ---------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RootSystem)
            and self.cartan_type == other.cartan_type
            and self.rank == other.rank
        )

    def __hash__(self) -> int:
        return hash((self.cartan_type, self.rank))

    def __repr__(self) -> str:
        return f"RootSystem({self.cartan_type}{self.rank})"

    # -- Weyl elements -----------------------------------------------------

    def identity_element(self) -> "WeylElement":
        return self._identity

    def simple_reflection(self, i: int) -> "WeylElement":
        return self._reflections[i]

    def from_word(self, word: Iterable[int]) -> "WeylElement":
        w = self._identity
        for i in word:
            w = w * self._reflections[i]
        return w

    def from_simple_images(self, images) -> "WeylElement":
        """The element sending simple root j to the root images[j].

        images[j] is in simple-root coordinates; the images must be those of
        a Weyl element, or some root has no image among the roots.
        """
        n = self.rank
        return WeylElement(self, tuple(
            self.root_index[tuple(
                sum(c * img[i] for c, img in zip(r, images)) for i in range(n)
            )]
            for r in self.roots
        ))


@lru_cache(maxsize=None)
def build_root_system(cartan_type: str, rank: int) -> RootSystem:
    """Construct (and cache) the root system of the given type and rank."""
    return RootSystem(cartan_type, rank)


def _invert(mat) -> tuple[tuple[Fraction, ...], ...]:
    """The inverse over Q by Gauss-Jordan; ValueError when mat is singular."""
    n = len(mat)
    rows = [
        [Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
        for i, row in enumerate(mat)
    ]
    for col in range(n):
        piv = next((i for i in range(col, n) if rows[i][col]), None)
        if piv is None:
            raise ValueError("singular matrix")
        rows[col], rows[piv] = rows[piv], rows[col]
        p = rows[col][col]
        prow = rows[col] = [x / p for x in rows[col]]
        for i, row in enumerate(rows):
            if (f := row[col]) and i != col:
                rows[i] = [x - f * y if y else x for x, y in zip(row, prow)]
    return tuple(tuple(row[n:]) for row in rows)


@lru_cache(maxsize=None)
def scaled_lam_rho(system: RootSystem, lam: Vec) -> tuple[tuple[int, ...], int]:
    """(d * (lam + rho), d) with d the least denominator making it integral.

    lam is in simple-root coordinates; d > 0, so signs are those of lam + rho.
    """
    lam_rho = [a + r for a, r in zip(lam, system.rho)]
    d = lcm(*(x.denominator for x in lam_rho))
    return tuple(int(x * d) for x in lam_rho), d


@dataclass(frozen=True)
class WeylElement:
    """A Weyl group element, carried as the permutation it induces on roots.

    perm[k] is the index of w(roots[k]) in system.roots.  Equality and
    hashing use the permutation only.
    """

    system: RootSystem = field(repr=False, compare=False)
    perm: tuple[int, ...] = ()

    def __mul__(self, other: "WeylElement") -> "WeylElement":
        return WeylElement(self.system, tuple(map(self.perm.__getitem__, other.perm)))

    def inverse(self) -> "WeylElement":
        inv = [0] * len(self.perm)
        for k, p in enumerate(self.perm):
            inv[p] = k
        return WeylElement(self.system, tuple(inv))

    @cached_property
    def matrix(self) -> tuple[tuple[int, ...], ...]:
        """matrix[i][j] is the coefficient of alpha_i in w(alpha_j)."""
        roots = self.system.roots
        cols = [roots[self.perm[s]] for s in self.system.simple_indices]
        return tuple(zip(*cols))

    def apply_coords(self, coords) -> tuple:
        """Action on a vector given in simple-root coordinates."""
        return tuple(
            sum(m * c for m, c in zip(row, coords)) for row in self.matrix
        )

    def is_identity(self) -> bool:
        return all(self.perm[s] == s for s in self.system.simple_indices)

    def inversions(self) -> list[int]:
        """Indices of the positive roots -w(beta) with beta > 0, w(beta) < 0.

        These are the positive roots gamma with w^-1(gamma) negative.
        """
        mask = self.inversion_mask
        return [k for k in range(mask.bit_length()) if mask >> k & 1]

    @cached_property
    def inversion_mask(self) -> int:
        """The inversion set as a bitmask: bit k for positive root k."""
        npos = len(self.system.positive_roots)
        return sum(1 << (p - npos) for p in self.perm[:npos] if p >= npos)

    def length(self) -> int:
        return self.inversion_mask.bit_count()

    def reduced_word(self) -> tuple[int, ...]:
        """A reduced word recovered by the descent algorithm."""
        w = self
        letters: list[int] = []
        n = self.system.rank
        while not w.is_identity():
            j = next(j for j in range(n) if w.descends_right(j))
            letters.append(j)
            w = w * self.system.simple_reflection(j)
        return tuple(reversed(letters))

    def descends_right(self, j: int) -> bool:
        """True iff l(w s_j) < l(w), i.e. w(alpha_j) is negative."""
        sys = self.system
        return self.perm[sys.simple_indices[j]] >= len(sys.positive_roots)


@dataclass(frozen=True)
class Parabolic:
    """A standard parabolic subgroup, indexed by its Levi simple-root subset."""

    system: RootSystem = field(repr=False)
    levi: frozenset[int] = frozenset()

    def __post_init__(self):
        for i in self.levi:
            if not 0 <= i < self.system.rank:
                raise ValueError(f"simple root index {i} out of range")

    def __le__(self, other: "Parabolic") -> bool:
        return self.levi <= other.levi

    def __lt__(self, other: "Parabolic") -> bool:
        return self.levi < other.levi

    def __repr__(self) -> str:
        return f"Parabolic({self.system.cartan_type}{self.system.rank}, " \
               f"{{{','.join(str(i + 1) for i in sorted(self.levi))}}})"

    @property
    def is_full(self) -> bool:
        return len(self.levi) == self.system.rank

    @property
    def restricted_indices(self) -> tuple[int, ...]:
        """Simple-root indices outside the Levi (split restricted simple roots)."""
        return tuple(
            i for i in range(self.system.rank) if i not in self.levi
        )

    def levi_positive_indices(self) -> list[int]:
        """Indices of positive roots supported on the Levi subset."""
        mask = _levi_mask(self.system, self.levi)
        return [k for k in range(mask.bit_length()) if mask >> k & 1]


@lru_cache(maxsize=None)
def _levi_mask(system: RootSystem, levi: frozenset) -> int:
    """The positive roots supported on the Levi subset, as a bitmask."""
    return sum(
        1 << k
        for k, coords in enumerate(system.positive_roots)
        if all(c == 0 or i in levi for i, c in enumerate(coords))
    )


def parabolic(system: RootSystem, levi: Iterable[int]) -> Parabolic:
    return Parabolic(system, frozenset(levi))


def full_parabolic(system: RootSystem) -> Parabolic:
    return Parabolic(system, frozenset(range(system.rank)))


def dim_nilradical(P: Parabolic, Q: Optional[Parabolic] = None) -> int:
    """dim n_P^Q = number of positive roots of Q's Levi outside P's Levi."""
    if Q is None:
        Q = full_parabolic(P.system)
    if not P.levi <= Q.levi:
        raise ValueError("P is not contained in Q")
    outside = _levi_mask(P.system, Q.levi) & ~_levi_mask(P.system, P.levi)
    return outside.bit_count()


def codim_and_perversity(P: Parabolic, kind: str) -> tuple[int, int]:
    """Stratum codimension and its middle perversity value.

    kind "m" is the lower middle perversity, "n" the upper; both evaluate the
    floor formulas at k = codim = dim n_P + #(restricted simple roots).
    """
    if P.is_full:
        raise ValueError("the open stratum carries no perversity value")
    return _codim_and_perversity(P.system, P.levi, kind)


@lru_cache(maxsize=None)
def _codim_and_perversity(system: RootSystem, levi: frozenset, kind: str):
    codim = dim_nilradical(Parabolic(system, levi)) + system.rank - len(levi)
    if kind == "m":
        return codim, (codim - 2) // 2
    if kind == "n":
        return codim, (codim - 1) // 2
    raise ValueError(f"unknown perversity kind {kind!r}")


def is_min_coset_rep(w: WeylElement, P: Parabolic) -> bool:
    """True iff w^-1 maps every Levi simple root of P to a positive root."""
    return _first_negative_column(w.inverse(), P.levi) is None


def _first_negative_column(inv: WeylElement, levi) -> Optional[int]:
    """The least i in levi with inv(alpha_i) negative, or None."""
    return next((i for i in sorted(levi) if inv.descends_right(i)), None)


def enumerate_min_coset_reps(P: Parabolic) -> Iterator[WeylElement]:
    """Stream the minimal coset representatives for P in nondecreasing length.

    Breadth-first search over right multiplication with ascent filtering;
    elements are deduplicated by root permutation and yielded, per length, in
    lexicographic order of their (canonical, reduced) words.
    """
    sys = P.system
    ident = sys.identity_element()
    seen = {ident.perm}
    frontier = [(ident, ident)]  # (w, w inverse)
    while frontier:
        yield from (w for w, _ in frontier)
        nxt = []
        for w, winv in frontier:
            for j, s in enumerate(sys._reflections):
                if w.descends_right(j):
                    continue
                w2 = w * s
                if w2.perm in seen:
                    continue
                w2inv = s * winv
                if _first_negative_column(w2inv, P.levi) is not None:
                    continue
                seen.add(w2.perm)
                nxt.append((w2, w2inv))
        frontier = nxt


def factorize(
    w: WeylElement, P: Parabolic, Q: Parabolic
) -> tuple[WeylElement, WeylElement]:
    """Split a minimal representative for P as w = u * v across Q.

    v is the minimal representative for Q in the same W(Levi Q)-coset as w and
    u lies in the Levi Weyl group of Q; lengths add: l(w) = l(u) + l(v).
    """
    if not P.levi <= Q.levi:
        raise ValueError("P is not contained in Q")
    vinv = w.inverse()
    if _first_negative_column(vinv, P.levi) is not None:
        raise ValueError("w is not a minimal coset representative for P")
    sys = w.system
    v = w
    u = sys.identity_element()
    while (i := _first_negative_column(vinv, Q.levi)) is not None:
        s = sys.simple_reflection(i)
        v = s * v
        vinv = vinv * s
        u = u * s
    return u, v


def bidegree(w: WeylElement, Q: Parabolic) -> int:
    """Number of inversion roots of w lying in the nilradical of Q."""
    return (w.inversion_mask & ~_levi_mask(Q.system, Q.levi)).bit_count()


def weyl_group_order(system: RootSystem, levi: Iterable[int]) -> int:
    """Order of the Weyl group generated by the given simple reflections.

    The product over the Dynkin components of the subset: (k+1)! for an A_k
    component and 2^k k! for the component holding the last node of B or C.
    """
    levi, order, k = set(levi), 1, 0
    last = system.cartan_type != "A"  # in the component of the last node
    for i in reversed(range(system.rank)):
        if i not in levi:
            k, last = 0, False
            continue
        k += 1
        order *= 2 * k if last else k + 1
    return order


@lru_cache(maxsize=None)
def longest_levi_element(system: RootSystem, levi: frozenset[int]) -> WeylElement:
    """Longest element of the Weyl group generated by the given simple subset."""
    v = system.rho
    w = system.identity_element()
    while True:
        i = next(
            (i for i in sorted(levi) if _dot(system.gram[i], v) > 0), None
        )
        if i is None:
            return w
        s = system.simple_reflection(i)
        v = s.apply_coords(v)
        w = s * w


@lru_cache(maxsize=None)
def levi_split(system: RootSystem, levi: frozenset[int]):
    """The matrices M = G_LL^-1 G_LR and S = G_RR - G_RL M of a Levi.

    G is the Gram matrix, L the sorted Levi indices and R the sorted rest.
    For v with simple-root coordinates c, the orthogonal projection of v
    onto the Levi root span has coordinates c_L + M c_R on L (and 0 on R),
    and the form of v's component orthogonal to that span with alpha_r,
    r in R, is (S c_R)_r.
    """
    g = system.gram
    lev = sorted(levi)
    rest = [i for i in range(system.rank) if i not in levi]
    cols = [[g[l][c] for l in lev] for c in rest]
    inv = _invert([[g[a][b] for b in lev] for a in lev])
    m = tuple(tuple(_dot(row, col) for col in cols) for row in inv)
    s = tuple(
        tuple(
            g[r][c] - sum((g[r][l] * row[k] for l, row in zip(lev, m)), Fraction(0))
            for k, c in enumerate(rest)
        )
        for r in rest
    )
    return m, s


def levi_part(system: RootSystem, levi: frozenset, v) -> tuple:
    """Simple-root coordinates of the projection of v onto the Levi root span.

    v is in simple-root coordinates; the projection is orthogonal for the
    invariant form.
    """
    m, _ = levi_split(system, levi)
    rest = [v[j] for j in range(system.rank) if j not in levi]
    out = [Fraction(0)] * system.rank
    for l, row in zip(sorted(levi), m):
        out[l] = v[l] + sum((x * c for x, c in zip(row, rest)), Fraction(0))
    return tuple(out)
