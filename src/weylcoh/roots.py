"""Exact root-system data and Weyl-group combinatorics.

Roots and weights are carried in simple-root coordinates.  Everything is
derived from the integer Gram matrix of the simple roots and from the
Cartan matrix: the positive roots, rho, the fundamental weights and the
Levi splits that project a weight onto a Levi root span.  The standard
orthonormal-coordinate realization of types A, B and C is kept only as the
output edge (simple_roots, from_simple_coords, simple_coords and
WeylElement.apply).  Weyl elements are canonicalized by their integer
action matrix on the simple-root basis; reduced words are recovered on
demand.

All groups are treated as split over Q: rational, real and complex roots
coincide and the restricted simple roots of a parabolic are in bijection with
the simple roots outside its Levi subset.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Iterator, Optional

from .snf import solve

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


class RootSystem:
    """A finite irreducible root system of type A, B or C with exact data.

    gram is the integer matrix of the invariant form on the simple roots and
    cartan[i][j] = <alpha_i, alpha_j^vee>.  positive_roots are integer
    simple-root coordinates, ordered by height then lexicographically; rho
    is the half-sum of the positive roots in the same coordinates.
    """

    def __init__(self, cartan_type: str, rank: int):
        cartan_type = cartan_type.upper()
        if cartan_type not in _VALID_RANKS or not _VALID_RANKS[cartan_type](rank):
            raise InvalidTypeError(
                f"invalid type/rank pair ({cartan_type!r}, {rank})"
            )
        self.cartan_type = cartan_type
        self.rank = rank
        self.simple_roots, self.ambient_dim = _simple_root_vectors(cartan_type, rank)
        self.gram = tuple(
            tuple(int(_dot(a, b)) for b in self.simple_roots)
            for a in self.simple_roots
        )
        self._gram_inv = _invert(self.gram)
        g = self.gram
        self.cartan = tuple(
            tuple(2 * g[i][j] // g[j][j] for j in range(rank)) for i in range(rank)
        )
        self._cartan_inv = _invert(self.cartan)
        self._reflections = tuple(
            self._simple_reflection_matrix(i) for i in range(rank)
        )
        self._build_roots()
        self.rho = tuple(
            Fraction(sum(col), 2) for col in zip(*self.positive_roots)
        )
        self._validate()

    # -- construction -----------------------------------------------------

    def _build_roots(self) -> None:
        n = self.rank
        seen = {tuple(int(i == j) for j in range(n)) for i in range(n)}
        frontier = list(seen)
        reflections = [self.simple_reflection(i) for i in range(n)]
        while frontier:
            nxt = []
            for r in frontier:
                for s in reflections:
                    img = s.apply_coords(r)
                    if img not in seen:
                        seen.add(img)
                        nxt.append(img)
            frontier = nxt
        pos = [r for r in seen if all(c >= 0 for c in r)]
        pos.sort(key=lambda r: (sum(r), r))
        self.positive_roots = tuple(pos)

    def _simple_reflection_matrix(self, i: int) -> tuple[tuple[int, ...], ...]:
        n = self.rank
        rows = [[1 if r == c else 0 for c in range(n)] for r in range(n)]
        for j in range(n):
            # s_i(a_j) = a_j - <a_j, a_i^vee> a_i; the diagonal becomes -1
            rows[i][j] -= self.cartan[j][i]
        return tuple(tuple(r) for r in rows)

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

    def simple_coords(self, v: Vec) -> Vec:
        """Coefficients of the root-span part of ambient v in the simple basis."""
        rhs = tuple(_dot(v, a) for a in self.simple_roots)
        return tuple(
            sum((self._gram_inv[i][j] * rhs[j] for j in range(self.rank)),
                Fraction(0))
            for i in range(self.rank)
        )

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
        n = self.rank
        mat = tuple(
            tuple(1 if r == c else 0 for c in range(n)) for r in range(n)
        )
        return WeylElement(self, mat, word=())

    def simple_reflection(self, i: int) -> "WeylElement":
        return WeylElement(self, self._reflections[i], word=(i,))

    def from_word(self, word: Iterable[int]) -> "WeylElement":
        w = self.identity_element()
        for i in word:
            w = w * self.simple_reflection(i)
        return w


@lru_cache(maxsize=None)
def build_root_system(cartan_type: str, rank: int) -> RootSystem:
    """Construct (and cache) the root system of the given type and rank."""
    return RootSystem(cartan_type, rank)


def _invert(mat) -> tuple[tuple[Fraction, ...], ...]:
    n = len(mat)
    return solve(mat, [[int(i == j) for j in range(n)] for i in range(n)])


@dataclass(frozen=True)
class WeylElement:
    """A Weyl group element, canonicalized by its action on the simple basis.

    matrix[i][j] is the coefficient of alpha_i in w(alpha_j).  Equality and
    hashing use the matrix only; the word is advisory and not necessarily
    reduced unless produced by reduced_word.
    """

    system: RootSystem = field(repr=False, compare=False)
    matrix: tuple[tuple[int, ...], ...] = ()
    word: Optional[tuple[int, ...]] = field(default=None, compare=False)

    def __hash__(self) -> int:
        return hash(self.matrix)

    def __mul__(self, other: "WeylElement") -> "WeylElement":
        a, b = self.matrix, other.matrix
        n = len(a)
        bt = list(zip(*b))
        mat = tuple(
            tuple(sum(a[r][k] * b[k][c] for k in range(n)) for c in range(n))
            for r in range(n)
        )
        word = None
        if self.word is not None and other.word is not None:
            word = self.word + other.word
        return WeylElement(self.system, mat, word=word)

    def inverse(self) -> "WeylElement":
        inv = _invert(self.matrix)
        mat = tuple(tuple(int(x) for x in row) for row in inv)
        word = tuple(reversed(self.word)) if self.word is not None else None
        return WeylElement(self.system, mat, word=word)

    def apply_coords(self, coords) -> tuple:
        """Action on a vector given in simple-root coordinates."""
        n = len(self.matrix)
        return tuple(
            sum(self.matrix[r][c] * coords[c] for c in range(n))
            for r in range(n)
        )

    def apply(self, v: Vec) -> Vec:
        """Action on an ambient vector (fixes the orthogonal complement)."""
        sys = self.system
        coords = sys.simple_coords(v)
        span = sys.from_simple_coords(coords)
        img = sys.from_simple_coords(self.apply_coords(coords))
        return tuple(x - y + z for x, y, z in zip(v, span, img))

    def is_identity(self) -> bool:
        n = len(self.matrix)
        return all(
            self.matrix[r][c] == (1 if r == c else 0)
            for r in range(n)
            for c in range(n)
        )

    def inversions(self) -> list[int]:
        """Indices of positive roots gamma with w^-1(gamma) negative."""
        inv = self.inverse()
        out = []
        for idx, coords in enumerate(self.system.positive_roots):
            img = inv.apply_coords(coords)
            if any(c < 0 for c in img):
                out.append(idx)
        return out

    def length(self) -> int:
        return len(self.inversions())

    def reduced_word(self) -> tuple[int, ...]:
        """A reduced word recovered by the descent algorithm."""
        w = self
        letters: list[int] = []
        n = len(self.matrix)
        while not w.is_identity():
            j = next(
                j for j in range(n)
                if any(w.matrix[r][j] < 0 for r in range(n))
            )
            letters.append(j)
            w = w * self.system.simple_reflection(j)
        return tuple(reversed(letters))

    def descends_right(self, j: int) -> bool:
        """True iff l(w s_j) < l(w), i.e. w(alpha_j) is negative."""
        return any(row[j] < 0 for row in self.matrix)


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
        out = []
        for idx, coords in enumerate(self.system.positive_roots):
            if all(c == 0 or i in self.levi for i, c in enumerate(coords)):
                out.append(idx)
        return out


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
    return len(Q.levi_positive_indices()) - len(P.levi_positive_indices())


def codim_and_perversity(P: Parabolic, kind: str) -> tuple[int, int]:
    """Stratum codimension and its middle perversity value.

    kind "m" is the lower middle perversity, "n" the upper; both evaluate the
    floor formulas at k = codim = dim n_P + #(restricted simple roots).
    """
    if P.is_full:
        raise ValueError("the open stratum carries no perversity value")
    codim = dim_nilradical(P) + len(P.restricted_indices)
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
    rows = inv.matrix
    return next((i for i in sorted(levi) if any(r[i] < 0 for r in rows)), None)


def enumerate_min_coset_reps(
    P: Parabolic, max_length: Optional[int] = None
) -> Iterator[WeylElement]:
    """Stream the minimal coset representatives for P in nondecreasing length.

    Breadth-first search over right multiplication with ascent filtering;
    elements are deduplicated by action matrix and yielded, per length, in
    lexicographic order of their (canonical, reduced) words.
    """
    sys = P.system
    n = sys.rank
    ident = sys.identity_element()
    seen = {ident.matrix}
    frontier = [(ident, ident)]  # (w, w inverse)
    length = 0
    while frontier:
        for w, _ in frontier:
            yield w
        if max_length is not None and length >= max_length:
            return
        nxt = []
        for w, winv in frontier:
            for j in range(n):
                if w.descends_right(j):
                    continue
                w2 = w * sys.simple_reflection(j)
                if w2.matrix in seen:
                    continue
                w2inv = sys.simple_reflection(j) * winv
                if _first_negative_column(w2inv, P.levi) is not None:
                    continue
                seen.add(w2.matrix)
                nxt.append((w2, w2inv))
        frontier = nxt
        length += 1


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
    levi_pos = set(Q.levi_positive_indices())
    return sum(1 for idx in w.inversions() if idx not in levi_pos)


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
    m = solve([[g[a][b] for b in lev] for a in lev],
              [[g[a][b] for b in rest] for a in lev])
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
