"""Exact root-system data and Weyl-group combinatorics.

Root systems are realized with rational coordinates in a fixed ambient space
(standard orthonormal-coordinate realizations per type); the invariant form is
the ambient dot product.  Weyl elements are canonicalized by their integer
action matrix on the simple-root basis; reduced words are recovered on demand.

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
    "D": lambda n: n * (n - 1),
    "E": lambda n: {6: 36, 7: 63, 8: 120}[n],
    "F": lambda n: 24,
    "G": lambda n: 6,
}

_WEYL_ORDER = {
    "A": lambda n: _factorial(n + 1),
    "B": lambda n: 2**n * _factorial(n),
    "C": lambda n: 2**n * _factorial(n),
    "D": lambda n: 2 ** (n - 1) * _factorial(n),
    "E": lambda n: {6: 51840, 7: 2903040, 8: 696729600}[n],
    "F": lambda n: 1152,
    "G": lambda n: 12,
}

_VALID_RANKS = {
    "A": lambda n: n >= 1,
    "B": lambda n: n >= 2,
    "C": lambda n: n >= 2,
    "D": lambda n: n >= 3,
    "E": lambda n: n in (6, 7, 8),
    "F": lambda n: n == 4,
    "G": lambda n: n == 2,
}


def _factorial(n: int) -> int:
    out = 1
    for k in range(2, n + 1):
        out *= k
    return out


def _frac_vec(entries: Iterable) -> Vec:
    return tuple(Fraction(x) for x in entries)


def _unit(dim: int, i: int) -> Vec:
    return _frac_vec(1 if k == i else 0 for k in range(dim))


def _vec_add(u: Vec, v: Vec) -> Vec:
    return tuple(a + b for a, b in zip(u, v))


def _vec_sub(u: Vec, v: Vec) -> Vec:
    return tuple(a - b for a, b in zip(u, v))


def _vec_scale(c: Fraction, v: Vec) -> Vec:
    return tuple(c * a for a in v)


def _dot(u: Vec, v: Vec) -> Fraction:
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def _simple_root_vectors(cartan_type: str, rank: int) -> tuple[list[Vec], int]:
    """Simple roots in the standard coordinate realization; returns (roots, dim)."""
    n = rank
    if cartan_type == "A":
        dim = n + 1
        roots = [_vec_sub(_unit(dim, i), _unit(dim, i + 1)) for i in range(n)]
    elif cartan_type == "B":
        dim = n
        roots = [_vec_sub(_unit(dim, i), _unit(dim, i + 1)) for i in range(n - 1)]
        roots.append(_unit(dim, n - 1))
    elif cartan_type == "C":
        dim = n
        roots = [_vec_sub(_unit(dim, i), _unit(dim, i + 1)) for i in range(n - 1)]
        roots.append(_vec_scale(Fraction(2), _unit(dim, n - 1)))
    elif cartan_type == "D":
        dim = n
        roots = [_vec_sub(_unit(dim, i), _unit(dim, i + 1)) for i in range(n - 1)]
        roots.append(_vec_add(_unit(dim, n - 2), _unit(dim, n - 1)))
    elif cartan_type == "G":
        dim = 3
        roots = [
            _vec_sub(_unit(dim, 0), _unit(dim, 1)),
            _frac_vec([-2, 1, 1]),
        ]
    elif cartan_type == "F":
        dim = 4
        half = Fraction(1, 2)
        roots = [
            _vec_sub(_unit(dim, 1), _unit(dim, 2)),
            _vec_sub(_unit(dim, 2), _unit(dim, 3)),
            _unit(dim, 3),
            (half, -half, -half, -half),
        ]
    elif cartan_type == "E":
        dim = 8
        half = Fraction(1, 2)
        a1 = (half, -half, -half, -half, -half, -half, -half, half)
        a2 = _vec_add(_unit(dim, 0), _unit(dim, 1))
        rest = [_vec_sub(_unit(dim, i - 2), _unit(dim, i - 3)) for i in range(3, 9)]
        roots = [a1, a2] + rest
        roots = roots[:n]
    else:
        raise ValueError(f"unknown Cartan type {cartan_type!r}")
    return roots, dim


class InvalidTypeError(ValueError):
    pass


class RootSystem:
    """A finite irreducible root system with exact rational data.

    Attributes mirror the classical package of invariants: simple roots,
    positive roots (ordered by height then lexicographically), half-sum rho,
    fundamental weights, and the Weyl group order.
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
        self.simple_roots = tuple(self.simple_roots)
        self._gram = tuple(
            tuple(_dot(a, b) for b in self.simple_roots) for a in self.simple_roots
        )
        self._gram_inv = _invert(self._gram)
        self.cartan = tuple(
            tuple(
                2 * _dot(a, b) / _dot(b, b) for b in self.simple_roots
            )
            for a in self.simple_roots
        )
        self._build_roots()
        self.rho = self._half_sum()
        self.fundamental_weights = self._fundamental_weights()
        self.weyl_order = _WEYL_ORDER[cartan_type](rank)
        self._reflections = tuple(
            self._simple_reflection_matrix(i) for i in range(rank)
        )
        self._validate()

    # -- construction -----------------------------------------------------

    def _build_roots(self) -> None:
        seen = set(self.simple_roots)
        frontier = list(self.simple_roots)
        while frontier:
            nxt = []
            for r in frontier:
                for a in self.simple_roots:
                    img = self.reflect(r, a)
                    if img not in seen:
                        seen.add(img)
                        nxt.append(img)
            frontier = nxt
        coords = {r: self.simple_coords(r) for r in seen}
        pos = [r for r in seen if all(c >= 0 for c in coords[r])]
        pos.sort(key=lambda r: (sum(coords[r]), coords[r]))
        self.positive_roots = tuple(pos)
        self.positive_coords = tuple(
            tuple(int(c) for c in coords[r]) for r in pos
        )
        self._positive_coord_index = {
            c: i for i, c in enumerate(self.positive_coords)
        }

    def _half_sum(self) -> Vec:
        total = tuple(Fraction(0) for _ in range(self.ambient_dim))
        for r in self.positive_roots:
            total = _vec_add(total, r)
        return _vec_scale(Fraction(1, 2), total)

    def _fundamental_weights(self) -> tuple[Vec, ...]:
        # solve <w_i, a_k^vee> = delta_ik inside the span of the simple roots
        n = self.rank
        mat = tuple(
            tuple(
                2 * _dot(self.simple_roots[j], self.simple_roots[k])
                / _dot(self.simple_roots[k], self.simple_roots[k])
                for j in range(n)
            )
            for k in range(n)
        )
        inv = _invert(mat)
        out = []
        for i in range(n):
            coeffs = tuple(inv[j][i] for j in range(n))
            w = tuple(Fraction(0) for _ in range(self.ambient_dim))
            for c, a in zip(coeffs, self.simple_roots):
                w = _vec_add(w, _vec_scale(c, a))
            out.append(w)
        return tuple(out)

    def _simple_reflection_matrix(self, i: int) -> tuple[tuple[int, ...], ...]:
        n = self.rank
        rows = [[1 if r == c else 0 for c in range(n)] for r in range(n)]
        for j in range(n):
            # s_i(a_j) = a_j - <a_j, a_i^vee> a_i; the diagonal becomes -1
            rows[i][j] -= int(self.cartan[j][i])
        return tuple(tuple(r) for r in rows)

    def _validate(self) -> None:
        n = self.rank
        for i in range(n):
            for j in range(n):
                c = self.cartan[i][j]
                if c != int(c):
                    raise AssertionError("non-integral Cartan pairing")
                if i == j and c != 2:
                    raise AssertionError("Cartan diagonal is not 2")
                if i != j and c > 0:
                    raise AssertionError("positive off-diagonal Cartan entry")
        if len(self.positive_roots) != _POSITIVE_COUNT[self.cartan_type](n):
            raise AssertionError("positive root count mismatch")
        for a in self.simple_roots:
            if 2 * _dot(self.rho, a) / _dot(a, a) != 1:
                raise AssertionError("rho is not the sum of fundamental weights")

    # -- basic linear algebra over the root span --------------------------

    def simple_coords(self, v: Vec) -> Vec:
        """Coefficients of the root-span part of v in the simple basis."""
        rhs = tuple(_dot(v, a) for a in self.simple_roots)
        return tuple(
            sum((self._gram_inv[i][j] * rhs[j] for j in range(self.rank)),
                Fraction(0))
            for i in range(self.rank)
        )

    def from_simple_coords(self, coords) -> Vec:
        out = tuple(Fraction(0) for _ in range(self.ambient_dim))
        for c, a in zip(coords, self.simple_roots):
            out = _vec_add(out, _vec_scale(Fraction(c), a))
        return out

    def weight_from_fundamental(self, coords) -> Vec:
        out = tuple(Fraction(0) for _ in range(self.ambient_dim))
        for c, w in zip(coords, self.fundamental_weights):
            out = _vec_add(out, _vec_scale(Fraction(c), w))
        return out

    def reflect(self, v: Vec, alpha: Vec) -> Vec:
        c = 2 * _dot(v, alpha) / _dot(alpha, alpha)
        return _vec_sub(v, _vec_scale(c, alpha))

    def levi_projection(self, v: Vec, levi: frozenset[int]) -> Vec:
        """Orthogonal projection of v onto the span of the Levi simple roots."""
        basis = [self.simple_roots[i] for i in sorted(levi)]
        if not basis:
            return tuple(Fraction(0) for _ in range(self.ambient_dim))
        gram = tuple(tuple(_dot(a, b) for b in basis) for a in basis)
        coeffs = solve(gram, [[_dot(v, a)] for a in basis])
        out = tuple(Fraction(0) for _ in range(self.ambient_dim))
        for (c,), a in zip(coeffs, basis):
            out = _vec_add(out, _vec_scale(c, a))
        return out

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
        perp = _vec_sub(v, span)
        img = sys.from_simple_coords(self.apply_coords(coords))
        return _vec_add(img, perp)

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
        for idx, coords in enumerate(self.system.positive_coords):
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
        for idx, coords in enumerate(self.system.positive_coords):
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
    inv = w.inverse()
    n = w.system.rank
    for i in P.levi:
        if any(inv.matrix[r][i] < 0 for r in range(n)):
            return False
    return True


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
                ok = True
                for i in P.levi:
                    if any(w2inv.matrix[r][i] < 0 for r in range(n)):
                        ok = False
                        break
                if not ok:
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
    if not is_min_coset_rep(w, P):
        raise ValueError("w is not a minimal coset representative for P")
    sys = w.system
    n = sys.rank
    v = w
    u = sys.identity_element()
    while True:
        vinv = v.inverse()
        i = next(
            (
                i for i in sorted(Q.levi)
                if any(vinv.matrix[r][i] < 0 for r in range(n))
            ),
            None,
        )
        if i is None:
            break
        v = sys.simple_reflection(i) * v
        u = u * sys.simple_reflection(i)
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
            (
                i for i in sorted(levi)
                if _dot(v, system.simple_roots[i]) > 0
            ),
            None,
        )
        if i is None:
            return w
        v = system.reflect(v, system.simple_roots[i])
        w = system.simple_reflection(i) * w
