"""End-to-end acceptance gate: one test per numbered criterion.

Each test delegates to the registered verification suite covering the
criterion and fails with the offending check names and values.  Criterion 5
is the opt-in exhaustive enumeration (WEYLCOH_EXHAUSTIVE=1).

Criterion 4 carries one derived assertion in place of an all-green
requirement.  The footnote-sp20 PAPER check ``sp20/first-configuration-m``
keeps the claim as transcribed: the Sp20 element realizes the rank-4
facets-and-edge-star picture under the lower middle perversity too.  Under
the stated base cutoff "4 or 4 1/2" and the engine's cutoff convention the
claim cannot hold.  The test requires every other check of the suite to
pass, and asserts that the verdicts under both perversities equal the ones
worked out here from the word, without the engine's cutoff code.
"""

import itertools
from fractions import Fraction
from math import floor, inf

import pytest

from weylcoh.posetmod import (
    all_or_nothing,
    ic_module,
    local_complex,
    subsets,
    truncation_marks,
)
from weylcoh.suites import (
    _SP20_LEVI,
    _SP20_WORD,
    _is_first_config_marks,
    _sp20_element,
    run_suite,
)
from weylcoh.threads import ic_cutoffs


def _assert_suite(name):
    result = run_suite(name)
    bad = [c for c in result.checks if not c.passed]
    assert not bad, "; ".join(
        f"{c.name}: expected {c.expected}, got {c.got}" for c in bad
    )
    return result


def test_c01_rank2_truncation_values():
    _assert_suite("rank2-table")


def test_c02_rank3_truncation_values_all_relabelings():
    _assert_suite("rank3-table")


def test_c03_rank4_facets_and_edge_star():
    # direct build, independent of the suite: cut the four facets and the
    # three edges through one vertex, read off the base local cohomology
    idx = (0, 1, 2, 3)
    marked = {frozenset(t) for t in ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3))}
    marked |= {frozenset({0, k}) for k in (1, 2, 3)}
    cuts = {
        a: (-inf if a in marked else inf)
        for a in subsets(idx)
        if a != frozenset(idx)
    }
    cx, _ = local_complex(ic_module(idx, cuts), frozenset())
    assert repr(cx.cohomology()) == "Z[-1] + Z[-2]"
    _assert_suite("rank4-config")


# -- criterion 4: the Sp20 footnote element, worked out from its word ------
#
# C10 acts on Z^10 by signed permutations: for i < 10 the simple reflection
# s_i swaps coordinates i and i+1, and s_10 negates the last one.  The
# positive roots are e_i - e_j, e_i + e_j (i < j) and 2e_i.  A root lies in
# the Levi of a parabolic iff every simple root of its expansion does; that
# support is {i, ..., j-1} for e_i - e_j and {i, ..., 10} for the others.
# Faces are subsets of the positions 0..3 of the restricted roots a1, a3,
# a6, a10.  The derivation calls none of ic_cutoffs, codim_and_perversity
# and truncation_marks; the tests compare it with them.

_SP20_FACES = [f for f in subsets(range(4)) if f != frozenset(range(4))]
_SP20_LINK = "Z[-1] + Z[-2]"

# the middle perversities; the rational pair gives the stated base cutoff
# "4 or 4 1/2" (m, n), and the floor pair is the engine's
_RATIONAL = {"m": lambda k: Fraction(k - 2, 2), "n": lambda k: Fraction(k - 1, 2)}
_FLOOR = {"m": lambda k: (k - 2) // 2, "n": lambda k: (k - 1) // 2}


def _c10_positive_roots():
    """(vector, support) of each of the 100 positive roots of C10."""
    roots = []
    for i in range(1, 11):
        for j in range(i, 11):
            for sign in (-1, 1) if i < j else (1,):  # e_i -/+ e_j, or 2e_i
                v = [0] * 10
                v[i - 1] += 1
                v[j - 1] += sign
                roots.append((tuple(v), frozenset(range(i, j if sign < 0 else 11))))
    return roots


def _sp20_face_arithmetic():
    """Per face: (k, l_Q(w)) with k = dim n_Q + #Delta_Q.

    n_Q holds the positive roots whose support leaves the Levi of the face
    parabolic Q, and l_Q(w) counts the inversions of w among them: the
    positive roots gamma with w^-1(gamma) negative.
    """
    roots = _c10_positive_roots()
    inversions = []
    for v, support in roots:
        v = list(v)
        for i in _SP20_WORD:  # w^-1 applies the first letter first
            if i < 10:
                v[i - 1], v[i] = v[i], v[i - 1]
            else:
                v[9] = -v[9]
        if next(c for c in v if c) < 0:
            inversions.append(support)
    levi = {i + 1 for i in _SP20_LEVI}
    rest = sorted(set(range(1, 11)) - levi)
    out = {}
    for f in _SP20_FACES:
        lq = levi | {rest[i] for i in f}
        k = sum(not s <= lq for _, s in roots) + 10 - len(lq)
        out[f] = (k, sum(not s <= lq for s in inversions))
    return out


def _aon_degrees(n, marked):
    """Degrees of the base local cohomology after cutting the marked faces."""
    idx = tuple(range(n))
    cuts = {
        a: (-inf if a in marked else inf)
        for a in subsets(idx)
        if a != frozenset(idx)
    }
    cx, _ = local_complex(ic_module(idx, cuts), frozenset())
    return cx.cohomology().degrees()


def _oracle_marks(cut):
    """The faces successive truncation cuts, largest faces first.

    The local cohomology at a face, given the faces cut above it, is the
    base value of the all-or-nothing picture on its link.  Every link here
    lies wholly above its cutoff or wholly at or below it, so each face is
    cut whole or kept whole.
    """
    marks = set()
    for a in sorted(_SP20_FACES, key=len, reverse=True):
        link = sorted(set(range(4)) - a)
        above = {frozenset(link.index(i) for i in b - a) for b in marks if a < b}
        over = [d > cut[a] for d in _aon_degrees(len(link), above)]
        assert all(over) or not any(over), (sorted(a), cut[a])
        if any(over):
            marks.add(a)
    return marks


def _verdict(marks):
    """The text of a first-configuration check for the given cut faces."""
    value = "0" if frozenset() in marks else str(all_or_nothing(4, marks))
    realized = value == _SP20_LINK and _is_first_config_marks(
        {f: f in marks for f in _SP20_FACES}, range(4)
    )
    return f"{'realized' if realized else 'not realized'} (link {value})"


def test_c04_large_symplectic_word_fast_checks():
    result = run_suite("footnote-sp20")
    bad = [
        c for c in result.checks
        if not c.passed and c.name != "sp20/first-configuration-m"
    ]
    assert not bad, "; ".join(
        f"{c.name}: expected {c.expected}, got {c.got}" for c in bad
    )
    checks = {c.name: c for c in result.checks}
    _, P, w = _sp20_element()
    rest = P.restricted_indices
    arithmetic = _sp20_face_arithmetic()
    for kind in ("m", "n"):
        cut = {f: _RATIONAL[kind](k) - l for f, (k, l) in arithmetic.items()}
        marks = _oracle_marks(cut)
        cuts = ic_cutoffs(P, w, kind)
        engine = truncation_marks(ic_module(rest, cuts), cuts)
        assert marks == {
            frozenset(rest.index(i) for i in a) for a, m in engine.items() if m
        }
        # the claim stays as transcribed; the verdict is the derived one
        check = checks[f"sp20/first-configuration-{kind}"]
        assert check.expected == f"realized (link {_SP20_LINK})"
        assert check.got == _verdict(marks)


def test_c04_sp20_cutoff_arithmetic():
    # the codimensions and l_Q(w) worked out from the word give the engine's
    # cutoffs on all 15 faces, and the rational perversities floor to them
    _, P, w = _sp20_element()
    rest = P.restricted_indices
    arithmetic = _sp20_face_arithmetic()
    for kind in ("m", "n"):
        engine = {
            frozenset(rest.index(i) for i in a): v
            for a, v in ic_cutoffs(P, w, kind).items()
        }
        assert engine == {
            f: _FLOOR[kind](k) - l for f, (k, l) in arithmetic.items()
        }
        assert engine == {
            f: floor(_RATIONAL[kind](k) - l) for f, (k, l) in arithmetic.items()
        }
    # the base face, the vertex a10 and the edge a1a3: (k, l) and the
    # rational (m, n) cutoffs; the apex class sits in degree 2 and an edge
    # class in degree 1, so m cuts both faces and n keeps both
    for face, k_l, m_n in (
        (frozenset(), (94, 42), (4, Fraction(9, 2))),
        (frozenset({3}), (83, 39), (Fraction(3, 2), 2)),
        (frozenset({0, 1}), (81, 39), (Fraction(1, 2), 1)),
    ):
        k, l = arithmetic[face]
        assert (k, l) == k_l
        assert (_RATIONAL["m"](k) - l, _RATIONAL["n"](k) - l) == m_n


def test_c04_sp20_candidate_conventions():
    # floor or rational perversity; the degree shift l_Q(w) (the nilradical
    # part of the bidegree), l(w) on every face, or l_Q(w) -/+ the face's
    # simplicial degree: only the shift l_Q(w) realizes the picture, and
    # only under n
    arithmetic = _sp20_face_arithmetic()
    length = arithmetic[frozenset()][1]
    shifts = {
        "l_Q(w)": lambda f, l: l,
        "l(w)": lambda f, l: length,
        "l_Q(w) - |F|": lambda f, l: l - len(f),
        "l_Q(w) + |F|": lambda f, l: l + len(f),
    }
    realized = set()
    for (pname, p), (sname, shift), kind in itertools.product(
        {"floor": _FLOOR, "rational": _RATIONAL}.items(), shifts.items(), "mn"
    ):
        cut = {f: p[kind](k) - shift(f, l) for f, (k, l) in arithmetic.items()}
        if _verdict(_oracle_marks(cut)).startswith("realized"):
            realized.add((pname, sname, kind))
    assert realized == {("floor", "l_Q(w)", "n"), ("rational", "l_Q(w)", "n")}


@pytest.mark.exhaustive
def test_c05_large_symplectic_exhaustive_count():
    result = _assert_suite("footnote-sp20-exhaustive")
    counts = {c.name: c.got for c in result.checks}
    assert counts["sp20x/first-configuration-count-n"] == "3"


def test_c06_pushforward_support_closed_form():
    _assert_suite("ms-pushforward")


def test_c07_perversity_essential_support_is_trivial_class():
    _assert_suite("ms-ic")


def test_c08_weight_family_essential_support_is_trivial_class():
    _assert_suite("ms-wc")


def test_c09_bidegree_bounds_under_sign_hypotheses():
    _assert_suite("basic-lemma")


def test_c10_stalk_vanishing_and_attaching_isomorphisms():
    _assert_suite("deligne")


def test_c11_spectral_page_vanishing_consistency():
    _assert_suite("spectral-consistency")


def test_c12_fiber_restriction_degree_bounds():
    _assert_suite("functoriality")


def test_c13_connectivity_split_figure():
    _assert_suite("satake-figure")


def test_c14_truncation_order_invariance():
    _assert_suite("order-invariance")
