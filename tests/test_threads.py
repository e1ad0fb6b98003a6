"""Thread builders: cutoff maps, weight profiles, and truncation marks."""

from math import inf

import pytest

from weylcoh.posetmod import subsets
from weylcoh.roots import build_root_system, parabolic
from weylcoh.threads import (
    build_thread,
    face_parabolic,
    ic_cutoffs,
    ic_module_with_marks,
    wc_cutoffs,
    wc_keep,
)


def _c2_setup():
    sys = build_root_system("C", 2)
    return sys, parabolic(sys, ())


def test_face_parabolic_validation():
    sys = build_root_system("C", 3)
    P = parabolic(sys, (0,))
    assert face_parabolic(P, frozenset({1})).levi == frozenset({0, 1})
    with pytest.raises(ValueError):
        face_parabolic(P, frozenset({0}))


def test_ic_cutoffs_identity_representative():
    # for the trivial representative the cutoffs are the raw perversities
    sys, P = _c2_setup()
    e = sys.identity_element()
    for kind in ("m", "n"):
        cuts = ic_cutoffs(P, e, kind)
        assert cuts[frozenset()] == 2
        assert cuts[frozenset({0})] == 1
        assert cuts[frozenset({1})] == 1


def test_ic_cutoffs_drop_with_length():
    sys, P = _c2_setup()
    e = sys.identity_element()
    w = sys.from_word((0, 1, 0, 1))  # longest element, length 4
    for kind in ("m", "n"):
        lo, hi = ic_cutoffs(P, w, kind), ic_cutoffs(P, e, kind)
        for a in lo:
            assert lo[a] < hi[a]


def test_ic_cutoffs_exclude_open_face():
    sys, P = _c2_setup()
    cuts = ic_cutoffs(P, sys.identity_element(), "m")
    assert frozenset({0, 1}) not in cuts
    assert set(cuts) == {frozenset(), frozenset({0}), frozenset({1})}


def test_wc_keep_open_face():
    sys, P = _c2_setup()
    lam = sys.weight_from_fundamental((0, 0))
    for w in (sys.identity_element(), sys.from_word((1, 0))):
        for profile in ("mu", "nu"):
            assert wc_keep(P, w, lam, frozenset({0, 1}), profile)


def test_wc_profile_validation():
    sys, P = _c2_setup()
    lam = sys.weight_from_fundamental((0, 0))
    with pytest.raises(ValueError):
        wc_keep(P, sys.identity_element(), lam, frozenset(), "xi")


def test_wc_cutoffs_are_all_or_nothing():
    sys, P = _c2_setup()
    lam = sys.weight_from_fundamental((1, 1))
    for w in (sys.identity_element(), sys.from_word((0, 1, 0))):
        cuts = wc_cutoffs(P, w, lam, "nu")
        assert set(cuts.values()) <= {inf, -inf}


def test_build_thread_validation():
    sys, P = _c2_setup()
    e = sys.identity_element()
    with pytest.raises(ValueError):
        build_thread("bogus", P, e)
    with pytest.raises(ValueError):
        build_thread("ic", P, e)  # missing perversity kind
    with pytest.raises(ValueError):
        build_thread("wc", P, e, profile="mu")  # missing highest weight


def test_build_thread_pushforward_shape():
    sys, P = _c2_setup()
    m = build_thread("pushforward", P, sys.identity_element())
    assert m.faces() == [frozenset({0, 1})]
    assert m.rank(frozenset({0, 1}), 0) == 1


def test_marks_respect_infinite_cutoffs():
    # a face with an unbounded cutoff can never be marked
    idx = (0, 1, 2)
    cuts = {a: inf for a in subsets(idx) if a != frozenset(idx)}
    cuts[frozenset({0})] = -inf
    cuts[frozenset()] = -inf
    module, marks = ic_module_with_marks(idx, cuts)
    for a, cut in cuts.items():
        if cut == inf:
            assert not marks[a]
    assert marks[frozenset({0})]


def test_marks_match_module_values():
    # replaying the recorded marks as all-or-nothing cutoffs rebuilds the
    # same local cohomology at the base face
    from weylcoh.posetmod import ic_module, local_complex

    sys, P = _c2_setup()
    for word in [(), (0,), (1, 0), (0, 1, 0), (0, 1, 0, 1)]:
        w = sys.from_word(word)
        for kind in ("m", "n"):
            cuts = ic_cutoffs(P, w, kind)
            exact = ic_module(P.restricted_indices, cuts)
            _, marks = ic_module_with_marks(P.restricted_indices, cuts)
            aon = ic_module(
                P.restricted_indices,
                {a: (-inf if marks[a] else inf) for a in cuts},
            )
            cx1, _ = local_complex(exact, frozenset())
            cx2, _ = local_complex(aon, frozenset())
            assert repr(cx1.cohomology()) == repr(cx2.cohomology())


@pytest.mark.parametrize(
    "order",
    [
        [frozenset({0})],  # not every proper face
        [frozenset(), frozenset({0}), frozenset({1})],  # increasing dimension
    ],
)
def test_bad_order_raises_with_and_without_marks(order):
    from weylcoh.posetmod import ic_module

    idx = (0, 1)
    cuts = {a: 0 for a in subsets(idx) if a != frozenset(idx)}
    with pytest.raises(ValueError):
        ic_module(idx, cuts, order=order)
    with pytest.raises(ValueError):
        ic_module_with_marks(idx, cuts, order=order)


def test_marks_follow_an_explicit_order():
    idx = (0, 1)
    cuts = {frozenset(): -inf, frozenset({0}): inf, frozenset({1}): -inf}
    order = [frozenset({1}), frozenset({0}), frozenset()]
    _, marks = ic_module_with_marks(idx, cuts, order=order)
    assert list(marks) == order
