"""Thread builders: cutoff maps, weight profiles, and truncation marks."""

from math import inf

import pytest

from weylcoh.kostant import kostant_class
from weylcoh.posetmod import (
    ic_module,
    local_complex,
    subsets,
    supported_local_cohomology,
    truncation_marks,
)
from weylcoh.roots import build_root_system, parabolic
from weylcoh.threads import (
    build_thread,
    face_parabolic,
    ic_cutoffs,
    thread_key,
    thread_window,
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
            assert wc_keep(kostant_class(P, w, lam), frozenset({0, 1}), profile)


def test_wc_profile_validation():
    sys, P = _c2_setup()
    lam = sys.weight_from_fundamental((0, 0))
    with pytest.raises(ValueError):
        wc_keep(kostant_class(P, sys.identity_element(), lam), frozenset(), "xi")


def test_wc_profile_validated_without_proper_faces():
    # the full parabolic has no proper face to test the profile against
    sys = build_root_system("C", 2)
    c = kostant_class(parabolic(sys, (0, 1)), sys.identity_element(), (0, 0))
    assert thread_key("wc", c, profile="nu") == ((), ())
    with pytest.raises(ValueError):
        thread_key("wc", c, profile="bogus")


def test_wc_cutoffs_are_all_or_nothing():
    sys, P = _c2_setup()
    lam = sys.weight_from_fundamental((1, 1))
    for w in (sys.identity_element(), sys.from_word((0, 1, 0))):
        cuts = thread_key("wc", kostant_class(P, w, lam), profile="nu")[1]
        assert set(cuts) <= {inf, -inf}


def test_thread_key_validation():
    sys, P = _c2_setup()
    c = kostant_class(P, sys.identity_element(), (0, 0))
    with pytest.raises(ValueError):
        thread_key("bogus", c)
    with pytest.raises(ValueError):
        thread_key("ic", c)  # missing perversity kind
    with pytest.raises(ValueError):
        thread_key("wc", c)  # missing weight profile


def test_build_thread_pushforward_shape():
    sys, P = _c2_setup()
    c = kostant_class(P, sys.identity_element(), (0, 0))
    m = build_thread(thread_key("pushforward", c))
    assert m.faces() == [frozenset({0, 1})]
    assert m.rank(frozenset({0, 1}), 0) == 1


@pytest.mark.parametrize(
    "lo,hi,extra,faces",
    [
        ((), (0, 1, 2), (), [(1,)]),
        ((), (0, 2), (1,), [()]),
        ((0,), (0, 1, 2), (), []),
    ],
    ids=["shriek", "star", "shriek-above-lo"],
)
def test_thread_window_reads_the_module(lo, hi, extra, faces):
    # the thread's supported cohomology is nonzero at the face {1} alone
    sys = build_root_system("C", 3)
    c = kostant_class(parabolic(sys, ()), sys.from_word((2, 0, 1, 2)), (0, 0, 0))
    key = thread_key("ic", c, kind="m")
    module = build_thread(key)
    lo, hi, extra = frozenset(lo), frozenset(hi), frozenset(extra)
    groups = [
        (a, supported_local_cohomology(module, a | extra))
        for a in subsets(hi) if lo <= a
    ]
    want = tuple((a, g.shifted(5)) for a, g in groups if not g.is_zero)
    assert [tuple(sorted(a)) for a, _ in want] == faces
    assert thread_window(key, lo, hi, 5, extra) == want


def test_marks_respect_infinite_cutoffs():
    # a face with an unbounded cutoff can never be marked
    idx = (0, 1, 2)
    cuts = {a: inf for a in subsets(idx) if a != frozenset(idx)}
    cuts[frozenset({0})] = -inf
    cuts[frozenset()] = -inf
    marks = truncation_marks(ic_module(idx, cuts), cuts)
    for a, cut in cuts.items():
        if cut == inf:
            assert not marks[a]
    assert marks[frozenset({0})]


def test_marks_match_module_values():
    # replaying the recorded marks as all-or-nothing cutoffs rebuilds the
    # same local cohomology at the base face
    sys, P = _c2_setup()
    for word in [(), (0,), (1, 0), (0, 1, 0), (0, 1, 0, 1)]:
        w = sys.from_word(word)
        for kind in ("m", "n"):
            cuts = ic_cutoffs(P, w, kind)
            exact = ic_module(P.restricted_indices, cuts)
            marks = truncation_marks(exact, cuts)
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
    # marks are read off a built module, so a bad order fails the build
    idx = (0, 1)
    cuts = {a: 0 for a in subsets(idx) if a != frozenset(idx)}
    with pytest.raises(ValueError):
        ic_module(idx, cuts, order=order)


def test_marks_follow_an_explicit_order():
    # an explicit order builds the same module, so the same marks are read
    idx = (0, 1)
    cuts = {frozenset(): -inf, frozenset({0}): inf, frozenset({1}): -inf}
    order = [frozenset({1}), frozenset({0}), frozenset()]
    marks = truncation_marks(ic_module(idx, cuts, order=order), cuts)
    assert marks == truncation_marks(ic_module(idx, cuts), cuts)
    assert marks == {frozenset(): False, frozenset({0}): False, frozenset({1}): True}
