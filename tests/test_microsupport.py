"""Detection of classes by supported cohomology, and degree bookkeeping."""

import importlib
import pkgutil
from fractions import Fraction
from math import inf

import pytest
from conftest import THREAD_CACHES, WEYL_CACHES

import weylcoh
from weylcoh import kostant, roots, satake, threads
from weylcoh.microsupport import (
    RealFormOracle,
    classify_fundamental,
    global_degree_bounds,
    micro_support,
)
from weylcoh.roots import build_root_system, dim_nilradical, parabolic


def test_unknown_family_rejected():
    sys = build_root_system("A", 2)
    with pytest.raises(ValueError):
        micro_support("bogus", (0, 0), sys)


def test_pushforward_windows_are_open_face():
    # the zero-extension is detected exactly at the open face, in the
    # degree of the representative
    sys = build_root_system("C", 2)
    entries = micro_support("pushforward", (0, 0), sys)
    assert entries
    for e in entries:
        assert len(e.window) == 1
        face, _ = e.window[0]
        assert face == frozenset(e.P.restricted_indices)
        assert e.c == e.d == e.cls.degree


def test_essential_subset():
    sys = build_root_system("C", 2)
    for kind in ("m", "n"):
        all_ = micro_support("ic", (0, 0), sys, kind=kind)
        ess = [e for e in all_ if e.essential]
        keys = {(e.P.levi, e.cls.degree, tuple(e.cls.mu)) for e in all_}
        for e in ess:
            assert (e.P.levi, e.cls.degree, tuple(e.cls.mu)) in keys


def test_essential_is_exactly_the_trivial_class():
    sys = build_root_system("C", 2)
    for kind in ("m", "n"):
        ess = [
            e for e in micro_support("ic", (1, 1), sys, kind=kind) if e.essential
        ]
        assert len(ess) == 1
        assert ess[0].P.is_full and ess[0].cls.degree == 0


def test_non_essential_entries_are_fundamental():
    sys = build_root_system("C", 2)
    for kind in ("m", "n"):
        for e in micro_support("ic", (0, 0), sys, kind=kind):
            if not e.essential:
                assert classify_fundamental(e)
                assert 2 * e.cls.degree == dim_nilradical(e.P)


def test_classify_rejects_other_families():
    sys = build_root_system("C", 2)
    entry = micro_support("pushforward", (0, 0), sys)[0]
    with pytest.raises(ValueError):
        classify_fundamental(entry)


def test_degree_window_sanity():
    sys = build_root_system("C", 3)
    for family, kw in [
        ("pushforward", {}),
        ("ic", {"kind": "m"}),
        ("wc", {"profile": "nu"}),
    ]:
        for e in micro_support(family, (0, 0, 0), sys, **kw):
            span = len(e.P.restricted_indices)
            assert e.cls.degree <= e.c <= e.d <= e.cls.degree + span


def test_split_oracle_dimensions():
    sys = build_root_system("C", 2)
    oracle = RealFormOracle()
    assert oracle.dimD(parabolic(sys, ())) == 0
    assert oracle.dimD(parabolic(sys, (0,))) == 2
    assert oracle.dimD(parabolic(sys, (0, 1))) == 6
    G = parabolic(sys, (0, 1))
    zero = tuple(Fraction(0) for _ in range(2))
    assert oracle.dimDV(G, zero) == oracle.dimD(G)


def test_degree_bounds_empty():
    assert global_degree_bounds([], RealFormOracle()) == (inf, -inf)


def test_degree_bounds_bracket_entries():
    sys = build_root_system("C", 2)
    oracle = RealFormOracle()
    entries = micro_support("ic", (0, 0), sys, kind="n")
    lo, hi = global_degree_bounds(entries, oracle)
    assert lo <= hi
    half = Fraction(oracle.dimD(parabolic(sys, (0, 1))), 2)
    # the trivial class alone contributes the symmetric middle window
    assert lo <= half <= hi


# -- per-process caches of the thread layer ------------------------------

CACHE_CASES = [
    (typ, rank, lam, family, kw)
    for typ, rank, lam in [
        ("A", 2, (1, 1)),
        ("A", 3, (1, 0, 1)),
        ("C", 2, (0, 0)),
        ("C", 3, (0, 0, 0)),
        ("C", 3, (1, 0, 1)),
    ]
    for family, kw in [
        ("ic", {"kind": "m"}),
        ("ic", {"kind": "n"}),
        ("wc", {"profile": "mu"}),
        ("wc", {"profile": "nu"}),
        ("pushforward", {}),
    ]
]


def _entries(typ, rank, lam, family, kw):
    sys = build_root_system(typ, rank)
    return [(repr(e), e.cls.mu) for e in micro_support(family, lam, sys, **kw)]


def test_cache_list_covers_every_thread_cache():
    defined = {
        f for f in vars(threads).values()
        if hasattr(f, "cache_clear") and f.__module__ == threads.__name__
    }
    assert defined == set(THREAD_CACHES)


def test_cache_list_covers_every_root_and_kostant_cache():
    # the fiber layer's cache of Kostant classes is listed with them
    defined = {
        f for module in (roots, kostant, satake) for f in vars(module).values()
        if hasattr(f, "cache_clear") and f.__module__ == module.__name__
    }
    assert defined == set(WEYL_CACHES)


def test_cache_list_covers_every_cache():
    # every lru cache defined in any weylcoh module is one the cold/warm
    # tests clear
    defined = set()
    for info in pkgutil.iter_modules(weylcoh.__path__):
        module = importlib.import_module(f"weylcoh.{info.name}")
        defined |= {
            f for f in vars(module).values()
            if hasattr(f, "cache_clear") and f.__module__ == module.__name__
        }
    assert defined == set(THREAD_CACHES + WEYL_CACHES)


def test_micro_support_same_cold_and_warm(clear_thread_caches):
    cold = []
    for case in CACHE_CASES:
        clear_thread_caches()
        cold.append(_entries(*case))
    # every case again without clearing, after the cases before it
    warm = [_entries(*case) for case in CACHE_CASES]
    assert warm == cold


def test_second_call_builds_no_module(monkeypatch, clear_thread_caches):
    built = []
    real = threads.ic_module

    def counting(*args, **kwargs):
        built.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(threads, "ic_module", counting)
    clear_thread_caches()
    for case in [
        ("C", 3, (1, 0, 1), "ic", {"kind": "m"}),
        ("C", 3, (1, 0, 1), "wc", {"profile": "nu"}),
        ("C", 2, (0, 0), "pushforward", {}),
    ]:
        start = len(built)
        first = _entries(*case)
        cold_builds = len(built)
        assert cold_builds > start
        assert _entries(*case) == first
        assert len(built) == cold_builds


def test_returned_dicts_are_private_copies():
    sys = build_root_system("C", 3)
    P = parabolic(sys, ())
    w = sys.from_word((0, 1, 2))
    cuts = threads.ic_cutoffs(P, w, "m")
    expected = dict(cuts)
    cuts[frozenset()] = 99
    del cuts[frozenset({0})]
    assert threads.ic_cutoffs(P, w, "m") == expected

    c = kostant.kostant_class(P, sys.identity_element(), (0, 0, 0))
    key = threads.thread_key("ic", c, kind="n")
    full = frozenset(P.restricted_indices)
    ranks = threads.thread_attaching_rank(key, full, full)
    assert ranks == {0: 1}
    ranks[0] = -1
    ranks[99] = 1
    assert threads.thread_attaching_rank(key, full, full) == {0: 1}

