"""Suite registry plumbing: results, serialization, and error handling."""

import json
import random

import pytest

from weylcoh import posetmod
from weylcoh.kostant import kostant_class
from weylcoh.microsupport import micro_support
from weylcoh.roots import build_root_system, is_min_coset_rep, parabolic
from weylcoh.suites import (
    _SP20_BLOCKS,
    DEFAULT_SUITES,
    SUITES,
    UnknownSuiteError,
    _aon_failures,
    _ems_is_trivial_class,
    _first_config_from_cutoffs,
    _Recorder,
    _sp20_cutoffs_from_window,
    _sp20_element,
    _sp20_element_from_window,
    _sp20_face_data,
    _sp20_window_of,
    run_suite,
)
from weylcoh.threads import ic_cutoffs, thread_key


def test_registry_shape():
    assert set(DEFAULT_SUITES) < set(SUITES)
    assert "footnote-sp20-exhaustive" not in DEFAULT_SUITES
    for name, (func, desc) in SUITES.items():
        assert callable(func) and desc


def test_unknown_suite_raises():
    with pytest.raises(UnknownSuiteError):
        run_suite("nope")
    assert issubclass(UnknownSuiteError, ValueError)


def test_fast_suite_result_structure():
    r = run_suite("rank2-table")
    assert r.suite == "rank2-table"
    assert r.passed
    assert r.checks
    for c in r.checks:
        assert c.tag in ("PAPER", "TRIVIAL", "DERIVED")
        assert isinstance(c.passed, bool)
        assert c.elapsed >= 0


def test_result_serializes():
    r = run_suite("rank2-table")
    doc = r.to_dict()
    text = json.dumps(doc)
    back = json.loads(text)
    assert back["suite"] == "rank2-table"
    assert len(back["checks"]) == len(r.checks)


@pytest.mark.parametrize("name", ["allornothing", "pairing-shift"])
def test_supplementary_suites_pass(name):
    r = run_suite(name)
    bad = [c.name for c in r.checks if not c.passed]
    assert not bad, bad


def test_reports_are_deterministic():
    def strip(doc):
        doc = dict(doc)
        doc.pop("elapsed", None)
        doc["checks"] = [
            {k: v for k, v in c.items() if k != "elapsed"}
            for c in doc["checks"]
        ]
        return doc

    a = strip(run_suite("rank3-table").to_dict())
    b = strip(run_suite("rank3-table").to_dict())
    assert a == b


def test_thread_caches_leave_suite_checks_unchanged(clear_thread_caches):
    def checks(name):
        return [
            (c.name, c.tag, c.expected, c.got, c.passed)
            for c in run_suite(name).checks
        ]

    # basic-lemma and functoriality read the Levi, duality and fiber caches
    names = ("ms-ic", "ms-wc", "deligne", "basic-lemma", "functoriality")
    cold = {}
    for name in names:
        clear_thread_caches()
        cold[name] = checks(name)
    # again without clearing: each run follows runs of the other suites
    warm = {name: checks(name) for name in names}
    assert warm == cold


def test_thread_suites_build_each_profile_once(monkeypatch):
    # 264 distinct profiles among deligne's 2,128 threads, 230 among
    # order-invariance's 672 (two orders each) and allornothing's 1,088
    # (the exact module and one per all-or-nothing rule)
    built = []
    real = posetmod.pushforward_module

    def counting(index_set):
        built.append(index_set)
        return real(index_set)

    # every truncation starts from the pushforward
    monkeypatch.setattr(posetmod, "pushforward_module", counting)
    counts = {}
    for name in ("deligne", "order-invariance", "allornothing"):
        start = len(built)
        assert run_suite(name).passed
        counts[name] = len(built) - start
    assert counts == {"deligne": 264, "order-invariance": 460, "allornothing": 690}


def test_structure_map_condition_negative_control(monkeypatch):
    # a cone with one entry negated breaks D.D = 0; the build's own check
    # catches it, and the suite records the condition red instead of raising
    real = posetmod._cone

    def negated(module, a, cutoff):
        cone = real(module, a, cutoff)
        if cone is None:
            return None
        pieces, diff = cone
        deg = max(d for d, rows in diff.items() if rows)
        rows = diff[deg] = dict(diff[deg])  # the old rows are shared
        lbl = next(reversed(rows))
        (t, x), *rest = rows[lbl].items()
        rows[lbl] = {t: -x, **dict(rest)}
        return pieces, diff

    monkeypatch.setattr(posetmod, "_cone", negated)
    checks = {c.name: c for c in run_suite("order-invariance").checks}
    cond = checks["order/structure-map-condition (672 threads, two orders)"]
    assert not cond.passed
    assert cond.got.startswith("220, e.g. ('A', (0, 1), 'm')")


@pytest.mark.parametrize("typ,rank,count", [("A", 2, 4), ("C", 2, 6), ("C", 3, 20)])
def test_trivial_class_check_rejects_the_pushforward(typ, rank, count):
    # negative control for ms-ic and ms-wc: the zero-extension has essential
    # classes on proper parabolics, so emS = {E} must read false on it
    ms = micro_support("pushforward", (0,) * rank, build_root_system(typ, rank))
    essential = [e for e in ms if e.essential]
    assert len(essential) == count
    assert not _ems_is_trivial_class(essential)


def test_sign_rule_negative_control():
    # the first thread the allornothing suite reports: cutting where the
    # cutoff is negative changes it, cutting where truncation bites does not
    sys = build_root_system("C", 3)
    c = kostant_class(parabolic(sys, ()), sys.from_word((2, 0, 1, 2)), (0, 0, 0))
    key = thread_key("ic", c, kind="m")
    assert _aon_failures(key) == ("sign",)


def test_none_passes_when_no_counterexample_is_found():
    rec = _Recorder()
    rec.none("x", "PAPER", [], "all fine")
    (c,) = rec.checks
    assert c.passed is True
    assert c.expected == c.got == "all fine"


def test_none_reports_the_count_and_the_first_counterexample():
    rec = _Recorder()
    rec.none("x", "PAPER", [(1, 2), (3, 4)])
    (c,) = rec.checks
    assert c.passed is False
    assert c.expected == "no violations"
    assert c.got == "2, e.g. (1, 2)"


@pytest.mark.parametrize("length, bound", [(-1, "lo"), (10**6, "hi")])
def test_basic_lemma_violation_names_its_bound(monkeypatch, length, bound):
    # a bidegree below every half dimension breaks only the lower bound,
    # one above every half dimension only the upper bound
    monkeypatch.setattr("weylcoh.suites._RANK3_SYSTEMS", [("A", 2)])
    monkeypatch.setattr("weylcoh.suites.bidegree", lambda w, Q: length)
    (c,) = [
        c for c in run_suite("basic-lemma").checks
        if c.name.startswith("basic-lemma/bidegree-bounds ")
    ]
    assert c.passed is False
    assert c.got.split(", e.g. ")[1].startswith(f"('{bound}', ")


def _block_sorted_windows(rng, count):
    """Random K-windows with each restricted block sorted, as enumerated."""
    windows = []
    for _ in range(count):
        kw = [k if rng.random() < 0.5 else 21 - k for k in rng.sample(range(1, 11), 10)]
        for lo, hi in _SP20_BLOCKS:
            kw[lo:hi] = sorted(kw[lo:hi])
        windows.append(tuple(kw))
    return windows


def test_sp20_window_routines_agree_on_ints_and_int16_columns():
    # the exhaustive enumeration runs these routines on numpy columns; the
    # spot validation and the footnote suite run them on ints
    np = pytest.importorskip("numpy")
    sys, P, w = _sp20_element()
    rest, _, roots, faces, pvals, facemat = _sp20_face_data(P)
    windows = [_sp20_window_of(w)] + _block_sorted_windows(random.Random(24), 300)
    per_window = [
        _sp20_cutoffs_from_window(kw, roots, faces, pvals, facemat) for kw in windows
    ]
    cols = [np.array(col, dtype=np.int16) for col in zip(*windows)]
    columns = _sp20_cutoffs_from_window(cols, roots, faces, pvals, facemat)
    for kind in ("m", "n"):
        for f in faces:
            assert columns[kind][f].dtype == np.int16
            assert columns[kind][f].tolist() == [c[kind][f] for c in per_window]
        verdicts = _first_config_from_cutoffs(columns[kind], range(4))
        assert verdicts.tolist() == [
            _first_config_from_cutoffs(c[kind], range(4)) for c in per_window
        ]
    for kw, cuts in list(zip(windows, per_window))[:4]:
        elt = _sp20_element_from_window(sys, kw)
        assert is_min_coset_rep(elt, P)
        for kind in ("m", "n"):
            engine = {
                frozenset(rest.index(i) for i in a): v
                for a, v in ic_cutoffs(P, elt, kind).items()
            }
            assert engine == cuts[kind]
    footnote = per_window[0]
    assert _first_config_from_cutoffs(footnote["n"], range(4)) is True
    assert _first_config_from_cutoffs(footnote["m"], range(4)) is False
