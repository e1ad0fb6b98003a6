"""Suite registry plumbing: results, serialization, and error handling."""

import json

import pytest

from weylcoh.suites import (
    DEFAULT_SUITES,
    SUITES,
    UnknownSuiteError,
    _Recorder,
    run_suite,
)


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
