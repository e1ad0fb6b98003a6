"""Suite registry plumbing: results, serialization, and error handling."""

import json

import pytest

from weylcoh.suites import (
    DEFAULT_SUITES,
    SUITES,
    UnknownSuiteError,
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
