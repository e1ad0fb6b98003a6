"""Command-line front end: exit codes, formats, and example outputs."""

import json
import os
import pathlib
import subprocess
import sys
import time

import pytest

from weylcoh.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_kostant_table(capsys):
    code, out, _ = run(
        capsys,
        "kostant",
        "--type",
        "C",
        "--rank",
        "2",
        "--levi",
        "a1",
        "--lambda",
        "0,0",
    )
    assert code == 0
    # preamble, header, and the four classes of the C2 rank-1 Levi
    rows = [l for l in out.splitlines() if l]
    assert len(rows) == 6
    assert "4 classes" in rows[0]


def test_simplex_rank2(capsys):
    code, out, _ = run(
        capsys, "simplex", "--rank", "2", "--cut", "a1,a2"
    )
    assert code == 0
    assert "degree 1: rank 1" in out


def test_simplex_rejects_open_face(capsys):
    code, _, err = run(
        capsys, "simplex", "--rank", "2", "--cut", "a1a2"
    )
    assert code == 2
    assert "error" in err


def test_verify_pass_and_fail_codes(capsys):
    code, out, _ = run(capsys, "verify", "rank2-table")
    assert code == 0
    assert "rank2-table" in out


def test_verify_unknown_suite(capsys):
    code, _, err = run(capsys, "verify", "nosuch")
    assert code == 2
    assert "rank2-table" in err  # rejection lists the registered suites


def test_verify_list(capsys):
    code, out, _ = run(capsys, "verify", "--list")
    assert code == 0
    names = [l.split("\t")[0] for l in out.splitlines()]
    assert "rank2-table" in names and "footnote-sp20-exhaustive" in names


def test_inconsistent_options(capsys):
    code, _, err = run(
        capsys,
        "microsupport",
        "--type",
        "C",
        "--rank",
        "2",
        "--family",
        "pushforward",
        "--perversity",
        "m",
        "--lambda",
        "0,0",
    )
    assert code == 2
    assert "error" in err


def test_json_output_is_deterministic(capsys):
    args = (
        "kostant",
        "--type",
        "C",
        "--rank",
        "2",
        "--levi",
        "1",
        "--lambda",
        "1,1",
        "--format",
        "json",
    )
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2
    doc = json.loads(out1)
    assert doc


def test_tsv_output(capsys):
    code, out, _ = run(
        capsys,
        "roots",
        "--type",
        "C",
        "--rank",
        "3",
        "--format",
        "tsv",
    )
    assert code == 0
    lines = out.splitlines()
    assert len(lines) > 1
    width = len(lines[0].split("\t"))
    assert all(len(l.split("\t")) == width for l in lines)


def test_satake_table(capsys):
    code, out, _ = run(
        capsys, "satake", "--type", "C", "--rank", "3"
    )
    assert code == 0
    assert "saturated" in out.lower() or "levi" in out.lower()


def test_bad_rank_rejected(capsys):
    code, _, err = run(
        capsys, "roots", "--type", "Z", "--rank", "2"
    )
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("satake", "--type", "A", "--rank", "3"),
        ("simplex", "--rank", "2", "--cut", "a1x"),
        ("roots", "--type", "D", "--rank", "4"),
    ],
)
def test_bad_input_is_a_usage_error(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error: ")


_C2 = ("--type", "C", "--rank", "2")


@pytest.mark.parametrize(
    "argv,message",
    [
        (("kostant", *_C2, "--levi", "aa1", "--lambda", "0,0"),
         "bad simple-root token 'aa1'"),
        (("kostant", *_C2, "--levi", "αa1", "--lambda", "0,0"),
         "bad simple-root token 'αa1'"),
        (("kostant", *_C2, "--levi", "²", "--lambda", "0,0"),
         "bad simple-root token '²'"),
        (("satake", *_C2, "--levi", "1", "--mu-support", "a2a"),
         "bad simple-root token 'a2a'"),
        (("simplex", "--rank", "2", "--cut", "1a"), "bad face token '1a'"),
        (("simplex", "--rank", "2", "--cut", "aa1"), "bad face token 'aa1'"),
        (("simplex", "--rank", "2", "--cut", "a²"), "bad face token 'a²'"),
    ],
)
def test_malformed_root_labels_are_refused(capsys, argv, message):
    # a label is a1, α1 or 1 in ASCII digits, and a face a run of a- or
    # α-led labels; a superscript digit is a usage error, not a crash
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_corrupt_checkpoint_is_a_usage_error(capsys, tmp_path):
    corrupt = tmp_path / "checkpoint.json"
    corrupt.write_text("{not json")
    for bad in (corrupt, tmp_path):  # a file that is not json, a directory
        code, _, err = run(
            capsys, "verify", "footnote-sp20-exhaustive", "--checkpoint", str(bad)
        )
        assert code == 2
        assert "checkpoint" in err


def test_engine_error_is_not_a_usage_error(monkeypatch):
    # an internal ValueError must surface as a traceback, not as exit 2
    def broken(args, out):
        raise ValueError("engine bug")

    monkeypatch.setattr("weylcoh.cli.cmd_roots", broken)
    with pytest.raises(ValueError, match="engine bug"):
        main(["roots", "--type", "C", "--rank", "2"])


def test_kostant_mu_column_is_pinned(capsys):
    # ambient mu of A2 has thirds; the output edge must print them unchanged
    code, out, _ = run(
        capsys,
        "kostant", "--type", "A", "--rank", "2", "--lambda", "1,0",
        "--format", "tsv",
    )
    assert code == 0
    assert out == (
        "word\tlength\tmu\tpairing-signs\tself-dual\n"
        "e\t0\t2/3,-1/3,-1/3\t++\tyes\n"
        "1\t1\t-4/3,5/3,-1/3\t-+\tyes\n"
        "2\t1\t2/3,-4/3,2/3\t+-\tyes\n"
        "12\t2\t-7/3,5/3,2/3\t-+\tyes\n"
        "21\t2\t-4/3,-4/3,8/3\t+-\tyes\n"
        "121\t3\t-7/3,-1/3,8/3\t--\tyes\n"
    )


def _refuse_root_system(*args):
    raise AssertionError("a root system was built before the class count")


@pytest.mark.parametrize("command,count", [
    # C10 with an empty Levi has 2^10 10! classes
    (("kostant",), 3_715_891_200),
    # the Borel comes first among the Levis and alone passes the limit
    (("microsupport", "--family", "pushforward"), 3_715_891_200),
])
def test_enumeration_too_large_is_refused_at_once(
    monkeypatch, capsys, command, count
):
    monkeypatch.setattr("weylcoh.cli.build_root_system", _refuse_root_system)
    start = time.perf_counter()
    code, out, err = run(
        capsys, *command, "--type", "C", "--rank", "10", "--lambda", "0" + ",0" * 9,
    )
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert err == (
        f"error: at least {count} Kostant classes to enumerate, "
        "above the limit of 1000000\n"
    )


def test_class_count_stops_once_past_the_limit(monkeypatch, capsys):
    # C3 has 147 classes over its eight Levis: 48 at the Borel, then 24 at
    # {a1}, so a limit of 50 is passed at the second Levi
    monkeypatch.setattr("weylcoh.cli.MAX_CLASSES", 50)
    monkeypatch.setattr("weylcoh.cli.build_root_system", _refuse_root_system)
    code, out, err = run(
        capsys, "microsupport", "--family", "pushforward",
        "--type", "C", "--rank", "3", "--lambda", "0,0,0",
    )
    assert code == 2 and out == ""
    assert err == (
        "error: at least 72 Kostant classes to enumerate, above the limit of 50\n"
    )


@pytest.mark.parametrize("command", ["roots", "satake"])
def test_levi_listing_past_the_limit_is_refused(monkeypatch, capsys, command):
    # C3 has 2^3 = 8 Levis: a limit of 8 lists them all, a limit of 7
    # refuses them before the root system is built, and one --levi row, the
    # Borel's included, is never refused
    group = ("--type", "C", "--rank", "3", "--format", "tsv")
    monkeypatch.setattr("weylcoh.cli.MAX_CLASSES", 8)
    code, out, _ = run(capsys, command, *group)
    assert code == 0 and len(out.splitlines()) == 1 + 8
    monkeypatch.setattr("weylcoh.cli.MAX_CLASSES", 7)
    for levi, name in (("1", "a1"), ("", "-")):
        code, out, _ = run(capsys, command, *group, "--levi", levi)
        (row,) = out.splitlines()[1:]
        assert code == 0 and row.split("\t")[0] == name
    monkeypatch.setattr("weylcoh.cli.build_root_system", _refuse_root_system)
    code, out, err = run(capsys, command, *group)
    assert code == 2 and out == ""
    assert err == "error: 2^3 Levis to list, above the limit of 7; give --levi\n"


def test_invalid_type_is_reported_before_the_class_count(capsys):
    code, out, err = run(
        capsys, "kostant", "--type", "D", "--rank", "12", "--lambda", "0" + ",0" * 11,
    )
    assert code == 2 and out == ""
    assert err == "error: invalid type/rank pair ('D', 12)\n"


def test_type_letter_is_case_insensitive(capsys):
    args = ("roots", "--rank", "2", "--format", "json")
    lower = run(capsys, *args, "--type", "c")
    upper = run(capsys, *args, "--type", "C")
    assert lower == upper
    assert json.loads(upper[1])["group"] == "C2"


DEFAULT_CHECKS = pathlib.Path(__file__).parent / "data" / "verify_default_checks.json"


def _check_tuples(out):
    """Every (suite, name, tag, expected, got, passed) of a json verify run."""
    return [
        [s["suite"], c["name"], c["tag"], c["expected"], c["got"], c["passed"]]
        for s in json.loads(out)["suites"]
        for c in s["checks"]
    ]


def test_default_verify_check_strings_are_pinned(capsys):
    # sp20/first-configuration-m is the one red check, so the run exits 1
    code, out, _ = run(capsys, "verify", "--format", "json")
    assert _check_tuples(out) == json.loads(DEFAULT_CHECKS.read_text())
    assert code == 1


def test_default_verify_does_not_depend_on_the_hash_seed():
    # a fresh interpreter with another string-hash seed gives the pinned run
    src = str(pathlib.Path(__file__).parents[1] / "src")
    env = dict(os.environ, PYTHONHASHSEED="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "weylcoh.cli", "verify", "--format", "json"],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 1, proc.stderr
    assert _check_tuples(proc.stdout) == json.loads(DEFAULT_CHECKS.read_text())
