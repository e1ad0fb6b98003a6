"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs(workload):
    first = workloads.make_plan(workload, 7, 3)
    assert first == workloads.make_plan(workload, 7, 3)
    assert len(first) == 3 and all(first)
    if workload != "verify-rest":
        assert first != workloads.make_plan(workload, 8, 3)


def test_cutoff_sweep_draws_distinct_catalog_maps():
    reference = workloads.load_reference()
    plan = workloads.make_plan("cutoff-sweep", 3, 4, reference)
    keys = [k for queries in plan for k in queries]
    assert len(keys) == len(set(keys))
    assert set(keys) <= reference["cutoff-sweep"].keys()


def test_ms_draws_stay_on_the_frozen_grid():
    reference = workloads.load_reference()
    for workload in workloads.KINDS:
        for queries in workloads.make_plan(workload, 11, 4):
            assert set(queries) <= reference[workload].keys()


_DIGESTS = """
import json, sys
sys.path.insert(0, {here!r})
import workloads
from tracer import Tracer

catalog = sorted(workloads.load_reference()["cutoff-sweep"])
queries = [
    ("ic-stream", "C2/m/1,2"),
    ("ic-stream", "A2/n/1,1"),
    ("wc-stream", "C2/mu/2,0"),
    ("cutoff-sweep", catalog[0]),
    ("cutoff-sweep", catalog[-1]),
]

def digests():
    out = [workloads.digest(workloads.run_query(w, q)[0]) for w, q in queries]
    out.append(workloads.verify_query(["rank3-table", "pairing-shift"]))
    return out

plain = digests()
tracer = Tracer().install()
traced = digests()
print(json.dumps([plain, traced, tracer.span_count()]))
"""


def test_digests_identical_with_tracing_on_and_off():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", _DIGESTS.format(here=str(HERE))],
        capture_output=True, text=True, env=env, timeout=300, check=True,
    )
    plain, traced, spans = json.loads(proc.stdout.splitlines()[-1])
    assert spans > 0
    assert plain == traced
    reference = workloads.load_reference()
    catalog = sorted(reference["cutoff-sweep"])
    for w, key, d in [
        ("ic-stream", "C2/m/1,2", plain[0]),
        ("cutoff-sweep", catalog[0], plain[3]),
        ("cutoff-sweep", catalog[-1], plain[4]),
    ]:
        assert reference[w][key]["digest"] == d


def test_benchmark_json_lists_the_printed_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    suites = workloads.load_reference()["verify-rest"]["suites"]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units(suites)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    value, pct = run.tail(list(range(100)))
    assert value == 89 and pct == 90.0
    assert run.tail([float(x) for x in range(39)]) == (38.0, 100.0)
