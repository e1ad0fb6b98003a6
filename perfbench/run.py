"""The weylcoh benchmark: run one seeded workload and print its metrics.

    python3 perfbench/run.py --workload ic-stream --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; weylcoh is imported from its src/ tree.
A run makes round(seconds / nominal pass seconds) passes of the workload
(at least one), each cold in a fresh worker process, plus five set-up-only
processes.  Every output is checked against perfbench/reference.json and the
paper predicates.  The last line of standard output is one JSON object:
with --trace 0 it holds the end-to-end metrics, with --trace 1 the per-layer
metrics of a run in which every pass is made once untraced and once traced.
See perfbench/README.md for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from tracer import LAYERS  # noqa: E402

RUN_LIMIT_S = 170
SETUP_PROBES = 5

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "queries_per_s": "1/s",
    "query_p50_ms": "ms",
    "query_tail_ms": "ms",
    "peak_rss_mb": "MB",
}

# per-layer metric -> span name it counts
CALLS = {
    "roots.WeylElement.inverse.calls": "roots.WeylElement.inverse",
    "roots.levi_projection.calls": "roots.RootSystem.levi_projection",
    "roots.factorize.calls": "roots.factorize",
    "threads.wc_keep.calls": "threads.wc_keep",
    "threads.build_thread.calls": "threads.build_thread",
    "posetmod.ic_module.calls": "posetmod.ic_module",
    "kostant.kostant_decomposition.calls": "kostant.kostant_decomposition",
    "posetmod.truncate_at.calls": "posetmod.truncate_at",
    "posetmod.local_complex.calls": "posetmod.local_complex",
    "posetmod.cohomology.calls": "posetmod.ChainComplex.cohomology",
    "posetmod.integer_kernel.calls": "posetmod.integer_kernel",
    "snf.snf_divisors.calls": "snf.snf_divisors",
    "snf.qq_rank.calls": "snf.qq_rank",
    "snf.kernel_basis.calls": "snf.kernel_basis",
    "satake.restrict_to_fiber.calls": "satake.restrict_to_fiber",
}
DISTINCT = {
    "posetmod.ic_module.distinct_ratio": "posetmod.ic_module",
    "kostant.kostant_decomposition.distinct_ratio": "kostant.kostant_decomposition",
}


def per_layer_units(suites):
    units = {"trace_overhead": "ratio"}
    units.update({f"{layer}.self_s": "s" for layer in LAYERS})
    units.update({name: "count" for name in CALLS})
    units.update({name: "ratio" for name in DISTINCT})
    units["snf.snf_divisors.cells"] = "count"
    units["snf.snf_divisors.max_dim"] = "count"
    units.update({f"suites.{s}.s": "s" for s in suites})
    return units


class WorkerError(RuntimeError):
    pass


def _worker(workload, seed, passes, index, mode, deadline):
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(seed),
           str(passes), str(index), mode]
    try:
        proc = subprocess.run(
            cmd, capture_output=True, text=True, env=env,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        raise WorkerError(f"{mode} pass {index} exceeded the run's time limit")
    if proc.returncode != 0:
        raise WorkerError(f"{mode} pass {index} failed:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# -- correctness -------------------------------------------------------------


def _check_verify(doc, ref, notes):
    """Checks of the verify call that differ from the reference."""
    expected = {(c[0], c[1]): c for c in ref["checks"]}
    failed = 0
    for result in doc["results"]:
        if "error" in result:
            notes.append(f"verify raised:\n{result['error']}")
            failed += len(expected)
            continue
        got = {(c[0], c[1]): c for c in result["checks"]}
        for key in expected.keys() | got.keys():
            if got.get(key) != expected.get(key):
                notes.append(f"{key} differs from reference: {got.get(key)}")
                failed += 1
        if result["exit"] != ref["exit"]:
            notes.append(f"verify exited {result['exit']}, reference {ref['exit']}")
            failed += 1
    return len(expected) * len(doc["results"]), failed


def _check_queries(doc, ref, notes):
    """Queries that raised, differ from the reference or break a predicate."""
    failed = 0
    for result in doc["results"]:
        key = result["key"]
        if "error" in result:
            notes.append(f"{key} raised:\n{result['error']}")
        elif key not in ref or ref[key]["digest"] != result["digest"]:
            notes.append(f"{key} differs from reference")
        elif result["broken"]:
            notes.append(f"{key} breaks " + "; ".join(result["broken"]))
        else:
            continue
        failed += 1
    return len(doc["results"]), failed


def check_pass(workload, doc, reference, notes):
    """(attempted, failed) of one pass; verify-rest counts its checks."""
    check = _check_verify if workload == "verify-rest" else _check_queries
    return check(doc, reference[workload], notes)


# -- metrics -----------------------------------------------------------------


def tail(latencies):
    """The highest percentile with at least ten samples beyond it.

    Below 40 samples that percentile is under p75, too close to the median
    to show a tail, so the maximum is reported instead.
    """
    xs = sorted(latencies)
    n = len(xs)
    if n < 40:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


def end_to_end(setups, plain):
    latencies = [x for doc in plain for x in doc["latencies_s"]]
    walls = [doc["wall_s"] for doc in plain]
    tail_s, tail_pct = tail(latencies)
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": sum(walls),
        "queries_per_s": len(latencies) / sum(walls),
        "query_p50_ms": 1e3 * statistics.median(latencies),
        "query_tail_ms": 1e3 * tail_s,
        "peak_rss_mb": statistics.median(doc["rss_mb"] for doc in plain),
    }
    detail = (f"query_n={len(latencies)} query_tail=p{tail_pct:.1f} "
              f"pass_walls_s={[round(w, 3) for w in walls]}")
    return values, detail


def per_layer(plain, traced, suites):
    traces = [doc["trace"] for doc in traced]
    values = {
        "trace_overhead": sum(d["wall_s"] for d in traced)
        / sum(d["wall_s"] for d in plain),
    }
    for layer in LAYERS:
        values[f"{layer}.self_s"] = sum(t["self_s"][layer] for t in traces)
    for metric, span in CALLS.items():
        values[metric] = sum(t["calls"].get(span, 0) for t in traces)
    for metric, span in DISTINCT.items():
        calls = sum(t["calls"].get(span, 0) for t in traces)
        distinct = sum(t["distinct"][span] for t in traces)
        values[metric] = distinct / calls if calls else 0.0
    values["snf.snf_divisors.cells"] = sum(t["snf_cells"] for t in traces)
    values["snf.snf_divisors.max_dim"] = max(t["snf_max_dim"] for t in traces)
    for s in suites:
        values[f"suites.{s}.s"] = sum(t["suites_s"].get(s, 0.0) for t in traces)
    detail = f"spans={sum(t['spans'] for t in traces)}"
    return values, detail


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "weylcoh" / "__init__.py").is_file():
        print(f"error: no weylcoh source tree at {SRC}", file=sys.stderr)
        return 2
    if not workloads.REFERENCE.is_file():
        print(f"error: missing {workloads.REFERENCE}", file=sys.stderr)
        return 2
    reference = workloads.load_reference()
    suites = reference["verify-rest"]["suites"]

    w, seed = args.workload, args.seed
    passes = workloads.pass_count(w, args.seconds)
    deadline = time.monotonic() + RUN_LIMIT_S
    try:
        setups = [_worker(w, seed, passes, 0, "setup", deadline)["setup_s"]
                  for _ in range(SETUP_PROBES)]
        plain, traced = [], []
        for i in range(passes):
            plain.append(_worker(w, seed, passes, i, "plain", deadline))
            if args.trace:
                traced.append(_worker(w, seed, passes, i, "traced", deadline))
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    notes = []
    attempted = failed = 0
    for doc in plain + traced:
        a, f = check_pass(w, doc, reference, notes)
        attempted += a
        failed += f
    setups += [doc["setup_s"] for doc in plain]
    if args.trace:
        values, detail = per_layer(plain, traced, suites)
        units = per_layer_units(suites)
    else:
        values, detail = end_to_end(setups, plain)
        units = END_TO_END

    print(f"workload={w} seed={seed} passes={passes} {detail}")
    print(f"attempted={attempted} failed={failed} "
          f"failed_ratio={failed / attempted:.6f}")
    if w == "verify-rest":
        red = [c[1] for c in reference["verify-rest"]["checks"] if not c[5]]
        print(f"recorded red checks (not counted as failures): {red}")
    for note in notes:
        print(f"FAILED: {note}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
