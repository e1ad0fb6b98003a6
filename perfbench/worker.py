"""One cold pass of a workload, in a fresh process.

    python3 perfbench/worker.py WORKLOAD SEED PASSES PASS_INDEX MODE

MODE is `setup` (set up only), `plain` (run the pass untraced) or `traced`
(run it under the span tracer).  Set-up is timed from before weylcoh is
imported to when the pass's inputs are ready.  The result is one JSON
object on the last line of standard output.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import workloads  # noqa: E402

OUT = workloads.HERE / "out"


def _setup(workload, seed, passes, pass_index):
    """Import the layers, build the root systems and make the inputs."""
    import weylcoh.cli  # noqa: F401  (imports every layer)
    from weylcoh import build_root_system

    if workload in workloads.KINDS:
        for typ, rank in workloads.MS_GRID:
            build_root_system(typ, rank)
    return workloads.make_plan(workload, seed, passes)[pass_index]


def _run_queries(workload, queries):
    latencies, results = [], []
    for key in queries:
        t = time.perf_counter()
        try:
            text, broken = workloads.run_query(workload, key)
        except Exception:
            latencies.append(time.perf_counter() - t)
            results.append({"key": key, "error": traceback.format_exc(limit=3)})
            continue
        latencies.append(time.perf_counter() - t)
        results.append({"key": key, "digest": workloads.digest(text), "broken": broken})
    return latencies, results


def _run_verify(queries):
    """The verify call is the pass's one query."""
    (key,) = queries
    t = time.perf_counter()
    try:
        code, checks = workloads.verify_query(key.split())
        result = {"key": key, "exit": code, "checks": checks}
    except Exception:
        result = {"key": key, "error": traceback.format_exc(limit=3)}
    return time.perf_counter() - t, result


def main(argv):
    workload, seed, passes, pass_index, mode = argv
    seed, passes, pass_index = int(seed), int(passes), int(pass_index)
    queries = _setup(workload, seed, passes, pass_index)
    setup_s = time.perf_counter() - T0
    doc = {"setup_s": setup_s}
    if mode != "setup":
        tracer = None
        if mode == "traced":
            from tracer import Tracer

            tracer = Tracer().install()
        if workload == "verify-rest":
            wall, result = _run_verify(queries)
            latencies, results = [wall], [result]
        else:
            latencies, results = _run_queries(workload, queries)
            wall = sum(latencies)
        doc.update(wall_s=wall, latencies_s=latencies, results=results)
        if tracer is not None:
            doc["trace"] = _trace_doc(tracer, workload, pass_index)
    doc["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(doc))


def _trace_doc(tracer, workload, pass_index):
    summary = tracer.summary()
    keys = {name: [k for _, k in pairs] for name, pairs in tracer.keys.items()}
    shapes = keys.get("snf.snf_divisors", [])
    durations = tracer.durations("suites.run_suite")
    suites = {name: durations[pos] for pos, name in tracer.keys.get("suites.run_suite", [])}
    tracer.write(OUT / f"{workload}-pass{pass_index}")
    return {
        "calls": summary["calls"],
        "self_s": summary["self_s"],
        "distinct": {
            name: len(set(map(repr, keys.get(name, []))))
            for name in ("posetmod.ic_module", "kostant.kostant_decomposition")
        },
        "snf_cells": sum(r * c for r, c in shapes),
        "snf_max_dim": max((max(r, c) for r, c in shapes), default=0),
        "suites_s": suites,
        "spans": tracer.span_count(),
    }


if __name__ == "__main__":
    main(sys.argv[1:])
