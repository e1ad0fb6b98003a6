"""Record the frozen reference outputs of every benchmark input.

    PYTHONPATH=src python3 perfbench/freeze.py

Writes perfbench/reference.json:

- ic-stream, wc-stream: every query of the ms-ic / ms-wc grid, so any seed's
  draw is covered;
- cutoff-sweep: the catalog of cutoff maps the workload draws from;
- verify-rest: the check strings of the verify call, without timings, and
  its exit code.

Each query is recorded with the digest of its outputs, the paper predicates
it breaks and its cost in seconds, which the plans use only to stratify their
draws.  Run it on an idle host, and only on a commit whose outputs are
trusted: every later run is checked against this file.
"""

from __future__ import annotations

import json
import sys
import time

import workloads


def _record(workload, key):
    t = time.perf_counter()
    text, broken = workloads.run_query(workload, key)
    cost = time.perf_counter() - t
    return {"digest": workloads.digest(text), "broken": broken, "cost_s": round(cost, 4)}


def main():
    ref = {}
    for workload, kinds in workloads.KINDS.items():
        keys = [
            workloads.ms_key(typ, rank, kind, lam)
            for (typ, rank), lams in workloads.MS_GRID.items()
            for kind in kinds
            for lam in lams
        ]
        ref[workload] = {key: _record(workload, key) for key in keys}
        print(f"{workload}: {len(keys)} queries", file=sys.stderr)

    keys = [key for rank in workloads.CATALOG_SIZE for key in workloads.catalog_keys(rank)]
    ref["cutoff-sweep"] = {key: _record("cutoff-sweep", key) for key in keys}
    print(f"cutoff-sweep: {len(keys)} maps", file=sys.stderr)

    suites = workloads.rest_suites()
    t = time.perf_counter()
    code, checks = workloads.verify_query(suites)
    ref["verify-rest"] = {"suites": suites, "exit": code, "checks": checks}
    print(
        f"verify-rest: {len(checks)} checks, exit {code}, "
        f"{time.perf_counter() - t:.1f}s",
        file=sys.stderr,
    )

    with open(workloads.REFERENCE, "w") as fh:
        json.dump(ref, fh, indent=0, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
