"""Seeded workloads of the weylcoh benchmark.

A workload turns (seed, number of passes) into a plan: a list of passes,
each a list of query keys.  A pass runs cold in its own process (see
worker.py).  Every query returns a canonical text of its outputs, whose
digest is compared with the frozen reference, and the names of the paper
predicates it breaks.

Draws are stratified by the cost of each input, which reference.json records
(`cost_s`, measured when it was frozen).  Without that, which expensive inputs
a seed happens to draw would decide the run's time; with it, two seeds give
the same mix of cheap and expensive inputs, and the passes of a run cost
about the same (see stratified()).

- ic-stream / wc-stream: each pass holds one rank-2 query (A2 or C2, drawn
  with repeats), one A3 query of either perversity kind (weight profile) and,
  per kind, three C3 weights of the ms-ic (ms-wc) grid.  Three quarters of
  the queries are C3, so the median latency falls inside the C3 bulk, not on
  the gap between A3 and C3, where the cheapest C3 queries a seed drew would
  decide it.
- cutoff-sweep: each pass holds 24 rank-3 and 12 rank-4 maps from the frozen
  catalog, none repeated within a run.
- verify-rest: one pass, the default suites minus those in REST_EXCLUDED, in
  a seeded order, through one `weylcoh verify --format json` call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import random
from math import inf
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"

WORKLOADS = ("ic-stream", "wc-stream", "cutoff-sweep", "verify-rest")

# Nominal seconds one pass takes on a 2-core x86-64 host at the commit that
# froze the reference; a run of --seconds S makes round(S / nominal) passes.
PASS_SECONDS = {
    "ic-stream": 6.5,
    "wc-stream": 6.5,
    "cutoff-sweep": 4.0,
    "verify-rest": 35.0,
}

# -- the micro-support grid of the ms-ic and ms-wc suites -------------------


def _lam_grid(rank, bound=2):
    return list(itertools.product(range(bound + 1), repeat=rank))


def _selfdual_grid(rank, bound=2):
    return [lam for lam in _lam_grid(rank, bound) if lam == lam[::-1]]


MS_GRID = {
    ("A", 2): _selfdual_grid(2),
    ("A", 3): _selfdual_grid(3),
    ("C", 2): _lam_grid(2),
    ("C", 3): _lam_grid(3),
}
KINDS = {"ic-stream": ("m", "n"), "wc-stream": ("mu", "nu")}

# -- the cutoff catalog ------------------------------------------------------

CUTOFF_VALUES = (-inf, 0, 1, inf)
_CODE = {-inf: "-i", 0: "0", 1: "1", inf: "i"}
_VALUE = {v: k for k, v in _CODE.items()}
CATALOG_SEED = 20030611
CATALOG_SIZE = {3: 256, 4: 256}
# Rank-4 maps whose truncated module has a larger total rank are left out:
# one of them costs 1-6 s, as much as a whole pass, so the few a seed drew
# would decide the run's time.
MAX_MODULE_SIZE = 240
PER_PASS = {3: 24, 4: 12}

# ms-ic, ms-ic-C2 and ms-wc are what ic-stream and wc-stream sample.
# deligne, order-invariance and allornothing only truncate and take
# cohomology (posetmod, snf), which ic-stream and cutoff-sweep measure; with
# them a verify-rest run took 45-63 s, and ten of them spanned enough host
# speed drift to push the spread of its timings past the bounds.
REST_EXCLUDED = (
    "ms-ic", "ms-ic-C2", "ms-wc", "deligne", "order-invariance", "allornothing",
)


def proper_faces(rank):
    from weylcoh.posetmod import subsets

    full = frozenset(range(rank))
    return [a for a in subsets(range(rank)) if a != full]


def cutoff_key(rank, cutoffs) -> str:
    """Canonical name of a cutoff map: rank, then values in face order."""
    return f"r{rank}:" + ",".join(_CODE[cutoffs[a]] for a in proper_faces(rank))


def parse_cutoff_key(key):
    head, body = key.split(":")
    rank = int(head[1:])
    values = [_VALUE[c] for c in body.split(",")]
    return rank, dict(zip(proper_faces(rank), values))


def catalog_keys(rank):
    """The distinct cutoff maps frozen for one rank, in draw order."""
    rng = random.Random(CATALOG_SEED + rank)
    faces = proper_faces(rank)
    keys, seen = [], set()
    while len(keys) < CATALOG_SIZE[rank]:
        key = cutoff_key(rank, {a: rng.choice(CUTOFF_VALUES) for a in faces})
        if key in seen:
            continue
        seen.add(key)
        if module_size(key) <= MAX_MODULE_SIZE:
            keys.append(key)
    return keys


def load_reference():
    with open(REFERENCE) as fh:
        return json.load(fh)


# -- plans -------------------------------------------------------------------


def pass_count(workload, seconds):
    return max(1, round(seconds / PASS_SECONDS[workload]))


def stratified(rng, keys, entries, per_pass, passes):
    """per_pass keys for each of passes passes, stratified by cost.

    The keys sorted by cost are cut into per_pass * passes bins and one key
    is drawn from each bin; each pass then gets one key from every band of
    `passes` adjacent bins, so the passes cost about the same.
    """
    cost = lambda k: (entries[k]["cost_s"], k)  # noqa: E731
    ordered = sorted(keys, key=cost)
    reps, rest = divmod(per_pass * passes, len(ordered))
    step = len(ordered) / rest if rest else 0
    picks = ordered * reps + [
        rng.choice(ordered[round(i * step):round((i + 1) * step)])
        for i in range(rest)
    ]
    picks.sort(key=cost)
    plan = [[] for _ in range(passes)]
    for band in range(per_pass):
        chosen = picks[band * passes:(band + 1) * passes]
        rng.shuffle(chosen)
        for queries, key in zip(plan, chosen):
            queries.append(key)
    return plan


def _ms_keys(system, kinds):
    typ, rank = system
    return [ms_key(typ, rank, kind, lam) for kind in kinds for lam in MS_GRID[system]]


def _strata(workload, entries):
    """(keys, keys per pass) of each stratum a pass draws from."""
    if workload == "cutoff-sweep":
        return [
            ([k for k in entries if k.startswith(f"r{rank}:")], per_pass)
            for rank, per_pass in PER_PASS.items()
        ]
    kinds = KINDS[workload]
    return [(_ms_keys(("A", 3), kinds), 1)] + [
        (_ms_keys(("C", 3), [kind]), 3) for kind in kinds
    ]


def rest_suites():
    from weylcoh.suites import DEFAULT_SUITES

    return [s for s in DEFAULT_SUITES if s not in REST_EXCLUDED]


def make_plan(workload, seed, passes, reference=None):
    """The run's inputs: one list of query keys per pass, fixed by the seed."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}/{seed}")
    if workload == "verify-rest":
        plan = []
        for _ in range(passes):
            suites = rest_suites()
            rng.shuffle(suites)
            plan.append([" ".join(suites)])
        return plan
    entries = (reference or load_reference())[workload]
    plan = [[] for _ in range(passes)]
    if workload in KINDS:
        small = _ms_keys(("A", 2), KINDS[workload]) + _ms_keys(("C", 2), KINDS[workload])
        for queries in plan:
            queries.append(rng.choice(small))
    for keys, per_pass in _strata(workload, entries):
        for queries, picks in zip(plan, stratified(rng, keys, entries, per_pass, passes)):
            queries.extend(picks)
    for queries in plan:
        rng.shuffle(queries)
    return plan


def ms_key(typ, rank, kind, lam) -> str:
    return f"{typ}{rank}/{kind}/" + ",".join(map(str, lam))


def parse_ms_key(key):
    system, kind, lam = key.split("/")
    return system[0], int(system[1:]), kind, tuple(int(x) for x in lam.split(","))


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# -- queries -----------------------------------------------------------------


def _ems_is_trivial_class(entries) -> bool:
    return (
        len(entries) == 1
        and entries[0].P.is_full
        and entries[0].cls.degree == 0
    )


def _entries_text(entries):
    return "\n".join(f"{e!r} mu={tuple(map(str, e.cls.mu))}" for e in entries)


def ic_query(typ, rank, kind, lam):
    from weylcoh import build_root_system
    from weylcoh.microsupport import (
        RealFormOracle,
        classify_fundamental,
        global_degree_bounds,
        micro_support,
    )

    system = build_root_system(typ, rank)
    ms = micro_support("ic", lam, system, kind=kind)
    ess = [e for e in ms if e.essential]
    trivial = _ems_is_trivial_class(ess)
    fundamental = [classify_fundamental(e) for e in ms if not e.essential]
    oracle = RealFormOracle()
    bounds = (global_degree_bounds(ms, oracle), global_degree_bounds(ess, oracle))
    broken = []
    if not trivial:
        broken.append("essential-is-trivial-class")
    if not all(fundamental):
        broken.append("non-essential-all-fundamental")
    text = f"{_entries_text(ms)}\ntrivial={trivial} fundamental={fundamental} bounds={bounds}"
    return text, broken


def wc_query(typ, rank, profile, lam):
    from weylcoh import build_root_system
    from weylcoh.microsupport import micro_support

    system = build_root_system(typ, rank)
    ms = micro_support("wc", lam, system, profile=profile)
    trivial = _ems_is_trivial_class([e for e in ms if e.essential])
    broken = [] if trivial else ["essential-is-trivial-class"]
    return f"{_entries_text(ms)}\ntrivial={trivial}", broken


def cutoff_query(key):
    from weylcoh.posetmod import (
        attaching_map_rank,
        fary_abutment_ranks,
        fary_E1_page,
        ic_module,
        local_complex,
        mv_abutment_ranks,
        mv_E1_page,
        open_complement_cohomology,
        subsets,
        supported_local_cohomology,
    )

    rank, cutoffs = parse_cutoff_key(key)
    idx = tuple(range(rank))
    full = frozenset(idx)
    mod = ic_module(idx, cutoffs)
    lines, broken = [], []
    for a in subsets(idx):
        cx, _ = local_complex(mod, a)
        direct = open_complement_cohomology(mod, a)
        lines.append(
            f"{sorted(a)} local={cx.cohomology()} "
            f"supported={supported_local_cohomology(mod, a)} open={direct}"
        )
        if not a or a == full:
            continue
        pages = {
            "open-star-covering": mv_abutment_ranks(mv_E1_page(mod, a)),
            "fibration": fary_abutment_ranks(fary_E1_page(mod, a)),
        }
        for name, ranks in pages.items():
            lines.append(f"  {name}={sorted(ranks.items())}")
            # E1 vanishing in a degree implies direct vanishing there
            for k in direct.degrees():
                if not ranks.get(k):
                    broken.append(f"spectral/{name} face={sorted(a)} deg={k}")
    lines.append(f"attaching={sorted(attaching_map_rank(mod, frozenset(), full).items())}")
    return "\n".join(lines), broken


def module_size(key) -> int:
    """Total rank of the truncated module of a cutoff map (its size bin)."""
    from weylcoh.posetmod import ic_module

    rank, cutoffs = parse_cutoff_key(key)
    mod = ic_module(tuple(range(rank)), cutoffs)
    return sum(sum(piece.values()) for piece in mod.pieces.values())


def verify_query(suites):
    """One `weylcoh verify` call; returns its exit code and its checks
    without timings."""
    from weylcoh.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["verify", *suites, "--format", "json"])
    doc = json.loads(out.getvalue())
    checks = [
        [s["suite"], c["name"], c["tag"], c["expected"], c["got"], c["passed"]]
        for s in doc["suites"]
        for c in s["checks"]
    ]
    return code, checks


def run_query(workload, key):
    """Canonical output text and broken predicates of one ms/cutoff query."""
    if workload == "ic-stream":
        return ic_query(*parse_ms_key(key))
    if workload == "wc-stream":
        return wc_query(*parse_ms_key(key))
    return cutoff_query(key)
