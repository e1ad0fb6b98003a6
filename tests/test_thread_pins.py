"""Thread pins: a digest of every thread invariant, per group of threads.

A group is one (system, lambda, proper Levi, family and kind or profile).
Each thread of a group is recorded as its Levi, the reduced word of its
representative, its family, the supported local cohomology at every face
and the attaching rank from the base face to the open face.  The digests
in data/thread_pins.json were frozen before any change to the thread keys,
the truncation kernel or the Weyl walk; a rewrite of those must leave them
as they are.  To rewrite the pins after a deliberate change of output:

    PYTHONPATH=src python tests/test_thread_pins.py --freeze
"""

import hashlib
import itertools
import json
import pathlib
import sys

import pytest

from weylcoh.kostant import kostant_decomposition
from weylcoh.posetmod import (
    attaching_map_rank,
    subsets,
    supported_local_cohomology,
)
from weylcoh.roots import build_root_system, parabolic
from weylcoh.threads import build_thread, thread_key

PINS = pathlib.Path(__file__).parent / "data" / "thread_pins.json"

PIN_GRID = [("C", 3, lam) for lam in itertools.product((0, 1), repeat=3)] + [
    ("C", 4, (0, 0, 0, 0))
]

# (family, thread_key option, value)
FAMILIES = (
    ("ic", "kind", "m"),
    ("ic", "kind", "n"),
    ("wc", "profile", "mu"),
    ("wc", "profile", "nu"),
)


def _prefix(typ, rank, lam) -> str:
    return f"{typ}{rank} lam={','.join(map(str, lam))} "


def _invariants(key, memo):
    # one build per distinct profile; equal profiles are equal modules
    if key not in memo:
        index_set, _ = key
        module = build_thread(key)
        local = [
            (sorted(a), repr(supported_local_cohomology(module, a)))
            for a in subsets(index_set)
        ]
        ranks = attaching_map_rank(module, frozenset(), frozenset(index_set))
        memo[key] = local, sorted(ranks.items())
    return memo[key]


def thread_records(typ, rank, lam) -> dict[str, list]:
    """Group name -> the records of its threads, in Kostant order."""
    system = build_root_system(typ, rank)
    memo, groups = {}, {}
    for levi in subsets(range(rank))[:-1]:
        P = parabolic(system, levi)
        classes = kostant_decomposition(lam, P)
        for family, option, value in FAMILIES:
            name = f"{_prefix(typ, rank, lam)}levi={sorted(levi)} {family}-{value}"
            groups[name] = [
                (
                    sorted(levi),
                    c.w.reduced_word(),
                    f"{family}-{value}",
                    *_invariants(thread_key(family, c, **{option: value}), memo),
                )
                for c in classes
            ]
    return groups


def digest(records) -> str:
    return hashlib.sha256(repr(records).encode()).hexdigest()


def freeze() -> None:
    pins = {
        name: digest(records)
        for typ, rank, lam in PIN_GRID
        for name, records in thread_records(typ, rank, lam).items()
    }
    PINS.write_text(json.dumps(pins, indent=1) + "\n")


@pytest.mark.parametrize(
    "typ,rank,lam",
    PIN_GRID,
    ids=[f"{t}{r}-{''.join(map(str, lam))}" for t, r, lam in PIN_GRID],
)
def test_thread_invariants_match_pins(typ, rank, lam):
    pins = json.loads(PINS.read_text())
    groups = thread_records(typ, rank, lam)
    prefix = _prefix(typ, rank, lam)
    assert sorted(groups) == sorted(n for n in pins if n.startswith(prefix))
    for name, records in groups.items():
        if digest(records) != pins[name]:
            lines = "\n".join(map(repr, records))
            pytest.fail(f"thread pin {name!r} changed; its records:\n{lines}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--freeze"]:
        sys.exit(f"usage: {sys.argv[0]} --freeze")
    freeze()
