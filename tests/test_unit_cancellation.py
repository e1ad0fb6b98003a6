"""Guards for the unit cancellation inside ic_module's truncation loop.

ic_module cancels every +-1 entry of the differential whose row and column
lie at one face after each truncation step.  These tests hold the reduced
modules to the unreduced ones of the plain truncation loop, keep torsion
behind unit entries, and check every intermediate cone, which the fused
loop builds without a check.
"""

import itertools
import random
from math import inf

import pytest
from test_posetmod import (
    CUT_VALUES,
    _local,
    _mat_mul,
    _unimodular,
    unreduced_ic_module,
)

from weylcoh.kostant import kostant_decomposition
from weylcoh.posetmod import (
    PosetModule,
    _cancel_units,
    _cone,
    attaching_map_rank,
    face_key,
    fary_E1_page,
    ic_module,
    mv_E1_page,
    open_complement_cohomology,
    pushforward_module,
    subsets,
    supported_local_cohomology,
    total_complex,
)
from weylcoh.roots import build_root_system, parabolic
from weylcoh.threads import thread_key


def _random_cutoffs(rng, n, values):
    return {a: rng.choice(values) for a in subsets(range(n))[:-1]}


def _invariants(module):
    """Everything the engine reads off a module, per face and face pair."""
    idx = module.index_set
    faces = module.faces()
    out = {}
    for a in subsets(idx):
        link = total_complex(module, [b for b in faces if a < b])[0]
        out[a] = [
            _local(module, a),
            supported_local_cohomology(module, a),
            open_complement_cohomology(module, a),
            link.cohomology(),
        ]
        if a and a != idx:
            out[a] += [mv_E1_page(module, a), fary_E1_page(module, a)]
        for a2 in subsets(idx):
            if a < a2:
                out[a, a2] = attaching_map_rank(module, a, a2)
    return out


def _face_units(module):
    """(degree, row, column) of every +-1 entry inside one face."""
    return [
        (deg, y, x)
        for deg, rows in module.diff.items()
        for y, row in rows.items()
        for x, v in row.items()
        if x[0] == y[0] and v in (1, -1)
    ]


def _size(module):
    return sum(sum(degs.values()) for degs in module.pieces.values())


@pytest.mark.parametrize("seed", range(4))
def test_reduced_module_keeps_every_invariant(seed):
    # local, supported, open-complement and link cohomology, both E1 pages
    # and every attaching rank agree with the unreduced module
    rng = random.Random(seed)
    values = [v for v in CUT_VALUES if v != -2]
    for n in (2,) * 6 + (3,) * 6 + (4,) * 2:
        cuts = _random_cutoffs(rng, n, values)
        reduced = ic_module(tuple(range(n)), cuts)
        unreduced = unreduced_ic_module(tuple(range(n)), cuts)
        assert _size(reduced) <= _size(unreduced)
        assert _invariants(reduced) == _invariants(unreduced)


def test_torsion_behind_unit_entries_survives_cancellation():
    # the complex of test_chain_complex_torsion_behind_unit_entries, placed
    # at one face and mixed by a change of basis in every degree: H^0 = Z
    # and H^2 = Z/2 outlast the cancellation of its unit entries
    rng = random.Random(5)
    a = frozenset({0})
    cancelled = 0
    for _ in range(20):
        (u0, u0inv), (u1, u1inv), (u2, _) = (
            _unimodular(n, rng) for n in (2, 3, 2)
        )
        d0 = _mat_mul(_mat_mul(u1, ((1, 0), (0, 0), (0, 0))), u0inv)
        d1 = _mat_mul(_mat_mul(u2, ((0, 1, 0), (0, 0, 2))), u1inv)
        diff = {
            deg: {
                (a, i): {(a, j): x for j, x in enumerate(row) if x}
                for i, row in enumerate(d)
            }
            for deg, d in ((0, d0), (1, d1))
        }
        pieces = {a: {0: 2, 1: 3, 2: 2}}
        module = PosetModule((0, 1), pieces, diff)
        reduced = _cancel_units((0, 1), pieces, diff)
        assert not _face_units(reduced)
        cancelled += _size(module) - _size(reduced)
        for b in subsets((0, 1)):
            assert _local(reduced, b) == _local(module, b)
        h = supported_local_cohomology(reduced, a)
        assert h.free_rank(0) == 1 and h.torsion(2) == (2,)
        assert h.degrees() == [0, 2]
    assert cancelled


def test_unit_made_by_an_earlier_pivot_is_cancelled():
    # y0 -> (2, 3) has no unit until the pivot on y1 -> (1, 1) turns its
    # 3 into 3 - 2 = 1; the map is invertible, so nothing is left
    a = frozenset()
    pieces = {a: {0: 2, 1: 2}}
    diff = {0: {(a, 0): {(a, 0): 2, (a, 1): 3}, (a, 1): {(a, 0): 1, (a, 1): 1}}}
    assert not _cancel_units((0,), pieces, diff).pieces


def test_no_unit_is_left_inside_a_face():
    rng = random.Random(17)
    for n in (2,) * 10 + (3,) * 10 + (4,) * 4:
        idx = tuple(range(n))
        cuts = _random_cutoffs(rng, n, CUT_VALUES)
        assert not _face_units(ic_module(idx, cuts))


def _checked_steps(index_set, cutoffs):
    """ic_module's loop with every intermediate cone checked."""
    module = pushforward_module(index_set)
    for a in sorted(cutoffs, key=face_key, reverse=True):
        cone = _cone(module, a, cutoffs[a])
        if cone is not None:
            PosetModule(index_set, *cone, check=False).check_condition()
            module = _cancel_units(index_set, *cone)
    return module


def _ms_thread_profiles():
    """The distinct ic and wc thread profiles of the rank-3 grids."""
    keys = set()
    for typ in ("A", "B", "C"):
        system = build_root_system(typ, 3)
        for levi in subsets(range(3))[:-1]:
            P = parabolic(system, levi)
            for lam in itertools.product(range(3), repeat=3):
                for c in kostant_decomposition(lam, P):
                    for kind in ("m", "n"):
                        keys.add(thread_key("ic", c, kind=kind))
                    for profile in ("mu", "nu"):
                        keys.add(thread_key("wc", c, profile=profile))
    return sorted(keys, key=repr)


def test_every_intermediate_cone_is_a_module():
    # the fused loop checks only the module it returns; here every cone of
    # every step passes the module condition, over the rank-3 thread
    # profiles and seeded rank-4 cutoff maps
    maps = [
        (index_set, dict(zip(subsets(index_set)[:-1], cuts)))
        for index_set, cuts in _ms_thread_profiles()
    ]
    rng = random.Random(4)
    maps += [
        (tuple(range(4)), _random_cutoffs(rng, 4, (-inf, 0, 1, inf)))
        for _ in range(40)
    ]
    for index_set, cuts in maps:
        stepped = _checked_steps(index_set, cuts)
        reduced = ic_module(index_set, cuts)
        assert stepped.pieces == reduced.pieces
        assert stepped.diff == reduced.diff
