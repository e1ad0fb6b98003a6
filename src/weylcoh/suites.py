"""Registered verification suites with oracle-tagged checks.

Each suite runs a battery of deterministic checks against frozen expected
values (tag PAPER), definitional consequences (TRIVIAL), or independently
derived oracles (DERIVED), and reports one CheckResult per check.  The
exhaustive Sp20 search is opt-in: it enumerates all 12 902 400 minimal
coset representatives with a vectorized signed-permutation encoding and
writes resumable checkpoints.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import time
from dataclasses import dataclass
from functools import cache
from math import inf

from .kostant import (
    is_self_contragredient,
    kostant_decomposition,
    levi_self_dual,
)
from .microsupport import (
    RealFormOracle,
    classify_fundamental,
    global_degree_bounds,
    micro_support,
)
from .posetmod import (
    all_or_nothing,
    fary_E1_page,
    fary_abutment_ranks,
    ic_module,
    link_cohomology,
    local_complex,
    mv_E1_page,
    mv_abutment_ranks,
    open_complement_cohomology,
    subsets,
    truncation_marks,
)
from .roots import (
    bidegree,
    build_root_system,
    codim_and_perversity,
    dim_nilradical,
    is_min_coset_rep,
    parabolic,
)
from .satake import (
    baily_borel,
    fiber_strata,
    is_saturated,
    kappa_zeta,
    p_dagger,
    pairing_shift,
    restrict_to_fiber,
    saturated_parabolics,
)
from .threads import (
    build_thread,
    face_parabolic,
    ic_cutoffs,
    thread_key,
)


@dataclass(frozen=True)
class CheckResult:
    """One named comparison with its oracle tag and timing."""

    name: str
    tag: str  # PAPER, TRIVIAL, or DERIVED
    expected: str
    got: str
    passed: bool
    elapsed: float

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "tag": self.tag,
            "expected": self.expected,
            "got": self.got,
            "passed": self.passed,
            "elapsed": round(self.elapsed, 6),
        }


@dataclass
class SuiteResult:
    suite: str
    checks: list
    elapsed: float

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "passed": self.passed,
            "elapsed": round(self.elapsed, 6),
            "checks": [c.to_dict() for c in self.checks],
        }


class UnknownSuiteError(ValueError):
    def __init__(self, name: str):
        self.suite = name
        super().__init__(
            f"unknown suite {name!r}; registered: {', '.join(sorted(SUITES))}"
        )


class _Recorder:
    def __init__(self):
        self.checks: list[CheckResult] = []
        self._t = time.perf_counter()

    def add(self, name, tag, expected, got, passed=None):
        now = time.perf_counter()
        expected, got = str(expected), str(got)
        if passed is None:
            passed = expected == got
        self.checks.append(
            CheckResult(name, tag, expected, got, bool(passed), now - self._t)
        )
        self._t = now

    def none(self, name, tag, bad, ok="no violations"):
        """Record a search for counterexamples: passed when bad is empty."""
        self.add(name, tag, ok, f"{len(bad)}, e.g. {bad[0]}" if bad else ok)


# -- truncation-profile helpers -------------------------------------------


def _fs(*xs) -> frozenset:
    return frozenset(xs)


# vertex / edge pictures of the displayed rank-3 table, by rows
_RANK3_TABLE = [
    ("row1-blank", set(), "Z"),
    ("row1-one-dot", {_fs(0)}, "0"),
    ("row1-two-dots", {_fs(0), _fs(1)}, "Z[-1]"),
    ("row1-three-dots", {_fs(0), _fs(1), _fs(2)}, "Z^2[-1]"),
    ("row2-one-line", {_fs(0, 1)}, "0"),
    ("row2-line-far-dot", {_fs(0, 1), _fs(2)}, "Z[-1]"),
    ("row2-two-lines", {_fs(0, 1), _fs(0, 2)}, "Z[-1]"),
    ("row2-two-lines-joint-dot", {_fs(0, 1), _fs(0, 2), _fs(0)}, "0"),
    ("row3-three-lines", {_fs(0, 1), _fs(0, 2), _fs(1, 2)}, "Z^2[-1]"),
    (
        "row3-three-lines-one-dot",
        {_fs(0, 1), _fs(0, 2), _fs(1, 2), _fs(0)},
        "Z[-1]",
    ),
    (
        "row3-three-lines-two-dots",
        {_fs(0, 1), _fs(0, 2), _fs(1, 2), _fs(0), _fs(1)},
        "0",
    ),
    (
        "row3-full",
        {_fs(0, 1), _fs(0, 2), _fs(1, 2), _fs(0), _fs(1), _fs(2)},
        "Z[-2]",
    ),
]


def _suite_rank2(rec: _Recorder, **_):
    table = [
        ("blank", set(), "Z"),
        ("left-dot", {_fs(0)}, "0"),
        ("right-dot", {_fs(1)}, "0"),
        ("both-dots", {_fs(0), _fs(1)}, "Z[-1]"),
    ]
    for name, marked, expected in table:
        rec.add(f"rank2/{name}", "PAPER", expected, all_or_nothing(2, marked))


def _suite_rank3(rec: _Recorder, **_):
    perms = list(itertools.permutations(range(3)))
    for name, marked, expected in _RANK3_TABLE:
        values = set()
        for p in perms:
            image = {frozenset(p[i] for i in a) for a in marked}
            values.add(str(all_or_nothing(3, image)))
        got = values.pop() if len(values) == 1 else f"inconsistent: {sorted(values)}"
        rec.add(f"rank3/{name} (all relabelings)", "PAPER", expected, got)


def _rank4_profiles():
    tris = {frozenset(range(4)) - {v} for v in range(4)}
    dots = {_fs(v) for v in range(4)}
    star3 = {_fs(v, 3) for v in range(3)}  # three edges through vertex 3
    tri3 = {_fs(a, b) for a, b in itertools.combinations(range(3), 2)}
    return [
        ("facets-and-edge-star", tris | star3, "Z[-1] + Z[-2]", "PAPER"),
        ("dots-and-triangle", dots | tri3, "Z[-1] + Z[-2]", "DERIVED"),
        ("dots-and-edge-star", dots | star3, "0", "DERIVED"),
        ("facets-and-triangle", tris | tri3, "0", "DERIVED"),
    ]


def _suite_rank4(rec: _Recorder, **_):
    for name, marked, expected, tag in _rank4_profiles():
        rec.add(f"rank4/{name}", tag, expected, all_or_nothing(4, marked))


# -- Sp20 footnote ---------------------------------------------------------

_SP20_WORD = (
    3, 2, 1, 6, 5, 4, 3, 2, 7, 6, 5, 4, 3, 8, 10, 9, 8, 7, 6, 5, 4,
    10, 9, 8, 7, 6, 5, 10, 9, 8, 7, 6, 10, 9, 8, 7, 10, 9, 8, 10, 9, 10,
)
_SP20_LEVI = frozenset({1, 3, 4, 6, 7, 8})


def _sp20_element():
    sys = build_root_system("C", 10)
    P = parabolic(sys, _SP20_LEVI)
    w = sys.from_word(tuple(x - 1 for x in _SP20_WORD))
    return sys, P, w


def _is_first_config_marks(marks: dict, indices) -> bool:
    """Marked faces form the facets-and-edge-star picture of some apex."""
    indices = tuple(indices)
    marked = {a for a, m in marks.items() if m}
    tris = {frozenset(indices) - {v} for v in indices}
    if not tris <= marked:
        return False
    for v in indices:
        star = {frozenset({u, v}) for u in indices if u != v}
        if marked == tris | star:
            return True
    return False


def _first_config_verdict(index_set, cutoffs: dict) -> tuple[bool, str]:
    """Whether the thread realizes the facets-and-edge-star picture with
    base-face link Z[-1] + Z[-2], and that link's value."""
    module = ic_module(index_set, cutoffs)
    marks = truncation_marks(module, cutoffs)
    value = str(local_complex(module, frozenset())[0].cohomology())
    return _is_first_config_marks(marks, index_set) and value == "Z[-1] + Z[-2]", value


def _first_config_from_cutoffs(cut: dict, indices):
    """Cutoff-only classifier for the facets-and-edge-star picture.

    Backed by the rank-3 value table: once all facets are cut, a pair face
    carries its class in degree 1 and a vertex in degree 2, so the cut
    decisions are sign tests on the shifted cutoffs.

    The cutoffs may be ints, giving a bool, or equal-length numpy integer
    arrays, giving a bool array with one verdict per position: the test is
    written with comparisons, ``&`` and ``|`` only.
    """
    indices = tuple(indices)
    full = frozenset(indices)
    facets = True
    for v in indices:
        facets = facets & (cut[full - {v}] < 0)
    apex = False
    for v in indices:
        ok = cut[frozenset({v})] >= 2
        for u in indices:
            if u != v:
                ok = ok & (cut[frozenset({u})] >= 1) & (cut[frozenset({u, v})] <= 0)
        for a, b in itertools.combinations(indices, 2):
            if v not in (a, b):
                ok = ok & (cut[frozenset({a, b})] >= 1)
        apex = apex | ok
    return (cut[frozenset()] >= 2) & facets & apex


def _suite_footnote(rec: _Recorder, **_):
    sys, P, w = _sp20_element()
    rec.add("sp20/word-is-reduced", "PAPER", 42, w.length())
    rec.add("sp20/minimal-coset-rep", "PAPER", True, is_min_coset_rep(w, P))
    rec.add(
        "sp20/restricted-roots",
        "TRIVIAL",
        "(1, 3, 6, 10)",
        str(tuple(i + 1 for i in P.restricted_indices)),
    )
    rec.add("sp20/dim-nilradical", "PAPER", 90, dim_nilradical(P))
    cuts = {k: ic_cutoffs(P, w, k) for k in ("m", "n")}
    base = frozenset()
    rec.add(
        "sp20/base-face-cutoff (stated as 4 or 4 1/2)",
        "PAPER",
        "m=4, n=4",
        f"m={cuts['m'][base]}, n={cuts['n'][base]}",
    )
    for kind in ("m", "n"):
        realized, value = _first_config_verdict(P.restricted_indices, cuts[kind])
        rec.add(
            f"sp20/first-configuration-{kind}",
            "PAPER",
            "realized (link Z[-1] + Z[-2])",
            f"{'realized' if realized else 'not realized'} (link {value})",
        )
        rec.add(
            f"sp20/cutoff-classifier-agrees-{kind}",
            "DERIVED",
            realized,
            _first_config_from_cutoffs(cuts[kind], P.restricted_indices),
        )


# -- Sp20 exhaustive enumeration ------------------------------------------

_SP20_TOTAL = 12_902_400
_SP20_BLOCKS = ((0, 1), (1, 3), (3, 6), (6, 10))  # 0-based window slices


def _sp20_root_tables():
    """Positive roots of C10 as K-window tests, grouped by restricted mask.

    A signed permutation u is stored through the K-encoding of its window,
    K(+k) = k and K(-k) = 21 - k, so that u(beta) < 0 becomes an integer
    comparison on window entries.  The mask of a root records which of the
    restricted simple roots support it; the root lies in the nilradical of
    the face parabolic exactly when its mask is not contained in the face.
    """
    rest = (0, 2, 5, 9)  # 0-based restricted simple roots
    pos = {r: k for k, r in enumerate(rest)}
    masks = [frozenset(s) for s in subsets(range(4))]
    mask_idx = {m: i for i, m in enumerate(masks)}
    roots = []
    for a in range(1, 11):
        for b in range(a + 1, 11):
            m = frozenset(pos[r] for r in rest if a - 1 <= r <= b - 2)
            roots.append(("d", a, b, mask_idx[m]))
            m2 = frozenset(pos[r] for r in rest if r >= a - 1)
            roots.append(("s", a, b, mask_idx[m2]))
        m2 = frozenset(pos[r] for r in rest if r >= a - 1)
        roots.append(("l", a, a, mask_idx[m2]))
    return rest, masks, roots


def _sp20_face_data(P):
    rest, masks, roots = _sp20_root_tables()
    faces = [f for f in subsets(range(4)) if f != frozenset(range(4))]
    pvals = {}
    for kind in ("m", "n"):
        vals = []
        for f in faces:
            Q = face_parabolic(P, frozenset(rest[i] for i in f))
            vals.append(codim_and_perversity(Q, kind)[1])
        pvals[kind] = vals
    facemat = [
        [0 if m <= f else 1 for m in masks] for f in faces
    ]
    return rest, masks, roots, faces, pvals, facemat


def _sp20_long_roots():
    """Simple-root coordinates of the long roots 2e_1, ..., 2e_10 of C10.

    2e_a = 2(alpha_a + ... + alpha_9) + alpha_10.
    """
    return [
        tuple(2 * (a <= j < 9) + (j == 9) for j in range(10)) for a in range(10)
    ]


def _sp20_window_of(w):
    """K-encoded window of w^-1: where it sends each long root 2e_a."""
    sys = w.system
    long = [sys.root_index[r] for r in _sp20_long_roots()]
    npos = len(sys.positive_roots)  # the index of -r is that of r plus npos
    code = {k: a + 1 for a, k in enumerate(long)}
    code.update((k + npos, 20 - a) for a, k in enumerate(long))
    perm = w.inverse().perm
    return tuple(code[perm[k]] for k in long)


def _sp20_element_from_window(sys, kwin):
    """Rebuild the group element whose inverse has the given K-window."""
    long = _sp20_long_roots()
    # u(2e_a) = +-2e_k, and alpha_j = (2e_j - 2e_{j+1}) / 2, alpha_10 = 2e_10
    img = [
        long[k - 1] if k <= 10 else tuple(-x for x in long[20 - k])
        for k in kwin
    ]
    images = [
        tuple((x - y) // 2 for x, y in zip(img[j], img[j + 1])) for j in range(9)
    ] + [img[9]]
    return sys.from_simple_images(images).inverse()


def _sp20_cutoffs_from_window(kwin, roots, faces, pvals, facemat):
    """Face cutoffs {"m"|"n": {face: cutoff}} of the K-window kwin.

    The ten window entries may be ints or equal-length numpy integer
    columns, one window per position; the counts start from kwin[0] * 0,
    so columns keep their dtype.
    """
    counts = [kwin[0] * 0] * 16
    for typ, a, b, mi in roots:
        if typ == "d":
            invb = kwin[a - 1] > kwin[b - 1]
        elif typ == "s":
            invb = kwin[a - 1] + kwin[b - 1] > 21
        else:
            invb = kwin[a - 1] > 10
        counts[mi] = counts[mi] + invb
    out = {}
    for kind in ("m", "n"):
        cut = {}
        for fi, f in enumerate(faces):
            l_face = sum(
                c for c, keep in zip(counts, facemat[fi]) if keep
            )
            cut[f] = pvals[kind][fi] - l_face
        out[kind] = cut
    return out


def _suite_footnote_exhaustive(rec: _Recorder, progress=None, checkpoint=None):
    import numpy as np

    sys, P, w = _sp20_element()
    rest, masks, roots, faces, pvals, facemat = _sp20_face_data(P)

    # spot-validate the window arithmetic against the engine first
    rng = random.Random(20260823)
    sample_windows = [_sp20_window_of(w)]
    all_vals = list(range(1, 11))
    for _ in range(12):
        signs = [rng.choice((1, -1)) for _ in range(10)]
        order = rng.sample(all_vals, 10)
        kw = [order[a] if signs[a] > 0 else 21 - order[a] for a in range(10)]
        for lo, hi in _SP20_BLOCKS:
            kw[lo:hi] = sorted(kw[lo:hi])
        sample_windows.append(tuple(kw))
    mismatches = 0
    for kw in sample_windows:
        elt = _sp20_element_from_window(sys, kw)
        if not is_min_coset_rep(elt, P):
            mismatches += 1
            continue
        fast = _sp20_cutoffs_from_window(kw, roots, faces, pvals, facemat)
        for kind in ("m", "n"):
            engine = ic_cutoffs(P, elt, kind)
            engine = {
                frozenset(rest.index(i) for i in a): v
                for a, v in engine.items()
            }
            if engine != fast[kind]:
                mismatches += 1
            direct, _ = _first_config_verdict(
                P.restricted_indices, ic_cutoffs(P, elt, kind)
            )
            if direct != _first_config_from_cutoffs(fast[kind], range(4)):
                mismatches += 1
    rec.add(
        "sp20x/window-arithmetic-validated (13 samples)",
        "DERIVED",
        0,
        mismatches,
    )

    # enumerate: 1024 sign patterns x 12600 block-sorted value partitions
    parts = []
    for b1 in itertools.combinations(all_vals, 1):
        r1 = sorted(set(all_vals) - set(b1))
        for b2 in itertools.combinations(r1, 2):
            r2 = sorted(set(r1) - set(b2))
            for b3 in itertools.combinations(r2, 3):
                b4 = tuple(sorted(set(r2) - set(b3)))
                parts.append(b1 + b2 + b3 + b4)
    part = np.array(parts, dtype=np.int16)
    npart = len(parts)

    chunk = 32
    nchunks = 1024 // chunk
    state = {"chunk": 0, "count": {"m": 0, "n": 0}, "matches": {"m": [], "n": []}}
    if checkpoint and os.path.exists(checkpoint):
        with open(checkpoint) as fh:
            saved = json.load(fh)
        if saved.get("chunk_size") == chunk:
            state = {k: saved[k] for k in ("chunk", "count", "matches")}
            if progress:
                progress(f"resuming at sign chunk {state['chunk']}/{nchunks}")

    arange = np.arange(1, 11, dtype=np.int16)
    for ci in range(state["chunk"], nchunks):
        lo = ci * chunk
        sv = np.array(
            [[1 if s >> k & 1 else 0 for k in range(10)] for s in range(lo, lo + chunk)],
            dtype=np.int16,
        )
        K = np.where(sv == 1, arange, 21 - arange)  # (chunk, 10)
        Kmat = K[:, part - 1]  # (chunk, npart, 10)
        segs = [Kmat[:, :, a:b] for a, b in _SP20_BLOCKS]
        Kwin = np.concatenate(
            [s if s.shape[2] == 1 else np.sort(s, axis=2) for s in segs], axis=2
        )
        cuts = _sp20_cutoffs_from_window(
            [Kwin[:, :, k].ravel() for k in range(10)], roots, faces, pvals, facemat
        )
        flat = Kwin.reshape(-1, 10)
        for kind in ("m", "n"):
            hit = _first_config_from_cutoffs(cuts[kind], range(4))
            state["count"][kind] += int(hit.sum())
            for row in flat[hit]:
                state["matches"][kind].append([int(x) for x in row])
        state["chunk"] = ci + 1
        if checkpoint:
            tmp = checkpoint + ".tmp"
            with open(tmp, "w") as fh:
                json.dump({"chunk_size": chunk, **state}, fh)
            os.replace(tmp, checkpoint)
        if progress:
            progress(
                f"sign chunk {ci + 1}/{nchunks}: "
                f"n-matches {state['count']['n']}, m-matches {state['count']['m']}"
            )

    rec.add(
        "sp20x/representatives-enumerated",
        "TRIVIAL",
        _SP20_TOTAL,
        1024 * npart,
    )
    rec.add(
        "sp20x/first-configuration-count-n", "PAPER", 3, state["count"]["n"]
    )
    rec.add(
        "sp20x/footnote-element-among-matches-n",
        "DERIVED",
        True,
        list(_sp20_window_of(w)) in state["matches"]["n"],
    )
    rec.add(
        "sp20x/first-configuration-count-m (recorded)",
        "DERIVED",
        "(recorded)",
        str(state["count"]["m"]),
        passed=True,
    )


# -- micro-support suites --------------------------------------------------


def _lam_grid(rank, bound=2):
    return list(itertools.product(range(bound + 1), repeat=rank))


def _selfdual_grid(rank, bound=2):
    # palindromic fundamental coordinates (type A opposition)
    return [
        lam
        for lam in _lam_grid(rank, bound)
        if lam == tuple(reversed(lam))
    ]


_MS_GRID = [
    ("A", 2, _selfdual_grid(2)),
    ("A", 3, _selfdual_grid(3)),
    ("C", 2, _lam_grid(2)),
    ("C", 3, _lam_grid(3)),
]


def _closed_form_pushforward(system, lam):
    out = []
    for levi in subsets(range(system.rank)):
        P = parabolic(system, levi)
        for c in kostant_decomposition(lam, P):
            if not is_self_contragredient(c):
                continue
            if all(v <= 0 for v in c.scaled_pairings()):
                out.append((tuple(sorted(levi)), c.degree, tuple(c.mu)))
    return sorted(out)


def _suite_ms_pushforward(rec: _Recorder, **_):
    for typ, rank in [("A", 2), ("C", 2), ("C", 3)]:
        system = build_root_system(typ, rank)
        for lam in [(0,) * rank, (1,) * rank]:
            entries = micro_support("pushforward", lam, system)
            got = sorted(
                (tuple(sorted(e.P.levi)), e.cls.degree, tuple(e.cls.mu))
                for e in entries
            )
            expected = _closed_form_pushforward(system, lam)
            tag = f"{typ}{rank} lam={lam}"
            rec.add(
                f"pushforward/closed-form-set {tag}",
                "PAPER",
                f"{len(expected)} entries, sets equal",
                f"{len(got)} entries, sets {'equal' if got == expected else 'differ'}",
            )
            bad = [
                e
                for e in entries
                if not (e.c == e.d == e.cls.degree and len(e.window) == 1)
                or e.window[0][0] != frozenset(e.P.restricted_indices)
            ]
            ok = "c = d = length at the open face"
            rec.none(f"pushforward/degrees-and-windows {tag}", "PAPER", bad, ok)


_EMS = "emS = {E} everywhere"


def _ems_is_trivial_class(entries) -> bool:
    return (
        len(entries) == 1
        and entries[0].P.is_full
        and entries[0].cls.degree == 0
    )


def _suite_ms_ic(rec: _Recorder, **_):
    oracle = RealFormOracle()
    for typ, rank, lams in _MS_GRID:
        system = build_root_system(typ, rank)
        for kind in ("m", "n"):
            bad_ems, bad_fund, points = [], [], 0
            cd_equal = cd_total = 0
            for lam in lams:
                points += 1
                ms = micro_support("ic", lam, system, kind=kind)
                ess = [e for e in ms if e.essential]
                if not _ems_is_trivial_class(ess):
                    bad_ems.append(lam)
                for e in ms:
                    if not e.essential and not classify_fundamental(e):
                        bad_fund.append((lam, e))
                cd_total += 1
                if global_degree_bounds(ms, oracle) == global_degree_bounds(
                    ess, oracle
                ):
                    cd_equal += 1
            tag = f"{typ}{rank} {kind} ({points} weights)"
            rec.none(f"ms-ic/essential-is-trivial-class {tag}", "PAPER", bad_ems, _EMS)
            name = f"ms-ic/non-essential-all-fundamental {tag}"
            rec.none(name, "PAPER", bad_fund, "all fundamental")
            rec.add(
                f"ms-ic/cd-bounds-via-essential (recorded) {tag}",
                "DERIVED",
                "(recorded)",
                f"global bounds agree on {cd_equal}/{cd_total} weights",
                passed=True,
            )


def _suite_ms_wc(rec: _Recorder, **_):
    for typ, rank, lams in _MS_GRID:
        system = build_root_system(typ, rank)
        for profile in ("mu", "nu"):
            bad = []
            for lam in lams:
                ms = micro_support("wc", lam, system, profile=profile)
                ess = [e for e in ms if e.essential]
                if not _ems_is_trivial_class(ess):
                    bad.append(lam)
            tag = f"{typ}{rank} {profile} ({len(lams)} weights)"
            rec.none(f"ms-wc/essential-is-trivial-class {tag}", "PAPER", bad, _EMS)


# -- degree / perversity property suites -----------------------------------

_RANK3_SYSTEMS = [
    ("A", 1),
    ("A", 2),
    ("B", 2),
    ("C", 2),
    ("A", 3),
    ("B", 3),
    ("C", 3),
]


def _module_self_dual(system, lam_coords) -> bool:
    lam = system.weight_from_fundamental(lam_coords)
    return levi_self_dual(system, frozenset(range(system.rank)), lam)


def _suite_basic_lemma(rec: _Recorder, **_):
    for typ, rank in _RANK3_SYSTEMS:
        system = build_root_system(typ, rank)
        checked = n_r2 = 0
        bad_bound, bad_zero, bad_r2 = [], [], []
        for lam in _lam_grid(rank):
            module_sd = _module_self_dual(system, lam)
            for levi in subsets(range(rank)):
                P = parabolic(system, levi)
                if P.is_full:
                    continue
                rest = P.restricted_indices
                faces = {}
                for a in subsets(rest)[:-1]:
                    Q = face_parabolic(P, a)
                    faces[a] = Q, dim_nilradical(Q)
                dim_p = dim_nilradical(P)
                for c in kostant_decomposition(lam, P):
                    if not is_self_contragredient(c):
                        continue
                    # signs only: positive multiples of the pairings
                    pair = dict(zip(rest, c.scaled_pairings()))
                    nonpos = all(v <= 0 for v in pair.values())
                    nonneg = all(v >= 0 for v in pair.values())

                    def key():
                        return (lam, sorted(levi), c.w.reduced_word())

                    if nonpos or nonneg:
                        checked += 1
                        for Q, dim in faces.values():
                            two_l = 2 * bidegree(c.w, Q)
                            if nonpos and two_l < dim:
                                bad_bound.append(("lo", *key()))
                            if nonneg and two_l > dim:
                                bad_bound.append(("hi", *key()))
                        # boundary clause needs the whole module self-dual
                        if (
                            module_sd
                            and 2 * c.degree == dim_p
                            and any(v != 0 for v in pair.values())
                        ):
                            bad_zero.append(key())
                    if len(rest) == 2:
                        # mixed-sign slice: adjoin the nonpositive root first
                        for a1, a2 in (rest, tuple(reversed(rest))):
                            if not (pair[a1] <= 0 and pair[a2] >= 0):
                                continue
                            n_r2 += 1
                            q1, d1 = faces[frozenset({a1})]
                            q2, d2 = faces[frozenset({a2})]
                            l1 = 2 * bidegree(c.w, q1)
                            l2 = 2 * bidegree(c.w, q2)
                            two_l = 2 * c.degree
                            if l1 >= d1 and not two_l >= dim_p:
                                bad_r2.append(key())
                            if l2 <= d2 and not two_l <= dim_p:
                                bad_r2.append(key())
                            if l1 > d1 and not two_l > dim_p:
                                bad_r2.append(key())
                            if l2 < d2 and not two_l < dim_p:
                                bad_r2.append(key())
        tag = f"{typ}{rank} ({checked} classes)"
        rec.none(f"basic-lemma/bidegree-bounds {tag}", "PAPER", bad_bound)
        rec.none(
            f"basic-lemma/half-length-forces-zero-pairings {tag}", "PAPER", bad_zero
        )
        if n_r2:
            name = "basic-lemma/mixed-sign-two-root-slice"
            rec.none(f"{name} {typ}{rank} ({n_r2} instances)", "PAPER", bad_r2)


_DELIGNE_GRID = [
    ("A", 1, _lam_grid(1)),
    ("A", 2, _lam_grid(2)),
    ("C", 2, _lam_grid(2)),
    ("A", 3, [(0, 0, 0), (1, 0, 1), (1, 1, 1)]),
    ("B", 3, [(0, 0, 0), (1, 1, 1)]),
    ("C", 3, [(0, 0, 0), (1, 1, 1)]),
]


def _profile_verdicts(grid, check):
    """Each grid row's typ, rank and ic threads (P, class, kind, verdict), the
    verdict being check of the thread's profile, run once per profile in one
    walk: threads with equal profiles are equal modules."""
    check = cache(check)
    for typ, rank, lams in grid:
        system = build_root_system(typ, rank)
        yield typ, rank, [
            (P, c, kind, check(thread_key("ic", c, kind=kind)))
            for lam in lams
            for levi in subsets(range(rank))[:-1]  # the full Levi has no threads
            for P in [parabolic(system, levi)]
            for c in kostant_decomposition(lam, P)
            for kind in ("m", "n")
        ]


def _deligne_failures(key) -> tuple[list, list]:
    """The deligne violations of the thread with this profile.

    Returns the faces whose local cohomology lives above the cutoff, and the
    (face, degree) pairs up to the cutoff where it differs from the link's.
    """
    index_set, cuts = key
    thread = build_thread(key)
    vanish, attach = [], []
    # subsets order lists the proper faces first, as the cutoffs do
    for a, cut in zip(subsets(index_set), cuts):
        loc = local_complex(thread, a)[0].cohomology()
        if any(d > cut for d in loc.degrees()):
            vanish.append(sorted(a))
            continue
        link = link_cohomology(thread, a)
        lo = min(loc.degrees() + link.degrees(), default=0)
        for j in range(lo, cut + 1):
            if (loc.free_rank(j), loc.torsion(j)) != (
                link.free_rank(j),
                link.torsion(j),
            ):
                attach.append((sorted(a), j))
    return vanish, attach


def _suite_deligne(rec: _Recorder, **_):
    for typ, rank, threads in _profile_verdicts(_DELIGNE_GRID, _deligne_failures):
        bad_vanish, bad_attach = [], []
        for _, c, kind, (vanish, attach) in threads:
            if vanish or attach:
                word = c.w.reduced_word()
                bad_vanish += [(typ, word, kind, a) for a in vanish]
                bad_attach += [(typ, word, kind, a, j) for a, j in attach]
        tag = f"{typ}{rank} ({len(threads)} threads)"
        rec.none(f"deligne/stalk-vanishing-above-cutoff {tag}", "PAPER", bad_vanish)
        rec.none(f"deligne/attaching-iso-up-to-cutoff {tag}", "PAPER", bad_attach)


def _suite_spectral(rec: _Recorder, **_):
    idx = (0, 1, 2)
    full = frozenset(idx)
    proper = [a for a in subsets(idx) if a != full]
    results = {"open-star-covering": [], "fibration": []}
    checked = 0
    for bits in range(1 << len(proper)):
        cuts = {
            a: (-inf if bits >> i & 1 else inf) for i, a in enumerate(proper)
        }
        mod = ic_module(idx, cuts)
        for a in subsets(idx):
            if not a or a == full:
                continue
            direct = open_complement_cohomology(mod, a)
            pages = {
                "open-star-covering": mv_abutment_ranks(mv_E1_page(mod, a)),
                "fibration": fary_abutment_ranks(fary_E1_page(mod, a)),
            }
            checked += 1
            for name, ab in pages.items():
                for k in range(-2, 6):
                    if ab.get(k, 0) == 0 and (
                        direct.free_rank(k) or direct.torsion(k)
                    ):
                        results[name].append((bits, sorted(a), k))
    for name, bad in results.items():
        check = f"spectral/{name}-vanishing-implies-direct ({checked} instances)"
        rec.none(check, "PAPER", bad)


def _suite_functoriality(rec: _Recorder, **_):
    for rank in (2, 3):
        system = build_root_system("C", rank)
        datum = baily_borel(system)
        for kind in ("m", "n"):
            for lam in [(0,) * rank, (1,) * rank]:
                lines, ok = [], True
                for R in saturated_parabolics(datum):
                    if R.is_full:
                        continue
                    fr = restrict_to_fiber(
                        datum, R, "ic", lam, kind=kind
                    )
                    ok = ok and fr.bounds_hold
                    lines.append(
                        f"R={sorted(i + 1 for i in R.levi)}: "
                        f"d*={fr.d_star}<= {fr.d_bound}, "
                        f"c!={fr.c_shriek}>= {fr.c_bound}"
                    )
                rec.add(
                    f"functoriality/C{rank}-{kind} lam={lam}",
                    "PAPER",
                    "both degree bounds hold for every proper saturated R",
                    "; ".join(lines) if ok else "BOUND VIOLATED: " + "; ".join(lines),
                    passed=ok,
                )


def _suite_satake_figure(rec: _Recorder, **_):
    system = build_root_system("C", 8)
    datum = baily_borel(system)
    P = parabolic(system, {0, 1, 3, 5, 6, 7})
    kappa, zeta = kappa_zeta(datum, P.levi)
    rec.add(
        "satake/kappa-of-P",
        "PAPER",
        "[6, 7, 8]",
        sorted(i + 1 for i in kappa),
    )
    rec.add(
        "satake/zeta-of-P",
        "PAPER",
        "[1, 2, 4]",
        sorted(i + 1 for i in zeta),
    )
    dag = p_dagger(datum, P)
    rec.add(
        "satake/P-dagger-levi",
        "PAPER",
        "[1, 2, 3, 4, 6, 7, 8]",
        sorted(i + 1 for i in dag.levi),
    )
    k2, z2 = kappa_zeta(datum, dag.levi)
    rec.add(
        "satake/kappa-zeta-of-P-dagger",
        "PAPER",
        "kappa [6, 7, 8], zeta [1, 2, 3, 4]",
        f"kappa {sorted(i + 1 for i in k2)}, "
        f"zeta {sorted(i + 1 for i in z2)}",
    )
    rec.add("satake/P-dagger-saturated", "TRIVIAL", True, is_saturated(datum, dag))
    for rank in (2, 3, 4):
        sysn = build_root_system("C", rank)
        dn = baily_borel(sysn)
        sats = saturated_parabolics(dn)
        expected = sorted(
            [frozenset(range(rank)) - {i} for i in range(rank)]
            + [frozenset(range(rank))],
            key=lambda s: (len(s), sorted(s)),
        )
        got = sorted(
            (R.levi for R in sats), key=lambda s: (len(s), sorted(s))
        )
        rec.add(
            f"satake/C{rank}-saturated-are-maximal-or-full",
            "DERIVED",
            [sorted(i + 1 for i in s) for s in expected],
            [sorted(i + 1 for i in s) for s in got],
        )
        total = sum(len(fiber_strata(dn, R)) for R in sats)
        rec.add(
            f"satake/C{rank}-fibers-partition-parabolics",
            "DERIVED",
            2**rank,
            total,
        )


def _local_cohomologies(module) -> list:
    return [
        local_complex(module, a)[0].cohomology()
        for a in subsets(module.index_set)
    ]


def _order_failures(key) -> tuple[bool, list]:
    """Whether both builds of this profile's thread, in ic_module's default
    order and with size ties broken the other way, pass their structure-map
    check, and the faces where their local cohomologies differ."""
    index_set, cuts = key
    faces = subsets(index_set)[:-1]
    order2 = sorted(faces, key=len, reverse=True)
    try:
        m1 = build_thread(key)
        m2 = ic_module(index_set, dict(zip(faces, cuts)), order=order2)
    except AssertionError:
        return False, []
    pairs = zip(subsets(index_set), _local_cohomologies(m1), _local_cohomologies(m2))
    return True, [sorted(a) for a, h1, h2 in pairs if h1 != h2]


def _suite_order_invariance(rec: _Recorder, **_):
    grid = [
        ("A", 2, [(1, 1)]),
        ("C", 2, [(0, 0), (1, 1)]),
        ("C", 3, [(0, 0, 0), (1, 1, 1)]),
    ]
    threads = 0
    bad_cond, bad_order = [], []
    for typ, _, rows in _profile_verdicts(grid, _order_failures):
        threads += len(rows)
        for _, c, kind, (condition, faces) in rows:
            if not condition:
                bad_cond.append((typ, c.w.reduced_word(), kind))
            bad_order += [(typ, c.w.reduced_word(), kind, a) for a in faces]
    name = f"order/structure-map-condition ({threads} threads, two orders)"
    rec.none(name, "TRIVIAL", bad_cond, "all satisfy the triangle identity")
    name = f"order/local-cohomology-order-independent ({threads} threads)"
    rec.none(name, "DERIVED", bad_order, "no differences")


def _aon_failures(key) -> tuple[str, ...]:
    """The all-or-nothing rules whose own profile changes the local cohomology
    of this one: "marks" cuts (-inf) where the exact truncation removed a
    class, "sign" where the cutoff is negative, and both keep the rest."""
    index_set, cuts = key
    faces = subsets(index_set)[:-1]
    exact = build_thread(key)
    marks = truncation_marks(exact, dict(zip(faces, cuts)))
    rules = {
        "marks": tuple(-inf if marks[a] else inf for a in faces),
        "sign": tuple(-inf if v < 0 else inf for v in cuts),
    }
    local = _local_cohomologies(exact)
    return tuple(
        rule for rule, aon in rules.items()
        if _local_cohomologies(build_thread((index_set, aon))) != local
    )


def _suite_allornothing(rec: _Recorder, **_):
    grid = [
        ("A", 2, _lam_grid(2)),
        ("C", 2, _lam_grid(2)),
        ("C", 3, [(0, 0, 0), (1, 1, 1)]),
    ]
    threads = 0
    bad = {"marks": [], "sign": []}
    for typ, _, rows in _profile_verdicts(grid, _aon_failures):
        threads += len(rows)
        for P, c, kind, rules in rows:
            for rule in rules:
                bad[rule].append((typ, sorted(P.levi), c.w.reduced_word(), kind))
    name = f"aon/exact-equals-cut-where-truncation-bites ({threads} threads)"
    rec.none(name, "DERIVED", bad["marks"], "no differences")
    rec.add(
        "aon/negative-cutoff-sign-rule-comparison (recorded)",
        "DERIVED",
        "(recorded)",
        f"{len(bad['sign'])} of {threads} threads differ"
        + (f", e.g. {bad['sign'][0]}" if bad["sign"] else ""),
        passed=True,
    )


def _suite_pairing_shift(rec: _Recorder, **_):
    systems = [("C", 2), ("C", 3), ("A", 3), ("B", 3)]
    checked = 0
    bad = []
    for typ, rank in systems:
        system = build_root_system(typ, rank)
        gram = system.gram
        for lam in [(0,) * rank, (1,) * rank]:
            for levi in subsets(range(rank)):
                P = parabolic(system, levi)
                if P.is_full:
                    continue
                rest = P.restricted_indices
                for c in kostant_decomposition(lam, P):
                    pair = dict(zip(rest, c.scaled_pairings()))
                    for a0 in rest:
                        adj = [
                            i
                            for i in rest
                            if i != a0 and gram[a0][i] != 0
                        ]
                        if len(adj) > 1:
                            continue
                        if any(gram[a0][j] != 0 for j in levi):
                            continue
                        if pair[a0] <= 0:
                            continue
                        checked += 1
                        _, comps = pairing_shift(c, a0)
                        for i, (up, down) in comps.items():
                            want_strict = i in adj
                            if want_strict and not up > down:
                                bad.append((typ, lam, sorted(levi), c.w.reduced_word(), a0, i))
                            if not want_strict and up != down:
                                bad.append((typ, lam, sorted(levi), c.w.reduced_word(), a0, i))
    name = f"pairing-shift/monotone-across-adjoined-root ({checked} instances)"
    rec.none(name, "DERIVED", bad)


# -- registry --------------------------------------------------------------

SUITES = {
    "rank2-table": (_suite_rank2, "rank-2 truncation value table"),
    "rank3-table": (_suite_rank3, "rank-3 truncation value table, all relabelings"),
    "rank4-config": (_suite_rank4, "rank-4 double-truncation profiles"),
    "footnote-sp20": (_suite_footnote, "Sp20 footnote element, fast checks"),
    "footnote-sp20-exhaustive": (
        _suite_footnote_exhaustive,
        "Sp20 footnote, full 12.9M-representative enumeration (opt-in)",
    ),
    "ms-pushforward": (_suite_ms_pushforward, "pushforward micro-support closed form"),
    "ms-ic": (_suite_ms_ic, "perversity-family essential micro-support"),
    "ms-wc": (_suite_ms_wc, "weight-family essential micro-support"),
    "basic-lemma": (_suite_basic_lemma, "bidegree bounds under sign hypotheses"),
    "deligne": (_suite_deligne, "stalk vanishing and attaching isomorphisms"),
    "spectral-consistency": (_suite_spectral, "E1-page vanishing consistency"),
    "functoriality": (_suite_functoriality, "fiber-restriction degree bounds"),
    "satake-figure": (_suite_satake_figure, "C8 connectivity-split figure"),
    "order-invariance": (_suite_order_invariance, "truncation order independence"),
    "allornothing": (_suite_allornothing, "exact vs all-or-nothing cutoffs"),
    "pairing-shift": (_suite_pairing_shift, "pairing comparison across one root"),
}

DEFAULT_SUITES = [n for n in SUITES if n != "footnote-sp20-exhaustive"]


def run_suite(name: str, progress=None, checkpoint=None) -> SuiteResult:
    if name not in SUITES:
        raise UnknownSuiteError(name)
    func, _ = SUITES[name]
    rec = _Recorder()
    t0 = time.perf_counter()
    func(rec, progress=progress, checkpoint=checkpoint)
    return SuiteResult(name, rec.checks, time.perf_counter() - t0)
