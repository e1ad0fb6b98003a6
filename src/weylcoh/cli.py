"""Command-line front end.

Subcommands cover the computation surfaces (roots, kostant, microsupport,
simplex, satake) and the verification registry (verify).  Reports are
deterministic: identical inputs produce byte-identical documents.  Output
formats are json (structured entries), tsv (tables), and text (human
readable, with ASCII dot/line diagrams for low rank).

Exit codes: 0 success / all checks pass, 1 check failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import re
import sys
import time
from types import SimpleNamespace

from .kostant import is_self_contragredient, kostant_decomposition
from .microsupport import micro_support
from .posetmod import all_or_nothing, subsets
from .roots import (
    InvalidTypeError,
    build_root_system,
    check_type,
    codim_and_perversity,
    dim_nilradical,
    parabolic,
    weyl_group_order,
)
from .satake import (
    SatakeDatum,
    baily_borel,
    is_saturated,
    kappa_zeta,
    p_dagger,
)
from .suites import DEFAULT_SUITES, SUITES, UnknownSuiteError, run_suite
from .threads import PROFILES

EXIT_OK, EXIT_FAIL, EXIT_USAGE = 0, 1, 2

# most Kostant classes a kostant or microsupport call will enumerate, and
# most Levis a roots or satake call will list
MAX_CLASSES = 10**6


class UsageError(ValueError):
    pass


def _parse_indices(text: str, rank: int) -> frozenset:
    """Simple-root list like 'a1,a3', 'α1,α3', or '1,3' (1-based)."""
    out = set()
    for tok in text.split(","):
        tok = tok.strip()
        m = re.fullmatch(r"[aα]?([0-9]+)", tok)
        if not m:
            raise UsageError(f"bad simple-root token {tok!r}")
        i = int(m[1])
        if not 1 <= i <= rank:
            raise UsageError(f"simple-root index {i} outside 1..{rank}")
        out.add(i - 1)
    return frozenset(out)


def _parse_lambda(text: str, rank: int) -> tuple:
    try:
        coords = tuple(int(x) for x in text.split(","))
    except ValueError:
        raise UsageError(f"bad weight coordinates {text!r}")
    if len(coords) != rank or any(c < 0 for c in coords):
        raise UsageError(
            f"need {rank} nonnegative fundamental coordinates, got {text!r}"
        )
    return coords


def _check_class_count(args, levis) -> None:
    """Refuse more than MAX_CLASSES classes in all, before the root system
    is built: each Levi L adds |W| / |W_L|, and the sum stops once past."""
    check_type(args.type, args.rank)
    # the type and the rank are all that weyl_group_order reads
    shape = SimpleNamespace(cartan_type=args.type, rank=args.rank)
    order = weyl_group_order(shape, range(args.rank))
    count = 0
    for levi in levis:
        count += order // weyl_group_order(shape, levi)
        if count > MAX_CLASSES:
            raise UsageError(
                f"at least {count} Kostant classes to enumerate, "
                f"above the limit of {MAX_CLASSES}"
            )


def _levi_rows(args) -> list:
    """The --levi Levi alone, or all 2^rank Levis; more than MAX_CLASSES of
    them are refused before the root system is built."""
    if args.levi is not None:
        return [args.levi]
    check_type(args.type, args.rank)
    # 2^rank > MAX_CLASSES, without computing 2^rank
    if args.rank >= MAX_CLASSES.bit_length():
        raise UsageError(
            f"2^{args.rank} Levis to list, above the limit of {MAX_CLASSES}; "
            "give --levi"
        )
    return subsets(range(args.rank))


def _face_name(a) -> str:
    return "-" if not a else "".join(f"a{i + 1}" for i in sorted(a))


# -- document rendering ----------------------------------------------------


def _emit(doc: dict, fmt: str, out):
    if fmt == "json":
        out.write(json.dumps(doc, indent=2, default=str) + "\n")
        return
    header = doc.get("columns", [])
    rows = doc.get("rows", [])
    if fmt == "tsv":
        out.write("\t".join(header) + "\n")
        for r in rows:
            out.write("\t".join(str(x) for x in r) + "\n")
        return
    for line in doc.get("preamble", []):
        out.write(line + "\n")
    if rows:
        widths = [
            max(len(str(h)), *(len(str(r[i])) for r in rows))
            for i, h in enumerate(header)
        ]
        out.write(
            "  ".join(str(h).ljust(w) for h, w in zip(header, widths)).rstrip()
            + "\n"
        )
        for r in rows:
            out.write(
                "  ".join(
                    str(x).ljust(w) for x, w in zip(r, widths)
                ).rstrip()
                + "\n"
            )


# -- subcommands -----------------------------------------------------------


def cmd_roots(args, out) -> int:
    levis = _levi_rows(args)
    system = build_root_system(args.type, args.rank)
    rows = []
    for levi in levis:
        P = parabolic(system, levi)
        if P.is_full:
            codim = pm = pn = "-"
        else:
            codim, pm = codim_and_perversity(P, "m")
            _, pn = codim_and_perversity(P, "n")
        rows.append(
            [
                _face_name(levi),
                _face_name(P.restricted_indices),
                dim_nilradical(P),
                codim,
                pm,
                pn,
            ]
        )
    doc = {
        "command": "roots",
        "group": f"{args.type}{args.rank}",
        "columns": ["levi", "restricted", "dim-nilradical", "codim", "p-m", "p-n"],
        "rows": rows,
        "preamble": [
            f"{args.type}{args.rank}: "
            f"{len(system.positive_roots)} positive roots"
        ],
    }
    _emit(doc, args.format, out)
    return EXIT_OK


def cmd_kostant(args, out) -> int:
    _check_class_count(args, [args.levi])
    system = build_root_system(args.type, args.rank)
    P = parabolic(system, args.levi)
    rows = []
    for c in kostant_decomposition(args.lam, P):
        signs = ["0" if v == 0 else ("+" if v > 0 else "-")
                 for v in c.scaled_pairings()]
        rows.append(
            [
                "".join(str(x + 1) for x in c.w.reduced_word()) or "e",
                c.degree,
                ",".join(str(x) for x in c.mu),
                "".join(signs),
                "yes" if is_self_contragredient(c) else "no",
            ]
        )
    doc = {
        "command": "kostant",
        "group": f"{args.type}{args.rank}",
        "levi": _face_name(args.levi),
        "lambda": list(args.lam),
        "columns": ["word", "length", "mu", "pairing-signs", "self-dual"],
        "rows": rows,
        "preamble": [
            f"{len(rows)} classes for levi {_face_name(args.levi)}, "
            f"lambda {','.join(str(x) for x in args.lam)}"
        ],
    }
    _emit(doc, args.format, out)
    return EXIT_OK


def cmd_microsupport(args, out) -> int:
    if args.perversity and args.family != "ic":
        raise UsageError("--perversity only applies to the ic family")
    if args.weight_profile and args.family != "wc":
        raise UsageError("--weight-profile only applies to the wc family")
    if args.family == "ic" and not args.perversity:
        raise UsageError("the ic family needs --perversity m|n")
    if args.family == "wc" and not args.weight_profile:
        raise UsageError("the wc family needs --weight-profile mu|nu")
    # every Levi, lazily and in subsets order: the Borel comes first
    idx = range(args.rank)
    _check_class_count(args, (
        c for k in range(args.rank + 1) for c in itertools.combinations(idx, k)
    ))
    system = build_root_system(args.type, args.rank)
    entries = micro_support(
        args.family,
        args.lam,
        system,
        kind=args.perversity,
        profile=args.weight_profile,
    )
    rows = []
    for e in entries:
        rows.append(
            [
                _face_name(e.P.levi),
                "".join(str(x + 1) for x in e.cls.w.reduced_word()) or "e",
                e.cls.degree,
                e.c,
                e.d,
                "yes" if e.essential else "no",
                "yes" if e.fundamental else "no",
                "; ".join(f"{_face_name(a)}:{g}" for a, g in e.window),
            ]
        )
    doc = {
        "command": "microsupport",
        "group": f"{args.type}{args.rank}",
        "family": args.family,
        "perversity": args.perversity,
        "weight_profile": args.weight_profile,
        "lambda": list(args.lam),
        "columns": [
            "levi", "word", "length", "c", "d", "essential", "fundamental",
            "window",
        ],
        "rows": rows,
        "preamble": [f"{len(rows)} detected classes"],
    }
    _emit(doc, args.format, out)
    return EXIT_OK


def _simplex_diagram(n: int, marked: set) -> list[str]:
    def v(i):
        return "*" if frozenset({i}) in marked else "o"

    def e(i, j, mark_char, plain_char):
        return mark_char if frozenset({i, j}) in marked else plain_char

    if n == 1:
        return [f"  {v(0)} a1"]
    if n == 2:
        return [f"  a1 {v(0)}{e(0, 1, '===', '---')}{v(1)} a2"]
    if n == 3:
        return [
            f"        {v(0)} a1",
            f"       {e(0, 1, '/', '.')} {e(0, 2, chr(92), '.')}",
            f"  a2 {v(1)}{e(1, 2, '===', '---')}{v(2)} a3",
        ]
    return []


def cmd_simplex(args, out) -> int:
    n = args.rank
    if not 1 <= n <= 6:
        raise UsageError("simplex rank must be between 1 and 6")
    marked = set()
    if args.cut:
        for tok in args.cut.split(","):
            tok = tok.strip()
            # one bare label, or labels each led by a or α: 1, a1, a1a2
            if not re.fullmatch(r"[0-9]+|(?:[aα][0-9]+)+", tok):
                raise UsageError(f"bad face token {tok!r}")
            verts = {int(p) - 1 for p in re.findall(r"[0-9]+", tok)}
            if not all(0 <= i < n for i in verts):
                raise UsageError(f"bad face token {tok!r}")
            marked.add(frozenset(verts))
    if frozenset(range(n)) in marked:
        raise UsageError("the open face cannot be cut")
    h = all_or_nothing(n, marked)
    rows = [
        [d, h.free_rank(d), ",".join(str(t) for t in h.torsion(d)) or "-"]
        for d in h.degrees()
    ]
    preamble = []
    if args.format == "text" and n <= 3:
        preamble = _simplex_diagram(n, marked) + [""]
    preamble += (
        [f"degree {d}: rank {h.free_rank(d)}" for d in h.degrees()]
        if h.degrees()
        else ["zero"]
    )
    doc = {
        "command": "simplex",
        "rank": n,
        "cut": sorted(sorted(a) for a in marked),
        "value": str(h),
        "columns": ["degree", "rank", "torsion"],
        "rows": rows,
        "preamble": preamble,
    }
    _emit(doc, args.format, out)
    return EXIT_OK


def cmd_satake(args, out) -> int:
    levis = _levi_rows(args)
    system = build_root_system(args.type, args.rank)
    if not args.mu_support:
        if system.cartan_type != "C":
            raise UsageError(
                "the default weight support needs type C; give --mu-support"
            )
        datum = baily_borel(system)
    else:
        datum = SatakeDatum(system, args.mu_support)
    rows = []
    for levi in levis:
        P = parabolic(system, levi)
        kappa, zeta = kappa_zeta(datum, levi)
        dag = p_dagger(datum, P)
        rows.append(
            [
                _face_name(levi),
                _face_name(kappa),
                _face_name(zeta),
                _face_name(dag.levi),
                "yes" if is_saturated(datum, P) else "no",
            ]
        )
    doc = {
        "command": "satake",
        "group": f"{args.type}{args.rank}",
        "mu_support": sorted(i + 1 for i in datum.mu_support),
        "columns": ["levi", "kappa", "zeta", "dagger", "saturated"],
        "rows": rows,
        "preamble": [
            f"weight support: "
            f"{','.join('a' + str(i + 1) for i in sorted(datum.mu_support))}"
        ],
    }
    _emit(doc, args.format, out)
    return EXIT_OK


def cmd_verify(args, out) -> int:
    if args.list:
        for name in sorted(SUITES):
            out.write(f"{name}\t{SUITES[name][1]}\n")
        return EXIT_OK
    names = args.suites or DEFAULT_SUITES
    for n in names:
        if n not in SUITES:
            raise UnknownSuiteError(n)
    if args.checkpoint and os.path.exists(args.checkpoint):
        try:
            with open(args.checkpoint) as fh:
                json.load(fh)
        except (OSError, ValueError) as exc:
            raise UsageError(f"unreadable checkpoint {args.checkpoint!r}: {exc}")
    progress = (
        (lambda s: print(s, file=sys.stderr, flush=True))
        if args.progress
        else None
    )
    t0 = time.perf_counter()
    results = [
        run_suite(n, progress=progress, checkpoint=args.checkpoint)
        for n in names
    ]
    passed = all(r.passed for r in results)
    doc = {
        "command": "verify",
        "passed": passed,
        "elapsed": round(time.perf_counter() - t0, 3),
        "suites": [r.to_dict() for r in results],
    }
    if args.format == "json":
        out.write(json.dumps(doc, indent=2) + "\n")
    elif args.format == "tsv":
        out.write("suite\tcheck\ttag\texpected\tgot\tpassed\n")
        for r in results:
            for c in r.checks:
                out.write(
                    f"{r.suite}\t{c.name}\t{c.tag}\t{c.expected}\t{c.got}\t"
                    f"{'pass' if c.passed else 'FAIL'}\n"
                )
    else:
        for r in results:
            out.write(
                f"suite {r.suite}: {'PASS' if r.passed else 'FAIL'} "
                f"({r.elapsed:.2f}s)\n"
            )
            for c in r.checks:
                mark = "ok" if c.passed else "FAIL"
                out.write(
                    f"  [{mark:4}] {c.name} [{c.tag}]"
                    + (
                        ""
                        if c.passed
                        else f"  expected: {c.expected}  got: {c.got}"
                    )
                    + "\n"
                )
        out.write("all suites passed\n" if passed else "FAILURES present\n")
    return EXIT_OK if passed else EXIT_FAIL


# -- argument plumbing -----------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="weylcoh",
        description="exact verification engine for parabolic stratum posets",
    )
    sub = top.add_subparsers(dest="command", required=True)
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=("json", "tsv", "text"), default="text")
    group = argparse.ArgumentParser(add_help=False)
    group.add_argument(
        "--type", type=str.upper, required=True, help="Cartan type letter"
    )
    group.add_argument("--rank", type=int, required=True)

    def command(name, run, help, *parents):
        p = sub.add_parser(name, help=help, parents=[fmt, *parents])
        p.set_defaults(run=run)
        return p

    p = command("roots", cmd_roots, "parabolic and perversity bookkeeping", group)
    p.add_argument("--levi", default=None)

    p = command("kostant", cmd_kostant, "isotypical classes of a parabolic", group)
    p.add_argument("--levi", default="", help="empty for the minimal parabolic")
    p.add_argument("--lambda", dest="lam", required=True)

    p = command(
        "microsupport", cmd_microsupport, "detected classes of a family", group
    )
    p.add_argument(
        "--family", choices=("pushforward", "ic", "wc"), required=True
    )
    p.add_argument("--perversity", choices=("m", "n"), default=None)
    p.add_argument("--weight-profile", choices=PROFILES, default=None)
    p.add_argument("--lambda", dest="lam", required=True)

    p = command("simplex", cmd_simplex, "truncation profile on a simplex cone")
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--cut", default="", help="faces to cut, e.g. a1,a1a2")

    p = command("satake", cmd_satake, "connectivity splits and saturations", group)
    p.add_argument("--levi", default=None)
    p.add_argument(
        "--mu-support",
        default=None,
        help="simple roots touching the weight; default: type C long-root end",
    )

    p = command("verify", cmd_verify, "run registered verification suites")
    p.add_argument("suites", nargs="*", help="suite names; default: all fast")
    p.add_argument("--list", action="store_true", help="list registered suites")
    p.add_argument("--progress", action="store_true")
    p.add_argument("--checkpoint", default=None)
    return top


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        # an absent --levi of roots or satake stays None: list every Levi
        if getattr(args, "levi", None) is not None:
            args.levi = (
                _parse_indices(args.levi, args.rank) if args.levi else frozenset()
            )
        if hasattr(args, "lam"):
            args.lam = _parse_lambda(args.lam, args.rank)
        if getattr(args, "mu_support", None):
            args.mu_support = _parse_indices(args.mu_support, args.rank)
        return args.run(args, sys.stdout)
    except (UsageError, UnknownSuiteError, InvalidTypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
