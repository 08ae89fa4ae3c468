"""Command-line surface: build codes, certify parameters, run the invariant
suites, and emit the parameter tables.

Exit codes: 0 pass, 1 verification mismatch, 2 usage error or an output
file that cannot be written (found when it is written, after the work), 3
budget exceeded.  The one budget is read from HERMGRASS_BUDGET_MESSAGES
only, and a malformed value exits 2 up front.  `walk.require_budget`
decides whether a command's enumeration may start: one that does not
apply to the family exits 2, and one whose size, read off (family, ell,
q), exceeds the budget exits 3, both before any generator is built.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from . import analysis as an
from . import reports
from . import verify as verify_mod
from .codebuild import (
    FAMILY_AFFINE,
    FAMILY_HERMITIAN,
    CodeSpec,
    build_generator,
    read_generator,
    write_generator,
)
from .dual import DEFAULT_SEED
from .errors import BudgetExceeded, NoneFoundWithinBound
from .galois import SUPPORTED_Q
from .hermitian import decode
from .walk import budget_messages, require_budget

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


@functools.cache  # one parser per process: each parser is a cluster of reference cycles
def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="hermgrass",
        description="Affine Hermitian Grassmann codes: exact construction and certification.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add_common(sp, ells, family=False, report=True):
        sp.add_argument("--q", type=int, required=True, choices=sorted(SUPPORTED_Q))
        sp.add_argument("--ell", type=int, required=True, choices=ells)
        if family:
            sp.add_argument(
                "--family", choices=(FAMILY_HERMITIAN, FAMILY_AFFINE), default=FAMILY_HERMITIAN
            )
        if report:
            sp.add_argument("--format", choices=("text", "tree"), default="text")
            sp.add_argument("--out", default=None, help="write the report to a file")

    sp = sub.add_parser("params", help="closed-form parameters n, k, d for both families")
    add_common(sp, ells=(1, 2, 3, 4))

    sp = sub.add_parser("gen", help="build a generator matrix and write it to a file")
    add_common(sp, ells=(1, 2, 3), family=True, report=False)
    sp.add_argument("--out", required=True, help="the generator file to write")

    sp = sub.add_parser("mindist", help="minimum-distance certificate")
    add_common(sp, ells=(1, 2, 3), family=True)
    sp.add_argument("--method", choices=("formula", "subfield", "exhaustive"), default=None,
                    help="default: the family's certifying enumeration")
    sp.add_argument("--threads", type=int, default=1)

    sp = sub.add_parser("dualdist", help="dual minimum-distance certificate")
    add_common(sp, ells=(2, 3))
    sp.add_argument("--max-t", type=int, default=4, choices=(1, 2, 3, 4))

    sp = sub.add_parser("verify", help="run an invariant suite")
    sp.add_argument("--suite", choices=(*verify_mod.SUITES, "all"), default="all")
    sp.add_argument("--seed", type=int, default=DEFAULT_SEED)
    sp.add_argument("--format", choices=("text", "tree"), default="text")
    sp.add_argument("--out", default=None)

    sp = sub.add_parser("table", help="parameter tables for ell = 2 and 3, comma-separated")
    sp.add_argument("--ell", type=int, choices=(2, 3), default=None,
                    help="emit one table only (default: both)")
    sp.add_argument("--out", default=None)
    return p


def _emit(text: str, out):
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_params(args) -> int:
    spec = CodeSpec(FAMILY_HERMITIAN, args.q, args.ell)
    d_h = an.distance_formula(FAMILY_HERMITIAN, args.ell, args.q)[0]
    report = {
        "command": "params",
        "q": args.q,
        "ell": args.ell,
        "n": spec.n,
        "k": spec.k,
        "d_hermitian": d_h if d_h is not None else "n/a",
        "d_affine": an.distance_formula(FAMILY_AFFINE, args.ell, args.q)[0],
    }
    _emit(reports.render(report, args.format), args.out)
    return EXIT_OK


def cmd_gen(args) -> int:
    gen = build_generator(args.family, args.ell, args.q)
    write_generator(gen, args.out)
    try:
        back = read_generator(args.out)
    except ValueError as exc:
        print(f"error: read-back mismatch: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    print(gen.spec.header)
    print(f"rank = {back.rank} (verified on read-back)")
    return EXIT_OK


def cmd_mindist(args) -> int:
    if not 1 <= args.threads <= (os.cpu_count() or 1):
        raise ValueError(f"--threads must be in 1..{os.cpu_count() or 1}, got {args.threads}")
    if args.method == "formula":
        cert = an.min_distance_formula(args.family, args.ell, args.q)
    else:
        require_budget(CodeSpec(args.family, args.q, args.ell), args.method)
        gen = build_generator(args.family, args.ell, args.q)
        cert = an.min_distance(gen, args.method, threads=args.threads)
    report = cert.as_dict()
    formula = an.distance_formula(args.family, args.ell, args.q)[0]
    mismatch = False
    if formula is not None:
        report["formula"] = formula
        report["matches_formula"] = cert.d == formula
        mismatch = cert.d != formula
    _emit(reports.render(report, args.format), args.out)
    return EXIT_MISMATCH if mismatch else EXIT_OK


def cmd_dualdist(args) -> int:
    require_budget(CodeSpec(FAMILY_HERMITIAN, args.q, args.ell), "dual", args.max_t)
    gen = build_generator(FAMILY_HERMITIAN, args.ell, args.q)
    try:
        cert = an.dual_min_distance(gen, max_t=args.max_t)
    except NoneFoundWithinBound as exc:
        report = {"command": "dualdist", "q": args.q, "ell": args.ell,
                  "d_dual": f"> {exc.max_t}", "searched_upto": exc.max_t}
        _emit(reports.render(report, args.format), args.out)
        return EXIT_OK
    report = cert.as_dict()
    report["support"] = [
        {"position": int(t), "coefficient": int(c),
         "matrix": decode(gen.tower, args.ell, FAMILY_HERMITIAN, t).tolist()}
        for t, c in zip(cert.columns, cert.coefficients)
    ]
    expected = an.dual_distance_formula(args.q)
    report["expected"] = expected
    report["matches_expected"] = cert.d_dual == expected
    _emit(reports.render(report, args.format), args.out)
    return EXIT_OK if cert.d_dual == expected else EXIT_MISMATCH


def cmd_verify(args) -> int:
    live = args.format == "text" and not args.out
    lines = []

    def emit(line):
        if live:
            print(line)
        lines.append(line)

    results = verify_mod.run_suite(args.suite, args.seed, emit=emit)
    passed = sum(1 for r in results if r["ok"])
    summary = f"{passed}/{len(results)} checks passed (suite={args.suite}, seed={args.seed})"
    emit(summary)
    if args.format == "tree":
        _emit(reports.to_tree({"suite": args.suite, "seed": args.seed,
                               "results": results, "summary": summary}), args.out)
    elif not live:
        _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK if passed == len(results) else EXIT_MISMATCH


def _table_rows(ell: int):
    """One row per q; a cell is re-certified by enumeration in both families
    when both certifying walks fit the budget."""
    rows = []
    mismatch = False
    for q in sorted(SUPPORTED_Q):
        spec = CodeSpec(FAMILY_HERMITIAN, q, ell)
        d_a = an.distance_formula(FAMILY_AFFINE, ell, q)[0]
        d_h = an.distance_formula(FAMILY_HERMITIAN, ell, q)[0]
        try:
            for family in (FAMILY_HERMITIAN, FAMILY_AFFINE):
                require_budget(CodeSpec(family, q, ell))
        except BudgetExceeded:
            certified = "no"
        else:
            cert_h = an.min_distance(build_generator(FAMILY_HERMITIAN, ell, q))
            cert_a = an.min_distance(build_generator(FAMILY_AFFINE, ell, q))
            if cert_h.d == d_h and cert_a.d == d_a:
                certified = "certified"
            else:
                certified = f"MISMATCH(H={cert_h.d},A={cert_a.d})"
                mismatch = True
        rows.append((q, spec.n, spec.k, d_a, d_h, certified))
    return rows, mismatch


def cmd_table(args) -> int:
    ells = (args.ell,) if args.ell else (2, 3)
    out_lines = []
    any_mismatch = False
    for ell in ells:
        out_lines.append(f"# ell = {ell}")
        out_lines.append("q,n,k,d(C^A),d(C^H),certified")
        rows, mismatch = _table_rows(ell)
        any_mismatch = any_mismatch or mismatch
        for row in rows:
            out_lines.append(",".join(str(v) for v in row))
    _emit("\n".join(out_lines) + "\n", args.out)
    return EXIT_MISMATCH if any_mismatch else EXIT_OK


_DISPATCH = {
    "params": cmd_params,
    "gen": cmd_gen,
    "mindist": cmd_mindist,
    "dualdist": cmd_dualdist,
    "verify": cmd_verify,
    "table": cmd_table,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_OK
    try:
        budget_messages()  # a malformed budget variable exits 2 before any command
        return _DISPATCH[args.command](args)
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
