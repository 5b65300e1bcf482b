"""Command-line front end.

Exit codes: 0 success (or all checks pass), 1 verification failure (also
a table-check process lost by `verify --all`), 2 usage error (including
capacity misuse).  Results go to stdout, diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys

from .poly import CapacityError, ExactPoly
from .series import egf_coefficient
from . import bijections, families, grammar, objects, verify

FAMILIES = ("N", "M", "A", "B", "C", "Q", "P", "R", "L", "Y", "d", "h", "qn")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="combi",
        description="Exact combinatorics of descent statistics, perfect "
                    "matchings and Stirling permutations.")
    sub = p.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run registered identity checks")
    g = v.add_mutually_exclusive_group(required=True)
    g.add_argument("--id", help="check id to run")
    g.add_argument("--all", action="store_true", help="run every check")
    v.add_argument("--max-n", type=int, default=None)
    v.add_argument("--format", choices=("text", "json"), default="text")

    q = sub.add_parser("poly", help="print a polynomial family member")
    q.add_argument("--family", required=True, choices=FAMILIES)
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--format", choices=("text", "csv", "json"), default="text")

    e = sub.add_parser("enumerate", help="stream a combinatorial class")
    e.add_argument("--class", dest="class_name", required=True,
                   choices=objects.CLASS_NAMES)
    e.add_argument("--n", type=int, required=True)
    e.add_argument("--s", default=None,
                   help="bound sequence for inversion sequences, e.g. 1,3,5")
    e.add_argument("--stats", action="store_true")
    e.add_argument("--format", choices=("jsonl",), default="jsonl")

    b = sub.add_parser("bijection", help="apply or certify an insertion map")
    b.add_argument("--map", required=True, choices=("phi", "psi"))
    bg = b.add_mutually_exclusive_group(required=True)
    bg.add_argument("--input", help="encoded object to map")
    bg.add_argument("--check", action="store_true",
                    help="exhaustively certify at --n")
    b.add_argument("--n", type=int, default=None)

    s = sub.add_parser("series", help="print EGF coefficients")
    s.add_argument("--id", required=True, choices=sorted(
        ("M", "N", "A", "Q", "P", "d", "S", "sqrtsec", "pm", "qn")))
    s.add_argument("--order", type=int, required=True)

    gr = sub.add_parser("grammar", help="check a grammar-derivative identity")
    gr.add_argument("--lemma", type=int, required=True, choices=(1, 2))
    gr.add_argument("--n", type=int, required=True)
    return p


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def _jsonable(v):
    if isinstance(v, (set, frozenset)):
        return sorted(v)
    if isinstance(v, tuple):
        return [_jsonable(x) for x in v]
    return v


def emit_jsonl(stream):
    """One compact JSON object per (object, stats) pair; stats may be None."""
    for obj, st in stream:
        record = {"object": objects.encode(obj)}
        if st is not None:
            record["stats"] = {k: _jsonable(v) for k, v in st.items()}
        yield json.dumps(record, separators=(",", ":"))


def _report_lines(rep: verify.VerifyReport):
    tag = {"pass": "PASS", "fail": "FAIL",
           "skipped-capacity": "SKIP(capacity)"}[rep.status]
    yield f"{tag} {rep.id} n={rep.n} ({rep.runtime_ms:.0f} ms)"
    if rep.status == "fail":
        yield f"  lhs: {rep.lhs}"
        yield f"  rhs: {rep.rhs}"


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_verify(args) -> int:
    if args.id is not None and args.id not in verify.REGISTRY:
        print(f"error: unknown check id {args.id!r}", file=sys.stderr)
        return 2
    checks = verify.CHECKS if args.all else (verify.REGISTRY[args.id],)
    smallest = min(check.min_n for check in checks)
    if args.max_n is not None and args.max_n < smallest:
        print(f"error: --max-n {args.max_n} selects no n; the smallest "
              f"n is {smallest}", file=sys.stderr)
        return 2
    if args.all:
        overrides = None
        if args.max_n is not None:
            overrides = {c.id: args.max_n for c in checks}
        reports = verify.run_all(overrides)
    else:
        check, = checks
        hi = check.max_n if args.max_n is None else min(args.max_n, check.max_n)
        reports = [verify.run_check(check.id, n) for n in check.ns if n <= hi]
    if args.format == "json":
        print(json.dumps([rep.__dict__ for rep in reports], indent=None))
    else:
        for rep in reports:
            for line in _report_lines(rep):
                print(line)
    return 1 if any(r.status == "fail" for r in reports) else 0


def _poly_value(family: str, n: int):
    if family == "h":
        return families.h_values(n)[n]
    if family == "qn":
        return families.q_seq(n)[n]
    fns = {"N": families.n_poly, "M": families.m_poly, "A": families.a_poly,
           "B": families.b_poly, "C": families.c_poly, "Q": families.q_poly,
           "P": families.p_poly, "R": families.r_poly, "L": families.l_closed,
           "Y": families.y_poly, "d": families.d_poly}
    return fns[family](n)


def _cmd_poly(args) -> int:
    value = _poly_value(args.family, args.n)
    if args.format == "text":
        print(value.render() if isinstance(value, ExactPoly) else value)
        return 0
    if args.format == "csv":
        if args.family in ("N", "C") and args.n:
            tri = (families.n_triangle if args.family == "N"
                   else families.c_triangle)(args.n)
            for row in tri.rows:
                print(",".join(str(c) for c in row))
            return 0
        if isinstance(value, int):
            print(value)
            return 0
        try:
            coeffs = value.univariate_coeffs("x")
        except ValueError:
            print("error: csv output needs a univariate family", file=sys.stderr)
            return 2
        print(",".join(str(c) for c in coeffs))
        return 0
    payload = {"family": args.family, "n": args.n}
    if isinstance(value, int):
        payload["value"] = value
    else:
        payload["text"] = value.render()
    print(json.dumps(payload, separators=(",", ":")))
    return 0


def _cmd_enumerate(args) -> int:
    s = None
    if args.class_name == "invseq":
        if args.s is None:
            print("error: --s is required for inversion sequences",
                  file=sys.stderr)
            return 2
        s = tuple(int(tok) for tok in args.s.replace(",", " ").split())
    stream = objects.generate(args.class_name, args.n, s)
    pairs = ((obj, objects.stats(obj) if args.stats else None)
             for obj in stream)
    for line in emit_jsonl(pairs):
        print(line)
    return 0


def _cmd_bijection(args) -> int:
    mapper = bijections.phi_map if args.map == "phi" else bijections.psi_map
    if args.input is not None:
        cls = "decorated" if args.map == "phi" else "signed"
        obj = objects.parse(cls, args.input)
        print(bijections.encode_triple(mapper(obj)))
        return 0
    if args.n is None:
        print("error: --check requires --n", file=sys.stderr)
        return 2
    rep = bijections.verify_bijection(args.map, args.n)
    print(f"n={rep.n} injective={rep.injective} "
          f"image_complete={rep.image_complete} "
          f"weight_preserving={rep.weight_preserving}")
    if rep.counterexample:
        print(f"counterexample: {rep.counterexample}")
    return 0 if rep.all_ok else 1


def _cmd_series(args) -> int:
    series = families.series_families(args.order)[args.id]
    for n in range(args.order + 1):
        print(f"{n}: {egf_coefficient(series, n).render()}")
    return 0


def _cmd_grammar(args) -> int:
    sides = grammar.lemma1_sides if args.lemma == 1 else grammar.lemma2_sides
    lhs, rhs = sides(args.n)
    if lhs == rhs:
        letter = "a" if args.lemma == 1 else "b^2"
        print(f"D^{args.n}({letter}) = {lhs.render()}")
        print("PASS")
        return 0
    print(f"lhs: {lhs.render()}")
    print(f"rhs: {rhs.render()}")
    print("FAIL")
    return 1


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse reports usage errors with code 2
        return int(exc.code or 0)
    dispatch = {"verify": _cmd_verify, "poly": _cmd_poly,
                "enumerate": _cmd_enumerate, "bijection": _cmd_bijection,
                "series": _cmd_series, "grammar": _cmd_grammar}
    try:
        return dispatch[args.command](args)
    except (CapacityError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except verify.LostChildError as exc:  # no verdict, so never success
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
