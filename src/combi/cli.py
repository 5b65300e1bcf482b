"""Command-line front end.

Exit codes: 0 success (or all checks pass), 1 verification failure (also
a `verify` route that raises, which is a FAIL report, a lost table-check
process, or a stdout closed early), 2 usage error (including capacity
misuse and a bad COMBI_MAX_ORDER).  Results go to stdout, diagnostics to
stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from collections import Counter

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
    v.add_argument("--format", choices=("text", "json", "summary"),
                   default="text")

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
    b.add_argument("--steps", action="store_true",
                   help="print the image of every prefix of --input")

    s = sub.add_parser("series", help="print EGF coefficients")
    s.add_argument("--id", required=True, choices=sorted(families.SERIES_IDS))
    s.add_argument("--order", type=int, required=True)

    gr = sub.add_parser("grammar", help="check a grammar-derivative identity")
    gr.add_argument("--lemma", type=int, required=True, choices=(1, 2))
    gr.add_argument("--n", type=int, required=True)
    return p


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def _sorted_set(v):
    """A set or frozenset as a sorted list; json writes tuples as lists."""
    if isinstance(v, (set, frozenset)):
        return sorted(v)
    raise TypeError(f"{type(v).__name__} is not JSON serializable")


_ENCODER = json.JSONEncoder(separators=(",", ":"), default=_sorted_set)


def emit_jsonl(stream):
    """One compact JSON object per (object, stats) pair; stats may be None."""
    for obj, st in stream:
        record = {"object": objects.encode(obj)}
        if st is not None:
            record["stats"] = st
        yield _ENCODER.encode(record)


def _report_lines(rep: verify.VerifyReport):
    tag = {"pass": "PASS", "fail": "FAIL",
           "skipped-capacity": "SKIP(capacity)"}[rep.status]
    yield f"{tag} {rep.id} n={rep.n} ({rep.runtime_ms:.0f} ms)"
    if rep.status == "fail":
        yield f"  lhs: {rep.lhs}"
        yield f"  rhs: {rep.rhs}"


def _summary_lines(reports, plan, seconds: float):
    """One row per planned check: its runs and its first non-pass status,
    the sides of a failure under it; then the totals."""
    runs = Counter(rep.id for rep in reports)
    worst = {}
    for rep in reports:
        if rep.status != "pass":
            worst.setdefault(rep.id, rep)
    width = max(len(c.id) for c in verify.CHECKS)
    for check_id, _ in plan:
        rep = worst.get(check_id)
        status = (rep.status if rep else
                  "ok" if runs[check_id] else "not run")
        yield f"{check_id:<{width}}  runs={runs[check_id]:<3} {status}"
        if rep is not None and rep.status == "fail":
            yield f"  n={rep.n}  lhs: {rep.lhs}"
            yield f"  n={rep.n}  rhs: {rep.rhs}"
    failures = sum(rep.status == "fail" for rep in reports)
    yield ""
    yield f"{len(reports)} reports, {failures} failures, {seconds:.1f}s"


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_verify(args) -> int:
    ids = None if args.all else (args.id,)
    start = time.perf_counter()
    reports = verify.run_all(args.max_n, ids)
    seconds = time.perf_counter() - start
    if not reports:  # only a cap below every selected check's first n
        smallest = min(ns[0] for _, ns in verify.plan(ids=ids))
        raise ValueError(f"--max-n {args.max_n} selects no n; the smallest "
                         f"n is {smallest}")
    if args.format == "json":
        print(json.dumps([rep.__dict__ for rep in reports], indent=None))
    elif args.format == "summary":
        for line in _summary_lines(reports, verify.plan(args.max_n, ids),
                                   seconds):
            print(line)
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
            row = families.n_row if args.family == "N" else families.c_row
            for m in range(1, args.n + 1):
                print(",".join(map(str, row(m))))
            return 0
        if isinstance(value, int):
            print(value)
            return 0
        try:  # the value's one variable, x for a constant
            (name,) = value.variables() or {"x"}
            coeffs = value.univariate_coeffs(name)
        except ValueError:
            raise ValueError("csv output needs a univariate family") from None
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
    # generate refuses an s for a class other than invseq, and invseq
    # without one, before anything prints
    s = None
    if args.s is not None:
        tokens = args.s.replace(",", " ").split()
        # ASCII digits only: int() would also take '+1', '1_0' and non-ASCII
        if not all(tok.isascii() and tok.isdigit() for tok in tokens):
            raise ValueError(f"bad bound sequence --s {args.s!r}: expected "
                             "positive integers")
        s = tuple(map(int, tokens))
    stream = objects.generate(args.class_name, args.n, s)
    pairs = ((obj, objects.stats(obj) if args.stats else None)
             for obj in stream)
    for line in emit_jsonl(pairs):
        print(line)
    return 0


def _cmd_bijection(args) -> int:
    mapper = bijections.phi_map if args.map == "phi" else bijections.psi_map
    if args.input is not None:
        if args.n is not None:
            raise ValueError("--n applies to --check, not --input")
        cls = "decorated" if args.map == "phi" else "signed"
        obj = objects.parse(cls, args.input)
        if args.steps:
            for prefix, triple in bijections.map_steps(args.map, obj):
                print(f"{objects.encode(prefix)} -> "
                      f"{bijections.encode_triple(triple)}")
        else:
            print(bijections.encode_triple(mapper(obj)))
        return 0
    if args.steps:
        raise ValueError("--steps applies to --input, not --check")
    if args.n is None:
        raise ValueError("--check requires --n")
    rep = bijections.verify_bijection(args.map, args.n)
    print(f"n={rep.n} injective={rep.injective} "
          f"image_complete={rep.image_complete} "
          f"weight_preserving={rep.weight_preserving}")
    if rep.counterexample:
        print(f"counterexample: {rep.counterexample}")
    return 0 if rep.all_ok else 1


def _cmd_series(args) -> int:
    series = families.series_family(args.id, args.order)
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
        code = dispatch[args.command](args)
        sys.stdout.flush()  # a closed stdout raises here, not at exit
        return code
    except BrokenPipeError:  # the reader (`| head`) left before the end
        # quiet the flush at exit, which would raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (CapacityError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except verify.LostChildError as exc:  # no verdict, so never success
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
