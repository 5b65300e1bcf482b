"""The benchmark's three workloads.

Each function runs one repetition through combi's public entry points and
checks every output against an independent expectation, recording each
check as one operation of an `Outcome`.  The seed only permutes the order
of the work; the inputs themselves are exhaustive and fixed.

registry  `combi verify --all --format json`, verdicts parsed back.  Most
          time goes to objects, families and bijections.
stream    per class: generate -> stats -> cli.emit_jsonl, then parse,
          validate and encode every emitted line; phi_map / psi_map and
          encode_triple on every decorated / signed object.  Each class
          is streamed once, so a memo across enumerations cannot help.
algebra   deep recurrence, series, grammar and Sturm queries, each against
          an independent route.  poly does the work; objects does none.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import time
from collections import Counter

STREAM_CLASSES = (("permutation", 7, None), ("signed", 5, None),
                  ("matching", 6, None), ("stirling", 6, None),
                  ("stirling2", 6, None), ("decorated", 5, None),
                  ("invseq", 7, tuple(range(1, 8))))

ALGEBRA_QUERIES = ("p16-series", "p40", "p24-convolution", "fix-cycle-cap-14",
                   "sturm-R50")


class Outcome:
    """Operations attempted and failed, a few failure notes, and a digest of
    the outputs so that two runs of the same inputs can be compared."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock  # times the stream phases
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.phases = Counter()
        self._digest = hashlib.sha256()

    def check(self, ok: bool, what) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 10:
                self.problems.append(what() if callable(what) else what)

    def record(self, text: str) -> None:
        self._digest.update(text.encode())
        self._digest.update(b"\n")

    @property
    def digest(self) -> str:
        return self._digest.hexdigest()


def _odd_double_factorial(n: int) -> int:
    """(2n-1)!!, the number of perfect matchings of [2n]."""
    return math.prod(range(1, 2 * n, 2))


def _row_dict(row) -> dict:
    return {k: c for k, c in enumerate(row) if c}


def _x_dict(p) -> dict:
    """Coefficients of a polynomial in x alone, keyed by degree."""
    return {exp[0]: c for exp, c in p.items()}


def _type_b_row(n: int) -> tuple[int, ...]:
    """Signed permutations of [n] by type-B descents:
    B(n,k) = (2k+1) B(n-1,k) + (2n-2k+1) B(n-1,k-1)."""
    row = [1]
    for m in range(1, n + 1):
        row = [(2 * k + 1) * (row[k] if k < m else 0)
               + (2 * m - 2 * k + 1) * (row[k - 1] if k else 0)
               for k in range(m + 1)]
    return tuple(row)


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

def registry(seed: int, out: Outcome) -> None:
    from combi import cli, verify

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["verify", "--all", "--format", "json"])
    verdicts = {(v["id"], v["n"]): v["status"] for v in json.loads(buf.getvalue())}
    any_fail = "fail" in verdicts.values()
    expected = [(cid, n) for cid, ns in verify.plan() for n in ns]
    for key in expected:
        status = verdicts.pop(key, "missing")
        out.check(status == "pass", f"{key[0]} n={key[1]}: {status}")
        out.record(f"{key[0]} {key[1]} {status}")
    for key, status in verdicts.items():
        out.check(False, f"{key[0]} n={key[1]}: {status}, not in the plan")
    out.check(code == (1 if any_fail else 0), f"exit code {code}")


# ---------------------------------------------------------------------------
# stream
# ---------------------------------------------------------------------------

def _expected_count(name: str, n: int, s) -> int:
    """Class sizes from closed forms, independent of objects.class_count."""
    if name == "permutation":
        return math.factorial(n)
    if name in ("signed", "decorated"):
        return 2 ** n * math.factorial(n)
    if name == "invseq":
        return math.prod(s)
    return _odd_double_factorial(n)


def _aggregates(name: str, n: int, records: list[dict]):
    """(label, distribution from the emitted stats, distribution from a
    recurrence or closed form) for the class."""
    from combi import families

    def dist(*keys):
        return dict(Counter(rec[keys[0]] if len(keys) == 1
                            else tuple(rec[k] for k in keys) for rec in records))

    if name == "permutation":
        yield "des_A", dist("des_A"), _row_dict(families.eulerian_row(n))
        yield "exc", dist("exc"), _row_dict(families.eulerian_row(n))
    elif name == "signed":
        yield "des_B", dist("des_B"), _row_dict(_type_b_row(n))
        yield "rlmin", dist("rlmin"), _x_dict(families.rlmin_closed_form(n))
        joint = dist("bar", "des_B")
        for k in range(n + 1):
            ref = math.comb(n, k) * families.n_poly(k) * families.m_poly(n - k)
            got = {d: c for (b, d), c in joint.items() if b == k}
            yield f"des_B | bar={k}", got, _x_dict(ref)
    elif name == "matching":
        row = families.n_row(n)
        yield "el", dist("el"), _row_dict(row)
        yield "ol", dist("ol"), _row_dict(row[::-1])
    elif name == "stirling":
        yield "descents", dist("descents"), _row_dict(families.c_row(n))
        yield "ap", dist("ap"), _row_dict(families.n_row(n))
        yield "desi", dist("desi"), _row_dict(
            families.l_closed(n).univariate_coeffs("q"))
    elif name == "stirling2":
        yield "cyc", dist("cyc"), _row_dict(
            families.l_closed(n).univariate_coeffs("q"))
        yield "cplat", dist("cplat"), _row_dict(families.c_row(n))
        yield "(cap, cyc)", dist("cap", "cyc"), {
            (exp[0], exp[2]): c for exp, c in families.q_poly(n).items()}
    elif name == "decorated":
        joint = dist("hat", "asc")
        for k in range(n + 1):
            ref = math.comb(n, k) * families.n_poly(k) * families.n_poly(n - k)
            got = {a: c for (h, a), c in joint.items() if h == k}
            yield f"asc | hat={k}", got, _x_dict(ref)
    elif name == "invseq":
        yield "asc", dist("asc"), _row_dict(families.eulerian_row(n))


def _even_larger(matching) -> int:
    return sum(b % 2 == 0 for _, b in matching.blocks)


def _check_images(name: str, n: int, images, records, out: Outcome) -> None:
    """phi on decorated, psi on signed: weight and index set per object,
    then distinct images and per-k image counts over the class."""
    texts = set()
    per_k = Counter()
    for (t, text), rec in zip(images, records):
        if name == "decorated":
            weight = rec["asc"]
            image_weight = _even_larger(t.first) + _even_larger(t.second)
            index_set = set(rec["hat_value_set"])
        else:
            weight = rec["des_B"]
            image_weight = (_even_larger(t.first)
                            + len(t.second.blocks) - _even_larger(t.second))
            index_set = {abs(v) for v in rec["bar_set"]}
        out.check(weight == image_weight and set(t.index_set) == index_set,
                  lambda: f"{name} {rec}: image {text}")
        out.record(text)
        texts.add(text)
        per_k[t.k] += 1
    out.check(len(texts) == len(images),
              f"{name}: {len(images) - len(texts)} repeated images")
    want = {k: math.comb(n, k) * _odd_double_factorial(k)
            * _odd_double_factorial(n - k) for k in range(n + 1)}
    out.check(dict(per_k) == want, f"{name}: per-k images {dict(per_k)} != {want}")


def _stream_class(name: str, n: int, s, out: Outcome) -> None:
    """One class through the stream path.  The phase clocks (`emit_s`,
    `roundtrip_s`, `map_s`) cover combi's calls only; decoding the JSON
    lines and every check run outside them.  All objects of the class are
    freed on return, so the peak RSS does not depend on the class order."""
    from combi import bijections, cli, objects

    originals = []

    def pairs():
        for obj in objects.generate(name, n, s):
            originals.append(obj)
            yield obj, objects.stats(obj)

    t0 = out.clock()
    lines = list(cli.emit_jsonl(pairs()))
    t1 = out.clock()
    decoded = [json.loads(line) for line in lines]
    texts = [rec["object"] for rec in decoded]
    t2 = out.clock()
    parsed = [objects.parse(name, text) for text in texts]
    valid = [objects.validate(obj) for obj in parsed]
    encoded = [objects.encode(obj) for obj in parsed]
    t3 = out.clock()
    images = None
    if name in ("decorated", "signed"):
        bij = bijections.phi_map if name == "decorated" else bijections.psi_map
        t4 = out.clock()
        triples = [bij(obj) for obj in parsed]
        images = [(t, bijections.encode_triple(t)) for t in triples]
        out.phases["map_s"] += out.clock() - t4
        out.phases["mapped"] += len(images)
    out.phases["emit_s"] += t1 - t0
    out.phases["roundtrip_s"] += t3 - t2
    out.phases["objects"] += len(lines)

    seen = set()
    for line, text, obj, ok, again, orig in zip(lines, texts, parsed, valid,
                                                encoded, originals):
        out.check(obj == orig and ok and again == text and text not in seen,
                  lambda: f"{name}: round trip of {text!r}")
        out.record(line)
        seen.add(text)
    want = _expected_count(name, n, s)
    out.check(len(lines) == want, f"{name}: {len(lines)} objects, expected {want}")
    records = [rec["stats"] for rec in decoded]
    for label, got, ref in _aggregates(name, n, records):
        out.check(got == ref, f"{name} {label}: {got} != {ref}")
    if images is not None:
        _check_images(name, n, images, records, out)


def stream(seed: int, out: Outcome) -> None:
    order = list(STREAM_CLASSES)
    random.Random(seed).shuffle(order)
    for name, n, s in order:
        _stream_class(name, n, s, out)


# ---------------------------------------------------------------------------
# algebra
# ---------------------------------------------------------------------------

def _query(q: str):
    """(result, True when an independent route agrees)."""
    from combi import families, grammar, sturm
    from combi.poly import X, divexact

    if q == "p16-series":
        p = families.p_poly(16, "series")
        return p, p == families.p_poly(16, "recurrence")
    if q == "p40":
        p = families.p_poly(40)
        # summing over fixed points leaves the (cap, cycles) polynomial Q_40,
        # and all (2n-1)!! objects are counted once
        total = p.subs_num("x", 1).subs_num("y", 1).subs_num("q", 1)
        return p, (p.subs_num("y", 1) == families.q_poly(40)
                   and total.const_value() == _odd_double_factorial(40))
    if q == "p24-convolution":
        p = families.p_poly(24, "convolution")
        return p, p == families.p_poly(24, "recurrence")
    if q == "fix-cycle-cap-14":
        p = grammar.fix_cycle_cap_polynomial(14)
        return p, p == families.p_poly(14)
    if q == "sturm-R50":
        rep = sturm.sturm_real_roots(divexact(families.r_poly(50, with_q=False), X))
        return rep, rep.all_real_simple and rep.degree == 48
    raise ValueError(f"unknown query {q!r}")


def algebra(seed: int, out: Outcome) -> None:
    order = list(ALGEBRA_QUERIES)
    random.Random(seed).shuffle(order)
    for q in order:
        value, agrees = _query(q)
        out.check(agrees, f"{q}: routes disagree")
        out.record(f"{q} {value.render() if hasattr(value, 'render') else value}")


WORKLOADS = {"registry": registry, "stream": stream, "algebra": algebra}
