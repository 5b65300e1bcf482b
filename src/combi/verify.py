"""Registry of runnable identity checks.

Every identity the package claims is registered here as data: a named
check with at least two independent routes (recurrence, closed form,
generating function, exhaustive enumeration, grammar derivative,
bijection replay), each a function n -> value.  One runner evaluates
every route and compares each value with the first, exactly; a failing
report names the first route and the first route that disagrees, each
with its value in canonical text.

`run_all(max_n, ids)` runs the checks in `ids` (all by default) at their
default n up to `max_n`.  Each bijection certificate is a sum of tallies
over the subtrees at one level of its domain tree
(`bijections.SPLIT_LEVEL`), and a subtree's walk tallies every level down
to its n.  So each map is walked once for all its n above that level, to
the deepest; every other unit, each n at or below the level included,
runs whole through `run_check`.  Before anything runs, one fixed-width
token per subtree of each walk goes into a pipe.  Where it can fork, a
child runs every whole unit and then drains the pipe while this process
drains it at once, so the two end together; otherwise this process runs
the whole units and then drains it.  This process hands each n its
level's tallies to `bijections.verify_bijection` and compares its report
with the other routes as `run_check` does; the deepest n of a walk takes
the walk's time.  A walk that cannot be shared (its roots raise, or its
tokens would not fit in the pipe) or tallied (a subtree raises) is
certified whole for each of its n, as `run_check` does it.

A route that raises fails its check with what it raised, on one process
or two; only bad input (a check id, n, `max_n` or `COMBI_MAX_ORDER`) raises,
before any route runs.

Routes look their functions up in `families`, `grammar`, `objects` and
`bijections` when they run, so a function replaced on its module is the
one the check calls.
"""

from __future__ import annotations

import math
import os
import struct
import threading
import time
from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass

from .poly import (ONE, X, CapacityError, ExactPoly, divexact, poly_reverse,
                   poly_sum)
from .series import TruncatedSeries, egf_coefficient, max_order
from .sturm import chain_real_roots, descartes_real_roots
from . import bijections, families, grammar, objects


class LostChildError(RuntimeError):
    """The table-check process exited without sending its reports."""


@dataclass(frozen=True)
class VerifyReport:
    id: str
    n: int
    status: str  # pass | fail | skipped-capacity
    lhs: str | None = None
    rhs: str | None = None
    runtime_ms: float = 0.0
    detail: str | None = None  # why a check was skipped


@dataclass(frozen=True)
class Route:
    kind: str  # recurrence | enumeration | convolution | series | ...
    label: str
    fn: Callable[[int], object]


@dataclass(frozen=True)
class IdentityCheck:
    id: str
    description: str
    ns: tuple[int, ...]  # default n values for a full run
    routes: tuple[Route, ...]

    def __post_init__(self):
        object.__setattr__(self, "ns", tuple(self.ns))


def _fmt(v) -> str:
    if isinstance(v, (ExactPoly, TruncatedSeries)):
        return v.render()
    if isinstance(v, tuple):
        return "(" + ", ".join(map(_fmt, v)) + ")"
    return str(v)


# ---------------------------------------------------------------------------
# shared route pieces
# ---------------------------------------------------------------------------

def _binomial_terms(n, left, right):
    """The terms C(n,k) left(k) right(n-k), k = 0..n."""
    return tuple(math.comb(n, k) * left(k) * right(n - k) for k in range(n + 1))


def _binomial_convolution(n, left, right):
    return poly_sum(_binomial_terms(n, left, right))


def _coefficients(p, var, n):
    """The coefficients of var^0..var^n in p."""
    return tuple(p.coefficient_of(var, k) for k in range(n + 1))


def _series_square(name, order):
    s = families.series_family(name, order)
    return s * s


def _r_over_x(n):
    return divexact(families.r_poly(n, with_q=False), X)


def _root_count(count, n):
    rep = count(_r_over_x(n))
    return rep.distinct_real_roots, rep.is_squarefree


def _fiber_histogram(n):
    """How many permutations of [n] carry each number of decorations."""
    objects.require_domain("decorated", n)
    fibers = Counter(tuple(v for v, _, _ in entries)
                     for entries in objects.leaves("decorated", n)[0])
    return dict(Counter(fibers.values()))


def _h_signed(n):
    """(-1)^(n/2) h_(n/2) for even n, 0 for odd n."""
    if n % 2:
        return 0
    k = n // 2
    return (-1) ** k * families.h_values(k)[k]


def _all_ok(n):
    return bijections.BijectionReport(n, True, True, True)


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

CHECKS: tuple[IdentityCheck, ...] = (
    IdentityCheck(
        "A-via-invseq", "type-A Eulerian polynomial equals the ascents of "
        "(1..n)-inversion sequences and of permutations", range(0, 7),
        (Route("recurrence", "recurrence", lambda n: families.a_poly(n)),
         Route("enumeration", "inversion sequences",
               lambda n: families.stat_distribution(
                   "invseq", n, (("asc", "x"),), s=range(1, n + 1))),
         Route("enumeration", "ascents of permutations",
               lambda n: families.stat_distribution("permutation", n,
                                                    (("asc", "x"),))))),
    # the (2,4,..,2n)-inversion sequences: Savage and Schuster, JCTA 119 (2012)
    IdentityCheck(
        "B-via-invseq", "type-B Eulerian polynomial via (2,4,..,2n)-inversion "
        "sequences equals the signed-permutation descent distribution",
        range(1, 7),
        (Route("enumeration", "inversion sequences",
               lambda n: families.stat_distribution(
                   "invseq", n, (("asc", "x"),), s=range(2, 2 * n + 1, 2))),
         Route("enumeration", "signed permutations",
               lambda n: families.stat_distribution("signed", n,
                                                    (("des_B", "x"),))),
         Route("recurrence", "Brenti recurrence", lambda n: families.b_poly(n)))),
    IdentityCheck(
        "M-via-invseq", "odd-larger matching polynomial equals the ascent "
        "distribution of (1,3,..,2n-1)-inversion sequences", range(0, 8),
        (Route("recurrence", "reversed recurrence", lambda n: families.m_poly(n)),
         Route("enumeration", "inversion sequences",
               lambda n: families.stat_distribution(
                   "invseq", n, (("asc", "x"),), s=range(1, 2 * n, 2))))),
    IdentityCheck(
        "N-el-enum", "N-triangle recurrence matches even-larger block counts",
        range(1, 8),
        (Route("recurrence", "recurrence", lambda n: families.n_poly(n)),
         Route("enumeration", "matching enumeration",
               lambda n: families.stat_distribution("matching", n,
                                                    (("el", "x"),))))),
    IdentityCheck(
        "M-ol-enum", "reversed N-polynomial matches odd-larger block counts",
        range(1, 8),
        (Route("recurrence", "reversed recurrence", lambda n: families.m_poly(n)),
         Route("enumeration", "matching enumeration",
               lambda n: families.stat_distribution("matching", n,
                                                    (("ol", "x"),))))),
    IdentityCheck(
        "M-reverse-N", "EGF route for M agrees with x^n N_n(1/x)", range(0, 11),
        (Route("series", "egf",
               lambda n: egf_coefficient(families.series_family("M", 10), n)),
         Route("recurrence", "reversal of recurrence",
               lambda n: poly_reverse(families.n_poly(n), n)))),
    IdentityCheck(
        "eq-1-3", "2^n x A_n equals the binomial self-convolution of N",
        range(0, 9),
        (Route("recurrence", "2^n x A_n by recurrence",
               lambda n: 2 ** n * X * families.a_poly(n) if n else ONE),
         Route("enumeration", "2^n x A_n by enumeration",
               lambda n: 2 ** n * X * families.stat_distribution(
                   "permutation", n, (("des_A", "x"),)) if n else ONE),
         Route("convolution", "binomial convolution",
               lambda n: _binomial_convolution(n, families.n_poly,
                                               families.n_poly)))),
    IdentityCheck(
        "eq-1-4", "B_n equals the binomial convolution of N and M", range(1, 7),
        (Route("enumeration", "inversion sequences",
               lambda n: families.stat_distribution(
                   "invseq", n, (("asc", "x"),), s=range(2, 2 * n + 1, 2))),
         Route("enumeration", "signed permutations",
               lambda n: families.stat_distribution("signed", n,
                                                    (("des_B", "x"),))),
         Route("convolution", "binomial convolution",
               lambda n: _binomial_convolution(n, families.n_poly,
                                               families.m_poly)),
         Route("recurrence", "Brenti recurrence", lambda n: families.b_poly(n)))),
    IdentityCheck(
        "eq-1-3-refined-k", "hat-refined ascent distribution equals "
        "C(n,k) N_k N_{n-k}", range(1, 7),
        (Route("enumeration", "ascents by k hats", lambda n: _coefficients(
            families.stat_distribution("decorated", n,
                                       (("asc", "x"), ("hat", "q"))), "q", n)),
         Route("convolution", "C(n,k) N_k N_{n-k} by k",
               lambda n: _binomial_terms(n, families.n_poly,
                                         families.n_poly)))),
    IdentityCheck(
        "eq-1-4-refined-k", "bar-refined descent distribution equals "
        "C(n,k) N_k M_{n-k}", range(1, 7),
        (Route("enumeration", "descents by k bars", lambda n: _coefficients(
            families.stat_distribution("signed", n,
                                       (("des_B", "x"), ("bar", "q"))), "q", n)),
         Route("convolution", "C(n,k) N_k M_{n-k} by k",
               lambda n: _binomial_terms(n, families.n_poly,
                                         families.m_poly)))),
    IdentityCheck(
        "N2-equals-A2z", "N(x,z)^2 = A(x,2z) as truncated series", (8,),
        (Route("series", "N(x,z)^2", lambda n: _series_square("N", n)),
         Route("series", "A(x,2z)",
               lambda n: families.series_family("A", n).scale_argument(2)))),
    IdentityCheck(
        "phi-bijection", "decorated permutations biject onto matching pairs, "
        "preserving ascents", range(1, 8),
        (Route("bijection", "certificate",
               lambda n: bijections.verify_bijection("phi", n)),
         Route("closed-form", "all checks hold", _all_ok))),
    IdentityCheck(
        "psi-bijection", "signed permutations biject onto matching pairs, "
        "preserving descents", range(1, 7),
        (Route("bijection", "certificate",
               lambda n: bijections.verify_bijection("psi", n)),
         Route("closed-form", "all checks hold", _all_ok))),
    IdentityCheck(
        "C-descents", "second-order Eulerian recurrence matches descent "
        "enumeration over Stirling words", range(1, 8),
        (Route("recurrence", "recurrence", lambda n: families.c_poly(n)),
         Route("enumeration", "descent enumeration",
               lambda n: families.stat_distribution("stirling", n,
                                                    (("descents", "x"),))))),
    IdentityCheck(
        "ap-equals-el", "ascent-plateau distribution equals the even-larger "
        "block distribution", range(1, 8),
        (Route("enumeration", "ascent plateaus",
               lambda n: families.stat_distribution("stirling", n,
                                                    (("ap", "x"),))),
         Route("enumeration", "even-larger blocks",
               lambda n: families.stat_distribution("matching", n,
                                                    (("el", "x"),))),
         Route("recurrence", "recurrence", lambda n: families.n_poly(n)))),
    IdentityCheck(
        "cplat-casc-C", "cycle plateaus and shifted cycle ascents both give "
        "the second-order Eulerian polynomial", range(1, 8),
        (Route("enumeration", "cycle plateaus",
               lambda n: families.stat_distribution("stirling2", n,
                                                    (("cplat", "x"),))),
         Route("enumeration", "x * cycle ascents",
               lambda n: X * families.stat_distribution("stirling2", n,
                                                        (("casc", "x"),))),
         Route("recurrence", "recurrence", lambda n: families.c_poly(n)))),
    IdentityCheck(
        "Q-recurrence-enum", "cap/cycle polynomial recurrence matches "
        "enumeration", range(1, 8),
        (Route("recurrence", "recurrence", lambda n: families.q_poly(n)),
         Route("enumeration", "enumeration",
               lambda n: families.stat_distribution(
                   "stirling2", n, (("cap", "x"), ("cyc", "q")))))),
    IdentityCheck(
        "Q-gf", "cap/cycle polynomial matches its symbolic-power EGF",
        range(0, 9),
        (Route("recurrence", "recurrence", lambda n: families.q_poly(n)),
         Route("series", "egf symbolic power",
               lambda n: egf_coefficient(families.series_family("Q", 8), n)))),
    IdentityCheck(
        "cyc-closed-form", "cycle-count distribution is the rising product "
        "q(q+2)..(q+2n-2)", range(1, 9),
        (Route("recurrence", "Q at x=1",
               lambda n: families.q_poly(n).subs_num("x", 1)),
         Route("closed-form", "rising product",
               lambda n: families.l_closed(n)))),
    IdentityCheck(
        "desi-equals-cyc", "descent intervals on words match cycle counts on "
        "cycle forms", range(1, 8),
        (Route("enumeration", "descent intervals",
               lambda n: families.stat_distribution("stirling", n,
                                                    (("desi", "q"),))),
         Route("enumeration", "cycle count",
               lambda n: families.stat_distribution("stirling2", n,
                                                    (("cyc", "q"),))),
         Route("closed-form", "rising product", lambda n: families.l_closed(n)))),
    IdentityCheck(
        "Y-cyclic", "one-cycle cap distribution is 2^(n-1) x A_(n-1)",
        range(2, 8),
        (Route("enumeration", "one-cycle enumeration",
               lambda n: families.stat_distribution(
                   "stirling2", n, (("cap", "x"),),
                   where=lambda st: st["cyc"] == 1)),
         Route("recurrence", "doubled Eulerian",
               lambda n: families.y_poly(n)))),
    IdentityCheck(
        "P-three-routes", "cap/fix/cycle polynomial agrees across recurrence, "
        "convolution, series, enumeration and the grammar", range(0, 8),
        (Route("recurrence", "recurrence",
               lambda n: families.p_poly(n, "recurrence")),
         Route("convolution", "convolution",
               lambda n: families.p_poly(n, "convolution")),
         Route("series", "series", lambda n: families.p_poly(n, "series")),
         Route("enumeration", "enumeration",
               lambda n: families.stat_distribution(
                   "stirling2", n, (("cap", "x"), ("fix", "y"), ("cyc", "q")))),
         Route("grammar", "D^n(a)/a at c^2=x, b^2=y, d=1",
               lambda n: grammar.fix_cycle_cap_polynomial(n)))),
    IdentityCheck(
        "P-gf", "cap/fix/cycle polynomial matches e^(qz(y-1)) Q(x,q;z)",
        range(0, 9),
        (Route("recurrence", "recurrence", lambda n: families.p_poly(n)),
         Route("series", "egf product",
               lambda n: egf_coefficient(families.series_family("P", 8), n)))),
    IdentityCheck(
        "grammar-lemma1", "n-th grammar derivative of a encodes the "
        "cycle-Stirling statistics", range(1, 7),
        (Route("grammar", "D^n(a)",
               lambda n: grammar.cycle_derivative_polynomial(n)),
         Route("enumeration", "cycle-Stirling encoding",
               lambda n: grammar.lemma1_sides(n)[1]),
         Route("recurrence", "encoded recurrence",
               lambda n: grammar.from_xyq(families.p_poly(n), n)))),
    IdentityCheck(
        "grammar-lemma2", "n-th grammar derivative of b^2 produces the "
        "Eulerian row", range(1, 11),
        (Route("grammar", "D^n(b^2)", lambda n: grammar.lemma2_sides(n)[0]),
         Route("recurrence", "2^n sum_k <n,k> c^(2k+2) d^(2n-2k)",
               lambda n: grammar.eulerian_encoding(n)))),
    IdentityCheck(
        "R-recurrence-enum", "fixed-point-free recurrence matches enumeration",
        range(1, 8),
        (Route("recurrence", "recurrence", lambda n: families.r_poly(n)),
         Route("enumeration", "enumeration",
               lambda n: families.stat_distribution(
                   "stirling2", n, (("cap", "x"), ("cyc", "q")),
                   where=lambda st: st["fix"] == 0)))),
    IdentityCheck(
        "R-binomial-shift", "y-coefficients of P_n equal C(n,k) q^k R_{n-k}",
        range(0, 9),
        (Route("recurrence", "y-coefficients of P_n",
               lambda n: _coefficients(families.p_poly(n), "y", n)),
         Route("closed-form", "C(n,k) q^k R_{n-k} by k",
               lambda n: tuple(families.r_nk_poly(n, k) for k in range(n + 1))),
         Route("series", "y-coefficients of the P egf", lambda n: _coefficients(
             egf_coefficient(families.series_family("P", 8), n), "y", n)))),
    IdentityCheck(
        "qn-egf", "fixed-point-free counts match e^(-z)/sqrt(1-2z)", range(0, 13),
        (Route("recurrence", "recurrence",
               lambda n: ExactPoly.const(families.q_seq(n)[n])),
         Route("series", "egf",
               lambda n: egf_coefficient(families.series_family("qn", 12), n)),
         Route("recurrence", "R at (1,1)", lambda n: families.r_poly(n).subs_num(
             "x", 1).subs_num("q", 1)))),
    IdentityCheck(
        "S2-equals-d2z", "S(x,z)^2 = d(x,2z); 2^n d_n is the binomial "
        "self-convolution of R", range(0, 9),
        (Route("series", "2^n d_n", lambda n: 2 ** n * families.d_poly(n)),
         Route("convolution", "binomial convolution",
               lambda n: _binomial_convolution(
                   n, lambda k: families.r_poly(k, with_q=False),
                   lambda k: families.r_poly(k, with_q=False))),
         Route("series", "n! [z^n] S(x,z)^2",
               lambda n: egf_coefficient(_series_square("S", 8), n)),
         Route("enumeration", "2^n d_n by enumeration",
               lambda n: 2 ** n * families.stat_distribution(
                   "permutation", n, (("exc", "x"),),
                   where=lambda st: st["exc"] + st["anti_exc"] == n)))),
    IdentityCheck(
        "R-palindromic", "R_n at q=1 is palindromic with center n", range(2, 11),
        (Route("recurrence", "R_n", lambda n: families.r_poly(n, with_q=False)),
         Route("series", "x^n S_n(1/x)", lambda n: poly_reverse(
             egf_coefficient(families.series_family("S", 10), n), n)))),
    IdentityCheck(
        "R-real-rooted", "R_n/x has only simple real zeros (Descartes count "
        "once a mod-q test proves it squarefree, and the Sturm chain)",
        range(2, 11),
        (Route("recurrence", "(degree of R_n/x, True)",
               lambda n: (_r_over_x(n).degree("x"), True)),
         Route("sturm", "(Descartes root count, squarefree)",
               lambda n: _root_count(descartes_real_roots, n)),
         Route("chain", "(Sturm chain root count, squarefree)",
               lambda n: _root_count(chain_real_roots, n)))),
    IdentityCheck(
        "h-series-vs-enum", "signed cap sums over fixed-point-free objects "
        "match the secant-root series", range(1, 8),
        (Route("enumeration", "signed enumeration",
               lambda n: families.stat_distribution(
                   "stirling2", n, (("cap", "x"),),
                   where=lambda st: st["fix"] == 0).subs_num(
                       "x", -1).const_value()),
         Route("series", "secant-root series", _h_signed))),
    IdentityCheck(
        "h-involutions", "paired-excedance involution counts match the "
        "secant-root series", range(0, 3),
        (Route("enumeration", "involution search",
               lambda n: objects.count_paired_excedance_involutions(n)),
         Route("series", "series", lambda n: families.h_values(n)[n]))),
    IdentityCheck(
        "rlmin-closed-form", "right-to-left minima: signed permutations and 2^n "
        "times permutations give 2^n x (x+1)..(x+n-1)", range(1, 6),
        (Route("enumeration", "enumeration",
               lambda n: families.stat_distribution("signed", n,
                                                    (("rlmin", "x"),))),
         Route("closed-form", "rising factorial",
               lambda n: families.rlmin_closed_form(n)),
         Route("enumeration", "2^n x right-to-left minima of permutations",
               lambda n: 2 ** n * families.stat_distribution(
                   "permutation", n, (("rlmin", "x"),))))),
    IdentityCheck(
        "fiber-2n", "every permutation has exactly 2^n decorations",
        range(1, 6),
        (Route("enumeration", "permutations by decoration count",
               _fiber_histogram),
         Route("closed-form", "n! permutations with 2^n each",
               lambda n: {2 ** n: math.factorial(n)}))),
)

REGISTRY: dict[str, IdentityCheck] = {c.id: c for c in CHECKS}


def _check(check_id: str) -> IdentityCheck:
    check = REGISTRY.get(check_id)
    if check is None:
        raise ValueError(f"unknown check id {check_id!r}")
    return check


def run_check(check_id: str, n: int) -> VerifyReport:
    """Evaluate every route of one identity at one n and compare each value
    with the first route's, exactly."""
    check = _check(check_id)
    objects.require_size(n)
    max_order()  # a bad COMBI_MAX_ORDER raises here, not in a route
    if not check.ns[0] <= n <= check.ns[-1]:
        return VerifyReport(check_id, n, "skipped-capacity", detail=(
            f"n={n} is outside {check_id}'s n values "
            f"{check.ns[0]}..{check.ns[-1]}"))
    with families.memoised():
        return _compare(check, n, [route.fn for route in check.routes])


def _compare(check: IdentityCheck, n: int, fns, ms: float = 0.0) -> VerifyReport:
    """Evaluate fns, one per route of the check, in order at n and compare
    each value with the first's, exactly; a route that raises fails the
    check with what it raised.  A route computed elsewhere comes as a
    function of its value, and its time as `ms`."""
    t0 = time.perf_counter()
    first, values = check.routes[0], []
    for route, fn in zip(check.routes, fns):
        try:
            values.append(fn(n))
        except CapacityError as exc:
            return VerifyReport(check.id, n, "skipped-capacity",
                                detail=str(exc))
        except Exception as exc:
            raised = f"{route.label}: raised {type(exc).__name__}: {exc}"
            return VerifyReport(
                check.id, n, "fail", rhs=raised,
                lhs=f"{first.label}: {_fmt(values[0])}" if values else raised,
                runtime_ms=ms + (time.perf_counter() - t0) * 1000)
    ms += (time.perf_counter() - t0) * 1000
    want = values[0]
    for route, got in zip(check.routes[1:], values[1:]):
        if got != want:
            return VerifyReport(check.id, n, "fail",
                                lhs=f"{first.label}: {_fmt(want)}",
                                rhs=f"{route.label}: {_fmt(got)}",
                                runtime_ms=ms)
    return VerifyReport(check.id, n, "pass", runtime_ms=ms)


def plan(max_n: int | None = None, ids: tuple[str, ...] | None = None):
    """(check id, ns) for each check in `ids`, by default every check in
    registry order: its default n values, those above `max_n` dropped."""
    if max_n is not None:  # any int; a bool or a float is refused
        objects.require_size(max_n, -math.inf, "max_n")
    if isinstance(ids, str):
        raise ValueError(f"ids must be a tuple such as ({ids!r},), not a str")
    checks = CHECKS if ids is None else tuple(map(_check, ids))
    return [(check.id, tuple(n for n in check.ns
                             if max_n is None or n <= max_n))
            for check in checks]


# ---------------------------------------------------------------------------
# running the plan on one process or two
# ---------------------------------------------------------------------------

_RUN_CHECK_CODE = run_check.__code__

# check id -> the map whose bijections.verify_bijection certificate is the
# check's first route
_CERTIFIED = {"phi-bijection": "phi", "psi-bijection": "psi"}

# One token per certificate subtree: the index of the walk among the shared
# ones, and the subtree's index in walk order.
_TOKEN = struct.Struct("<HH")


def _cpu_count() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _share(units):
    """Split the units into those run whole and the certificate walks whose
    subtrees any process may tally, as (check id, deepest n, roots, the
    (position, n) of the units it certifies).  A certificate unit joins its
    map's one walk, to the deepest n of the walk, when its n is above
    bijections.SPLIT_LEVEL; every other unit runs whole.  Returns both and
    the read end of a pipe that holds one token per subtree, written before
    any process reads it, or None when no walk has a token.  A walk whose
    roots raise, or whose tokens would not fit in the pipe, keeps no roots
    and so no tokens, and _walk_reports certifies each of its n whole."""
    import select

    whole, walks = [], {}
    for pos, check_id, n in units:
        if check_id in _CERTIFIED and n > bijections.SPLIT_LEVEL:
            walks.setdefault(check_id, []).append((pos, n))
        else:
            whole.append((pos, check_id, n))
    shared, data = [], bytearray()
    for j, (check_id, certified) in enumerate(walks.items()):
        deepest = max(n for _, n in certified)
        try:
            roots = bijections.certificate_roots(_CERTIFIED[check_id], deepest)
        except Exception:  # verify_bijection meets it again, whole
            roots = []
        if len(data) + len(roots) * _TOKEN.size > select.PIPE_BUF:
            roots = []
        for i in range(len(roots)):
            data += _TOKEN.pack(j, i)
        shared.append((check_id, deepest, roots, certified))
    if not data:
        return whole, shared, None
    read, write = os.pipe()
    try:
        os.write(write, data)  # at most PIPE_BUF bytes: written whole
    finally:
        os.close(write)
    return whole, shared, read


def _run_units(units, shared, tokens):
    """Run the units in order, then take tokens from the pipe `tokens`, if
    any, until it is empty and tally the subtrees they name, to their
    walk's deepest n; a subtree whose tally raises, a failed edge in it
    included, is tallied as None.  Returns the (position, report) pairs
    and the (walk index, tallies by level, ms) of each subtree."""
    done = [(pos, run_check(check_id, n)) for pos, check_id, n in units]
    tallies = []
    # Every token is in the pipe and no process writes to it any more, so
    # a read of one token's width returns one whole token, or b"" at the end.
    while tokens is not None and (token := os.read(tokens, _TOKEN.size)):
        j, i = _TOKEN.unpack(token)
        check_id, deepest, roots, _ = shared[j]
        t0 = time.perf_counter()
        try:
            tally = bijections.subtree_tally(_CERTIFIED[check_id], deepest,
                                             roots[i])
        except Exception:  # _walk_reports certifies the walk whole
            tally = None
        tallies.append((j, tally, (time.perf_counter() - t0) * 1000))
    return done, tallies


def _walk_reports(check_id, deepest, certified, tallies):
    """The (position, report) of each unit (position, n) that a shared walk
    to `deepest` certifies, from the (tallies by level, ms) of its
    subtrees in any order, compared as run_check compares: n takes each
    subtree's level-n tally, and the deepest n the subtrees' time.  A walk
    with no tallies, or one whose subtree raised, certifies each n whole,
    as run_check does it."""
    map_id, check = _CERTIFIED[check_id], REGISTRY[check_id]
    whole = not tallies or any(tally is None for tally, _ in tallies)
    for pos, n in certified:
        found = None if whole else [tally[n - deepest - 1]
                                    for tally, _ in tallies]
        fns = [lambda n: bijections.verify_bijection(map_id, n, found),
               *(route.fn for route in check.routes[1:])]
        ms = sum(ms for _, ms in tallies) if n == deepest else 0.0
        yield pos, _compare(check, n, fns, ms)


def _fork_units(units, shared, tokens):
    """Run the units, then drain the tokens, in a forked child, which
    inherits every function bound in this process, mutants included.
    Returns (pid, read end of the pipe that carries the child's pickled
    `_run_units` result)."""
    import pickle

    read, write = os.pipe()
    pid = os.fork()
    if pid:
        os.close(write)
        return pid, read
    # The child leaves by os._exit: no atexit handler, no flush of an
    # inherited stdout buffer.
    status = 1
    try:
        os.close(read)
        data = pickle.dumps(_run_units(units, shared, tokens))
        with os.fdopen(write, "wb") as fh:
            fh.write(data)
        status = 0
    finally:
        os._exit(status)


def _join(pid, read):
    """The result the child sent; raises if it died without one."""
    import pickle

    with os.fdopen(read, "rb") as fh:
        data = fh.read()
    code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if code or not data:
        raise LostChildError(f"table-check process {pid} exited with "
                             f"status {code} before sending its reports")
    return pickle.loads(data)


def run_all(max_n: int | None = None,
            ids: tuple[str, ...] | None = None) -> list[VerifyReport]:
    """Run `plan(max_n, ids)`, by default every check at every default n,
    and return the reports in plan order; `verify --all` and `--id` both do.

    Every certificate n above `bijections.SPLIT_LEVEL` joins its map's
    walk, whose subtrees go into the token pipe, unless `run_check` (a
    tracer) is rebound: its counters stay in this process, which then runs
    every unit whole.  A shared certificate's tallies are combined by
    `bijections.verify_bijection(map_id, n, tallies)`, so a rebound one is
    reached on one process or two.  A forked child runs every whole unit
    and then drains the pipe when a subtree is in it, two or more CPUs are
    free and no other thread runs; otherwise this process runs the whole
    units in plan order and then drains the pipe.  A route that raises
    fails its check, as in run_check, on one process or two; a bad
    `COMBI_MAX_ORDER` raises before anything runs."""
    max_order()
    with families.memoised():
        units = [(pos, *pair) for pos, pair in enumerate(
            (check_id, n) for check_id, ns in plan(max_n, ids) for n in ns)]
        whole, shared, tokens = units, [], None
        if (hasattr(os, "fork")  # the pipe protocol is POSIX, as fork is
                and getattr(run_check, "__code__", None) is _RUN_CHECK_CODE):
            whole, shared, tokens = _share(units)
        child = None
        # A forked child holds only the calling thread, and locks other
        # threads held stay locked in it.
        if (tokens is not None and _cpu_count() > 1
                and threading.active_count() == 1):
            child = _fork_units(whole, shared, tokens)
            whole = []
        try:
            results = [_run_units(whole, shared, tokens)]
        except BaseException:  # an interrupt: stop the child too
            if child is not None:
                import signal

                pid, read = child
                os.close(read)
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            raise
        finally:
            if tokens is not None:
                os.close(tokens)
        if child is not None:
            results.append(_join(*child))
        reports = [pair for done, _ in results for pair in done]
        tallies = [tally for _, part in results for tally in part]
        for j, (check_id, deepest, _, certified) in enumerate(shared):
            mine = [(tally, ms) for k, tally, ms in tallies if k == j]
            reports += _walk_reports(check_id, deepest, certified, mine)
    return [rep for _, rep in sorted(reports)]
