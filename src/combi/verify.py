"""Registry of runnable identity checks.

Every identity the package claims is registered here as data: a named
check with at least two independent routes (recurrence, closed form,
generating function, exhaustive enumeration, grammar derivative,
bijection replay), each a function n -> value.  One runner evaluates
every route and compares each value with the first, exactly; a failing
report names the first route and the first route that disagrees, each
with its value in canonical text.

`run_all` runs the whole plan, the bijection certificates beside the
other checks on a second process where it can.

Routes look their functions up in `families`, `grammar`, `objects` and
`bijections` when they run, so a function replaced on its module is the
one the check calls.
"""

from __future__ import annotations

import math
import os
import time
from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass

from .poly import ONE, X, CapacityError, ExactPoly, divexact, poly_reverse
from .series import TruncatedSeries, egf_coefficient
from .sturm import sturm_real_roots
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

    @property
    def min_n(self) -> int:
        return self.ns[0]

    @property
    def max_n(self) -> int:
        return self.ns[-1]


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
    return sum(_binomial_terms(n, left, right), ExactPoly.zero())


def _coefficients(p, var, n):
    """The coefficients of var^0..var^n in p."""
    return tuple(p.coefficient_of(var, k) for k in range(n + 1))


def _series_square(name, order):
    s = families.series_families(order)[name]
    return s * s


def _r_over_x(n):
    return divexact(families.r_poly(n, with_q=False), X)


def _sturm_count(n):
    rep = sturm_real_roots(_r_over_x(n))
    return rep.distinct_real_roots, rep.is_squarefree


def _fiber_histogram(n):
    """How many permutations of [n] carry each number of decorations."""
    fibers = Counter(tuple(v for v, _, _ in w.entries)
                     for w in objects.generate("decorated", n))
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
        "A-via-invseq", "type-A Eulerian polynomial equals the ascent "
        "distribution of (1..n)-inversion sequences", range(0, 7),
        (Route("recurrence", "recurrence", lambda n: families.a_poly(n)),
         Route("enumeration", "inversion sequences",
               lambda n: families.invseq_distribution(tuple(range(1, n + 1)))))),
    IdentityCheck(
        "B-via-invseq", "type-B Eulerian polynomial via (2,4,..,2n)-inversion "
        "sequences equals the signed-permutation descent distribution",
        range(1, 7),
        (Route("enumeration", "inversion sequences",
               lambda n: families.b_poly(n, "invseq")),
         Route("enumeration", "signed permutations",
               lambda n: families.b_poly(n, "signed")))),
    IdentityCheck(
        "M-via-invseq", "odd-larger matching polynomial equals the ascent "
        "distribution of (1,3,..,2n-1)-inversion sequences", range(0, 8),
        (Route("recurrence", "reversed recurrence", lambda n: families.m_poly(n)),
         Route("enumeration", "inversion sequences",
               lambda n: families.invseq_distribution(tuple(range(1, 2 * n, 2)))))),
    IdentityCheck(
        "N-el-enum", "N-triangle recurrence matches even-larger block counts",
        range(1, 8),
        (Route("recurrence", "recurrence", lambda n: families.n_poly(n)),
         Route("enumeration", "matching enumeration",
               lambda n: families.n_poly_enum(n)))),
    IdentityCheck(
        "M-ol-enum", "reversed N-polynomial matches odd-larger block counts",
        range(1, 8),
        (Route("recurrence", "reversed recurrence", lambda n: families.m_poly(n)),
         Route("enumeration", "matching enumeration",
               lambda n: families.m_poly_enum(n)))),
    IdentityCheck(
        "M-reverse-N", "EGF route for M agrees with x^n N_n(1/x)", range(0, 11),
        (Route("series", "egf",
               lambda n: egf_coefficient(families.series_families(10)["M"], n)),
         Route("recurrence", "reversal of recurrence",
               lambda n: poly_reverse(families.n_poly(n), n)))),
    IdentityCheck(
        "eq-1-3", "2^n x A_n equals the binomial self-convolution of N",
        range(0, 9),
        (Route("recurrence", "2^n x A_n by recurrence",
               lambda n: 2 ** n * X * families.a_poly(n) if n else ONE),
         Route("enumeration", "2^n x A_n by enumeration",
               lambda n: 2 ** n * X * families.a_poly_enum(n) if n else ONE),
         Route("convolution", "binomial convolution",
               lambda n: _binomial_convolution(n, families.n_poly,
                                               families.n_poly)))),
    IdentityCheck(
        "eq-1-4", "B_n equals the binomial convolution of N and M", range(1, 7),
        (Route("enumeration", "inversion sequences",
               lambda n: families.b_poly(n, "invseq")),
         Route("enumeration", "signed permutations",
               lambda n: families.b_poly(n, "signed")),
         Route("convolution", "binomial convolution",
               lambda n: _binomial_convolution(n, families.n_poly,
                                               families.m_poly)))),
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
               lambda n: families.series_families(n)["A"].scale_argument(2)))),
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
               lambda n: families.c_poly_enum(n)))),
    IdentityCheck(
        "ap-equals-el", "ascent-plateau distribution equals the even-larger "
        "block distribution", range(1, 8),
        (Route("enumeration", "ascent plateaus",
               lambda n: families.ap_poly_enum(n)),
         Route("enumeration", "even-larger blocks",
               lambda n: families.n_poly_enum(n)),
         Route("recurrence", "recurrence", lambda n: families.n_poly(n)))),
    IdentityCheck(
        "cplat-casc-C", "cycle plateaus and shifted cycle ascents both give "
        "the second-order Eulerian polynomial", range(1, 8),
        (Route("enumeration", "cycle plateaus",
               lambda n: families.cplat_poly_enum(n)),
         Route("enumeration", "x * cycle ascents",
               lambda n: X * families.casc_poly_enum(n)),
         Route("recurrence", "recurrence", lambda n: families.c_poly(n)))),
    IdentityCheck(
        "Q-recurrence-enum", "cap/cycle polynomial recurrence matches "
        "enumeration", range(1, 8),
        (Route("recurrence", "recurrence", lambda n: families.q_poly(n)),
         Route("enumeration", "enumeration", lambda n: families.q_poly_enum(n)))),
    IdentityCheck(
        "Q-gf", "cap/cycle polynomial matches its symbolic-power EGF",
        range(0, 9),
        (Route("recurrence", "recurrence", lambda n: families.q_poly(n)),
         Route("series", "egf symbolic power",
               lambda n: egf_coefficient(families.series_families(8)["Q"], n)))),
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
               lambda n: families.desi_poly_enum(n)),
         Route("enumeration", "cycle count", lambda n: families.cyc_poly_enum(n)),
         Route("closed-form", "rising product", lambda n: families.l_closed(n)))),
    IdentityCheck(
        "Y-cyclic", "one-cycle cap distribution is 2^(n-1) x A_(n-1)",
        range(2, 8),
        (Route("enumeration", "one-cycle enumeration",
               lambda n: families.y_poly_enum(n)),
         Route("recurrence", "doubled Eulerian",
               lambda n: families.y_poly(n)))),
    IdentityCheck(
        "P-three-routes", "cap/fix/cycle polynomial agrees across recurrence, "
        "convolution, series and enumeration", range(0, 8),
        (Route("recurrence", "recurrence",
               lambda n: families.p_poly(n, "recurrence")),
         Route("convolution", "convolution",
               lambda n: families.p_poly(n, "convolution")),
         Route("series", "series", lambda n: families.p_poly(n, "series")),
         Route("enumeration", "enumeration",
               lambda n: families.p_poly(n, "enumeration")))),
    IdentityCheck(
        "P-gf", "cap/fix/cycle polynomial matches e^(qz(y-1)) Q(x,q;z)",
        range(0, 9),
        (Route("recurrence", "recurrence", lambda n: families.p_poly(n)),
         Route("series", "egf product",
               lambda n: egf_coefficient(families.series_families(8)["P"], n)))),
    IdentityCheck(
        "grammar-lemma1", "n-th grammar derivative of a encodes the "
        "cycle-Stirling statistics", range(1, 7),
        (Route("grammar", "D^n(a)",
               lambda n: grammar.cycle_derivative_polynomial(n)),
         Route("enumeration", "cycle-Stirling encoding", lambda n: grammar.from_xyq(
             families.p_poly(n, "enumeration"), n)),
         Route("recurrence", "encoded recurrence",
               lambda n: grammar.from_xyq(families.p_poly(n), n)))),
    IdentityCheck(
        "grammar-lemma2", "n-th grammar derivative of b^2 produces the "
        "Eulerian row", range(1, 11),
        (Route("grammar", "D^n(b^2)", lambda n: grammar.derive(
            grammar.EULERIAN_GRAMMAR, ExactPoly.var("b") ** 2, n)),
         Route("recurrence", "2^n sum_k <n,k> c^(2k+2) d^(2n-2k)",
               lambda n: grammar.eulerian_encoding(n)))),
    IdentityCheck(
        "R-recurrence-enum", "fixed-point-free recurrence matches enumeration",
        range(1, 8),
        (Route("recurrence", "recurrence", lambda n: families.r_poly(n)),
         Route("enumeration", "enumeration", lambda n: families.r_poly_enum(n)))),
    IdentityCheck(
        "R-binomial-shift", "y-coefficients of P_n equal C(n,k) q^k R_{n-k}",
        range(0, 9),
        (Route("recurrence", "y-coefficients of P_n",
               lambda n: _coefficients(families.p_poly(n), "y", n)),
         Route("closed-form", "C(n,k) q^k R_{n-k} by k",
               lambda n: tuple(families.r_nk_poly(n, k) for k in range(n + 1))))),
    IdentityCheck(
        "qn-egf", "fixed-point-free counts match e^(-z)/sqrt(1-2z)", range(0, 13),
        (Route("recurrence", "recurrence",
               lambda n: ExactPoly.const(families.q_seq(n)[n])),
         Route("series", "egf",
               lambda n: egf_coefficient(families.series_families(12)["qn"], n)),
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
               lambda n: 2 ** n * families.d_poly_enum(n) if n else ONE))),
    IdentityCheck(
        "R-palindromic", "R_n at q=1 is palindromic with center n", range(2, 11),
        (Route("recurrence", "R_n", lambda n: families.r_poly(n, with_q=False)),
         Route("closed-form", "x^n R_n(1/x)", lambda n: poly_reverse(
             families.r_poly(n, with_q=False), n)))),
    IdentityCheck(
        "R-real-rooted", "R_n/x has only simple real zeros (Sturm count)",
        range(2, 11),
        (Route("recurrence", "(degree of R_n/x, True)",
               lambda n: (_r_over_x(n).degree("x"), True)),
         Route("sturm", "(Sturm distinct real roots, squarefree)",
               _sturm_count))),
    IdentityCheck(
        "h-series-vs-enum", "signed cap sums over fixed-point-free objects "
        "match the secant-root series", range(1, 8),
        (Route("enumeration", "signed enumeration",
               lambda n: families.cap_sign_sum(n)),
         Route("series", "secant-root series", _h_signed))),
    IdentityCheck(
        "h-involutions", "paired-excedance involution counts match the "
        "secant-root series", range(0, 3),
        (Route("enumeration", "involution search",
               lambda n: objects.count_paired_excedance_involutions(n)),
         Route("series", "series", lambda n: families.h_values(n)[n]))),
    IdentityCheck(
        "rlmin-closed-form", "right-to-left minima over signed permutations "
        "give 2^n x (x+1)..(x+n-1)", range(1, 6),
        (Route("enumeration", "enumeration",
               lambda n: families.rlmin_poly_enum(n)),
         Route("closed-form", "rising factorial",
               lambda n: families.rlmin_closed_form(n)))),
    IdentityCheck(
        "fiber-2n", "every permutation has exactly 2^n decorations",
        range(1, 6),
        (Route("enumeration", "permutations by decoration count",
               _fiber_histogram),
         Route("closed-form", "n! permutations with 2^n each",
               lambda n: {2 ** n: math.factorial(n)}))),
)

REGISTRY: dict[str, IdentityCheck] = {c.id: c for c in CHECKS}


def run_check(check_id: str, n: int) -> VerifyReport:
    """Evaluate every route of one identity at one n and compare each value
    with the first route's, exactly."""
    check = REGISTRY.get(check_id)
    if check is None:
        raise ValueError(f"unknown check id {check_id!r}")
    if n < check.min_n or n > check.max_n:
        return VerifyReport(check_id, n, "skipped-capacity")
    t0 = time.perf_counter()
    try:
        values = [route.fn(n) for route in check.routes]
    except CapacityError:
        return VerifyReport(check_id, n, "skipped-capacity")
    ms = (time.perf_counter() - t0) * 1000
    first, want = check.routes[0], values[0]
    for route, got in zip(check.routes[1:], values[1:]):
        if got != want:
            return VerifyReport(check_id, n, "fail",
                                lhs=f"{first.label}: {_fmt(want)}",
                                rhs=f"{route.label}: {_fmt(got)}",
                                runtime_ms=ms)
    return VerifyReport(check_id, n, "pass", runtime_ms=ms)


def plan(max_n_overrides: dict[str, int] | None = None):
    overrides = max_n_overrides or {}
    out = []
    for check in CHECKS:
        hi = min(check.max_n, overrides.get(check.id, check.max_n))
        out.append((check.id, tuple(n for n in check.ns if n <= hi)))
    return out


# ---------------------------------------------------------------------------
# running the plan on two processes
# ---------------------------------------------------------------------------

_RUN_CHECK_CODE = run_check.__code__


def _cpu_count() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _shards(units):
    """Split (position, check id, n) units by route kind.  A bijection
    certificate walks its own construction tree and reads no statistic
    table; every other check stays in one shard, so the (class, n) tables
    its checks share are each built once."""
    walks = {c.id for c in CHECKS if any(r.kind == "bijection" for r in c.routes)}
    shards = ([u for u in units if u[1] in walks],
              [u for u in units if u[1] not in walks])
    return [shard for shard in shards if shard] or [units]


def _run_units(units):
    """Run the units in order up to the first that raises.  Returns the
    (position, report) pairs and None, or the pairs before the unit that
    raised and (its position, the exception)."""
    done = []
    for pos, check_id, n in units:
        try:
            done.append((pos, run_check(check_id, n)))
        except Exception as exc:
            return done, (pos, exc)
    return done, None


def _fork_units(units):
    """Run the units in a forked child, which inherits every function
    bound in this process, mutants included.  Returns (pid, read end of
    the pipe that carries the child's pickled `_run_units` result)."""
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
        result = _run_units(units)
        try:
            data = pickle.dumps(result)
        except Exception:  # the exception of a unit does not pickle
            done, (pos, exc) = result
            data = pickle.dumps(
                (done, (pos, RuntimeError(f"{type(exc).__name__}: {exc}"))))
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


def run_all(max_n_overrides: dict[str, int] | None = None) -> list[VerifyReport]:
    """Run every registered check at every default n up to capacity, and
    return the reports in plan order.

    With two or more CPUs and `os.fork`, a forked child runs the checks
    that share statistic tables while this process runs the bijection
    certificates, whose image sets set the peak memory.  A rebound
    `run_check` (a tracer, a test stub) keeps its counters in this
    process, so then everything runs here, as on one CPU or with other
    threads running.  When units raise, the exception of the earliest in
    plan order is raised."""
    import threading

    pairs = [(check_id, n) for check_id, ns in plan(max_n_overrides) for n in ns]
    units = [(pos, *pair) for pos, pair in enumerate(pairs)]
    shards = [units]
    # A forked child holds only the calling thread, and locks other
    # threads held stay locked in it.
    if (_cpu_count() > 1 and hasattr(os, "fork")
            and threading.active_count() == 1
            and getattr(run_check, "__code__", None) is _RUN_CHECK_CODE):
        shards = _shards(units)
    here, *elsewhere = shards
    children = [_fork_units(shard) for shard in elsewhere]
    try:
        results = [_run_units(here)]
    except BaseException:  # an interrupt: stop the child too
        import signal

        for pid, read in children:
            os.close(read)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        raise
    results += [_join(*child) for child in children]
    errors = [error for _, error in results if error is not None]
    if errors:
        raise min(errors, key=lambda error: error[0])[1]
    return [rep for _, rep in sorted(pair for done, _ in results for pair in done)]
