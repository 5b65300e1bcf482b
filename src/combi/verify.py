"""Registry of runnable identity checks.

Every identity the package claims is registered here as a named check
wiring at least two independent computation routes (recurrence, closed
form, generating function, exhaustive enumeration, grammar derivative,
bijection replay).  All comparisons are exact; a failing check reports
both sides in canonical text.
"""

from __future__ import annotations

import math
import time
from collections import Counter
from dataclasses import dataclass

from .poly import ONE, X, CapacityError, ExactPoly, divexact, poly_reverse
from .series import egf_coefficient
from .sturm import sturm_real_roots
from . import bijections, families, grammar, objects


@dataclass(frozen=True)
class VerifyReport:
    id: str
    n: int
    status: str  # pass | fail | skipped-capacity
    lhs: str | None = None
    rhs: str | None = None
    runtime_ms: float = 0.0


@dataclass(frozen=True)
class IdentityCheck:
    id: str
    description: str
    routes: tuple[str, ...]
    ns: tuple[int, ...]  # default n values for a full run
    fn: object

    @property
    def min_n(self) -> int:
        return self.ns[0]

    @property
    def max_n(self) -> int:
        return self.ns[-1]


def _fmt(v) -> str:
    if isinstance(v, ExactPoly):
        return v.render()
    return str(v)


def _cmp(*values, labels=None):
    """None when all values agree, else (lhs_text, rhs_text)."""
    first = values[0]
    for i, v in enumerate(values[1:], start=1):
        if v != first:
            l0 = labels[0] if labels else "route0"
            li = labels[i] if labels else f"route{i}"
            return f"{l0}: {_fmt(first)}", f"{li}: {_fmt(v)}"
    return None


# ---------------------------------------------------------------------------
# check bodies
# ---------------------------------------------------------------------------

def _chk_a_via_invseq(n):
    return _cmp(families.a_poly(n),
                families.invseq_distribution(tuple(range(1, n + 1))),
                labels=("recurrence", "inversion sequences"))


def _chk_b_via_invseq(n):
    return _cmp(families.b_poly(n, "invseq"), families.b_poly(n, "signed"),
                labels=("inversion sequences", "signed permutations"))


def _chk_m_via_invseq(n):
    return _cmp(families.m_poly(n),
                families.invseq_distribution(tuple(range(1, 2 * n, 2))),
                labels=("reversed recurrence", "inversion sequences"))


def _chk_n_el_enum(n):
    return _cmp(families.n_poly(n), families.n_poly_enum(n),
                labels=("recurrence", "matching enumeration"))


def _chk_m_ol_enum(n):
    return _cmp(families.m_poly(n), families.m_poly_enum(n),
                labels=("reversed recurrence", "matching enumeration"))


def _chk_m_reverse_n(n):
    series = families.series_families(10)["M"]
    return _cmp(egf_coefficient(series, n), poly_reverse(families.n_poly(n), n),
                labels=("egf", "reversal of recurrence"))


def _chk_eq_1_3(n):
    if n:
        bad = _cmp(families.a_poly(n), families.a_poly_enum(n),
                   labels=("recurrence", "enumeration"))
        if bad:
            return bad
    lhs = ONE if n == 0 else 2 ** n * X * families.a_poly(n)
    rhs = ExactPoly.zero()
    for k in range(n + 1):
        rhs = rhs + math.comb(n, k) * families.n_poly(k) * families.n_poly(n - k)
    return _cmp(lhs, rhs, labels=("2^n x A_n", "binomial convolution"))


def _chk_eq_1_4(n):
    rhs = ExactPoly.zero()
    for k in range(n + 1):
        rhs = rhs + math.comb(n, k) * families.n_poly(k) * families.m_poly(n - k)
    return _cmp(families.b_poly(n, "invseq"), families.b_poly(n, "signed"), rhs,
                labels=("inversion sequences", "signed permutations",
                        "binomial convolution"))


def _refined(n, class_name, stat, refiner, second):
    """The stat distribution at refiner = k against C(n,k) N_k second(n-k)."""
    dist = families.stat_distribution(class_name, n,
                                      ((stat, "x"), (refiner, "q")))
    for k in range(n + 1):
        got = dist.coefficient_of("q", k)
        want = math.comb(n, k) * families.n_poly(k) * second(n - k)
        if got != want:
            return (f"k={k} enumeration: {got.render()}",
                    f"k={k} product: {want.render()}")
    return None


def _chk_eq_1_3_refined(n):
    return _refined(n, "decorated", "asc", "hat", families.n_poly)


def _chk_eq_1_4_refined(n):
    return _refined(n, "signed", "des_B", "bar", families.m_poly)


def _chk_n2_a2z(order):
    s = families.series_families(order)
    lhs = s["N"] * s["N"]
    rhs = s["A"].scale_argument(2)
    if lhs == rhs:
        return None
    return ("N(x,z)^2: " + lhs.render(), "A(x,2z): " + rhs.render())


def _bijection_result(map_id, n):
    rep = bijections.verify_bijection(map_id, n)
    if rep.all_ok:
        return None
    flags = (f"injective={rep.injective} complete={rep.image_complete} "
             f"weight={rep.weight_preserving}")
    witness = "" if rep.counterexample is None else f"{rep.counterexample}"
    return (flags, witness or "no witness")


def _chk_phi(n):
    return _bijection_result("phi", n)


def _chk_psi(n):
    return _bijection_result("psi", n)


def _chk_c_descents(n):
    return _cmp(families.c_poly(n), families.c_poly_enum(n),
                labels=("recurrence", "descent enumeration"))


def _chk_ap_el(n):
    return _cmp(families.ap_poly_enum(n), families.n_poly_enum(n),
                families.n_poly(n),
                labels=("ascent plateaus", "even-larger blocks", "recurrence"))


def _chk_cplat_casc(n):
    return _cmp(families.cplat_poly_enum(n), X * families.casc_poly_enum(n),
                families.c_poly(n),
                labels=("cycle plateaus", "x * cycle ascents", "recurrence"))


def _chk_q_rec_enum(n):
    return _cmp(families.q_poly(n), families.q_poly_enum(n),
                labels=("recurrence", "enumeration"))


def _chk_q_gf(n):
    series = families.series_families(8)["Q"]
    return _cmp(families.q_poly(n), egf_coefficient(series, n),
                labels=("recurrence", "egf symbolic power"))


def _chk_cyc_closed(n):
    return _cmp(families.q_poly(n).subs_num("x", 1), families.l_closed(n),
                labels=("Q at x=1", "rising product"))


def _chk_desi_cyc(n):
    return _cmp(families.desi_poly_enum(n), families.cyc_poly_enum(n),
                families.l_closed(n),
                labels=("descent intervals", "cycle count", "rising product"))


def _chk_y_cyclic(n):
    return _cmp(families.y_poly_enum(n), 2 ** (n - 1) * X * families.a_poly(n - 1),
                labels=("one-cycle enumeration", "doubled Eulerian"))


def _chk_p_routes(n):
    vals = [families.p_poly(n, "recurrence"), families.p_poly(n, "convolution"),
            families.p_poly(n, "series")]
    labels = ["recurrence", "convolution", "series"]
    if 1 <= n <= families.P_ENUM_MAX:
        vals.append(families.p_poly(n, "enumeration"))
        labels.append("enumeration")
    return _cmp(*vals, labels=tuple(labels))


def _chk_p_gf(n):
    series = families.series_families(8)["P"]
    return _cmp(families.p_poly(n), egf_coefficient(series, n),
                labels=("recurrence", "egf product"))


def _chk_lemma1(n):
    rep = grammar.lemma1_check(n)
    if rep.status == "fail":
        return (rep.lhs, rep.rhs)
    return _cmp(grammar.fix_cycle_cap_polynomial(n), families.p_poly(n),
                labels=("grammar substitution", "recurrence"))


def _chk_lemma2(n):
    rep = grammar.lemma2_check(n)
    if rep.status == "fail":
        return (rep.lhs, rep.rhs)
    return None


def _chk_r_rec_enum(n):
    return _cmp(families.r_poly(n), families.r_poly_enum(n),
                labels=("recurrence", "enumeration"))


def _chk_r_binomial(n):
    p = families.p_poly(n)
    for k in range(n + 1):
        got = p.coefficient_of("y", k)
        want = families.r_nk_poly(n, k)
        if got != want:
            return (f"k={k} coefficient: {got.render()}",
                    f"k={k} shifted: {want.render()}")
    return None


def _chk_qn_egf(n):
    series = families.series_families(12)["qn"]
    rec = families.q_seq(n)[n]
    via_r = families.r_poly(n).subs_num("x", 1).subs_num("q", 1)
    return _cmp(ExactPoly.const(rec), egf_coefficient(series, n), via_r,
                labels=("recurrence", "egf", "R at (1,1)"))


def _chk_s2_d2z(n):
    lhs = 2 ** n * families.d_poly(n)
    rhs = ExactPoly.zero()
    for k in range(n + 1):
        rhs = rhs + (math.comb(n, k) * families.r_poly(k, with_q=False)
                     * families.r_poly(n - k, with_q=False))
    bad = _cmp(lhs, rhs, labels=("2^n d_n", "binomial convolution"))
    if bad:
        return bad
    if n == 8:
        s = families.series_families(8)
        if s["S"] * s["S"] != s["d"].scale_argument(2):
            return ("S(x,z)^2: " + (s["S"] * s["S"]).render(),
                    "d(x,2z): " + s["d"].scale_argument(2).render())
    return None


def _chk_r_palindromic(n):
    p = families.r_poly(n, with_q=False)
    return _cmp(p, poly_reverse(p, n), labels=("R_n", "x^n R_n(1/x)"))


def _chk_r_real_rooted(n):
    p = divexact(families.r_poly(n, with_q=False), X)
    rep = sturm_real_roots(p)
    if rep.is_squarefree and rep.distinct_real_roots == rep.degree:
        return None
    return (f"sturm: {rep}", f"expected {rep.degree} simple real roots")


def _chk_h_enum(n):
    got = families.cap_sign_sum(n)
    if n % 2:
        want = 0
    else:
        k = n // 2
        want = (-1) ** k * families.h_values(k)[k]
    return _cmp(got, want, labels=("signed enumeration", "secant-root series"))


def _chk_h_involutions(n):
    return _cmp(objects.count_paired_excedance_involutions(n),
                families.h_values(n)[n],
                labels=("involution search", "series"))


def _chk_rlmin(n):
    return _cmp(families.rlmin_poly_enum(n), families.rlmin_closed_form(n),
                labels=("enumeration", "rising factorial"))


def _chk_fiber(n):
    fibers = Counter()
    for w in objects.generate("decorated", n):
        fibers[tuple(v for v, _, _ in w.entries)] += 1
    want = 2 ** n
    if (len(fibers) == math.factorial(n)
            and all(c == want for c in fibers.values())):
        return None
    bad = next((k, c) for k, c in fibers.items() if c != want)
    return (f"fiber {bad[0]}: {bad[1]}", f"expected: {want}")


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

def _mk(id_, description, routes, ns, fn):
    return IdentityCheck(id_, description, tuple(routes), tuple(ns), fn)


CHECKS: tuple[IdentityCheck, ...] = (
    _mk("A-via-invseq", "type-A Eulerian polynomial equals the ascent "
        "distribution of (1..n)-inversion sequences",
        ("recurrence", "enumeration"), range(0, 7), _chk_a_via_invseq),
    _mk("B-via-invseq", "type-B Eulerian polynomial via (2,4,..,2n)-inversion "
        "sequences equals the signed-permutation descent distribution",
        ("enumeration", "enumeration"), range(1, 7), _chk_b_via_invseq),
    _mk("M-via-invseq", "odd-larger matching polynomial equals the ascent "
        "distribution of (1,3,..,2n-1)-inversion sequences",
        ("recurrence", "enumeration"), range(0, 8), _chk_m_via_invseq),
    _mk("N-el-enum", "N-triangle recurrence matches even-larger block counts",
        ("recurrence", "enumeration"), range(1, 8), _chk_n_el_enum),
    _mk("M-ol-enum", "reversed N-polynomial matches odd-larger block counts",
        ("recurrence", "enumeration"), range(1, 8), _chk_m_ol_enum),
    _mk("M-reverse-N", "EGF route for M agrees with x^n N_n(1/x)",
        ("series", "recurrence"), range(0, 11), _chk_m_reverse_n),
    _mk("eq-1-3", "2^n x A_n equals the binomial self-convolution of N",
        ("recurrence", "enumeration", "convolution"), range(0, 9), _chk_eq_1_3),
    _mk("eq-1-4", "B_n equals the binomial convolution of N and M",
        ("enumeration", "enumeration", "convolution"), range(1, 7), _chk_eq_1_4),
    _mk("eq-1-3-refined-k", "hat-refined ascent distribution equals "
        "C(n,k) N_k N_{n-k}",
        ("enumeration", "convolution"), range(1, 7), _chk_eq_1_3_refined),
    _mk("eq-1-4-refined-k", "bar-refined descent distribution equals "
        "C(n,k) N_k M_{n-k}",
        ("enumeration", "convolution"), range(1, 7), _chk_eq_1_4_refined),
    _mk("N2-equals-A2z", "N(x,z)^2 = A(x,2z) as truncated series",
        ("series", "series"), (8,), _chk_n2_a2z),
    _mk("phi-bijection", "decorated permutations biject onto matching pairs, "
        "preserving ascents",
        ("bijection", "enumeration"), range(1, 8), _chk_phi),
    _mk("psi-bijection", "signed permutations biject onto matching pairs, "
        "preserving descents",
        ("bijection", "enumeration"), range(1, 7), _chk_psi),
    _mk("C-descents", "second-order Eulerian recurrence matches descent "
        "enumeration over Stirling words",
        ("recurrence", "enumeration"), range(1, 8), _chk_c_descents),
    _mk("ap-equals-el", "ascent-plateau distribution equals the even-larger "
        "block distribution",
        ("enumeration", "enumeration", "recurrence"), range(1, 8), _chk_ap_el),
    _mk("cplat-casc-C", "cycle plateaus and shifted cycle ascents both give "
        "the second-order Eulerian polynomial",
        ("enumeration", "enumeration", "recurrence"), range(1, 8),
        _chk_cplat_casc),
    _mk("Q-recurrence-enum", "cap/cycle polynomial recurrence matches "
        "enumeration",
        ("recurrence", "enumeration"), range(1, 8), _chk_q_rec_enum),
    _mk("Q-gf", "cap/cycle polynomial matches its symbolic-power EGF",
        ("recurrence", "series"), range(0, 9), _chk_q_gf),
    _mk("cyc-closed-form", "cycle-count distribution is the rising product "
        "q(q+2)..(q+2n-2)",
        ("recurrence", "closed-form"), range(1, 9), _chk_cyc_closed),
    _mk("desi-equals-cyc", "descent intervals on words match cycle counts on "
        "cycle forms",
        ("enumeration", "enumeration", "closed-form"), range(1, 8),
        _chk_desi_cyc),
    _mk("Y-cyclic", "one-cycle cap distribution is 2^(n-1) x A_(n-1)",
        ("enumeration", "recurrence"), range(2, 8), _chk_y_cyclic),
    _mk("P-three-routes", "cap/fix/cycle polynomial agrees across recurrence, "
        "convolution, series and enumeration",
        ("recurrence", "convolution", "series", "enumeration"), range(0, 8),
        _chk_p_routes),
    _mk("P-gf", "cap/fix/cycle polynomial matches e^(qz(y-1)) Q(x,q;z)",
        ("recurrence", "series"), range(0, 9), _chk_p_gf),
    _mk("grammar-lemma1", "n-th grammar derivative of a encodes the "
        "cycle-Stirling statistics",
        ("grammar", "enumeration", "recurrence"), range(1, 7), _chk_lemma1),
    _mk("grammar-lemma2", "n-th grammar derivative of b^2 produces the "
        "Eulerian row",
        ("grammar", "recurrence"), range(1, 11), _chk_lemma2),
    _mk("R-recurrence-enum", "fixed-point-free recurrence matches enumeration",
        ("recurrence", "enumeration"), range(1, 8), _chk_r_rec_enum),
    _mk("R-binomial-shift", "y-coefficients of P_n equal C(n,k) q^k R_{n-k}",
        ("recurrence", "closed-form"), range(0, 9), _chk_r_binomial),
    _mk("qn-egf", "fixed-point-free counts match e^(-z)/sqrt(1-2z)",
        ("recurrence", "series", "recurrence"), range(0, 13), _chk_qn_egf),
    _mk("S2-equals-d2z", "S(x,z)^2 = d(x,2z); 2^n d_n is the binomial "
        "self-convolution of R",
        ("series", "convolution"), range(0, 9), _chk_s2_d2z),
    _mk("R-palindromic", "R_n at q=1 is palindromic with center n",
        ("recurrence", "closed-form"), range(2, 11), _chk_r_palindromic),
    _mk("R-real-rooted", "R_n/x has only simple real zeros (Sturm count)",
        ("recurrence", "sturm"), range(2, 11), _chk_r_real_rooted),
    _mk("h-series-vs-enum", "signed cap sums over fixed-point-free objects "
        "match the secant-root series",
        ("enumeration", "series"), range(1, 8), _chk_h_enum),
    _mk("h-involutions", "paired-excedance involution counts match the "
        "secant-root series",
        ("enumeration", "series"), range(0, 3), _chk_h_involutions),
    _mk("rlmin-closed-form", "right-to-left minima over signed permutations "
        "give 2^n x (x+1)..(x+n-1)",
        ("enumeration", "closed-form"), range(1, 6), _chk_rlmin),
    _mk("fiber-2n", "every permutation has exactly 2^n decorations",
        ("enumeration", "closed-form"), range(1, 6), _chk_fiber),
)

REGISTRY: dict[str, IdentityCheck] = {c.id: c for c in CHECKS}


def run_check(check_id: str, n: int) -> VerifyReport:
    """Evaluate one identity at one n, comparing every route exactly."""
    check = REGISTRY.get(check_id)
    if check is None:
        raise ValueError(f"unknown check id {check_id!r}")
    if n < check.min_n or n > check.max_n:
        return VerifyReport(check_id, n, "skipped-capacity")
    t0 = time.perf_counter()
    try:
        result = check.fn(n)
    except CapacityError:
        return VerifyReport(check_id, n, "skipped-capacity")
    ms = (time.perf_counter() - t0) * 1000
    if result is None:
        return VerifyReport(check_id, n, "pass", runtime_ms=ms)
    return VerifyReport(check_id, n, "fail", lhs=result[0], rhs=result[1],
                        runtime_ms=ms)


def plan(max_n_overrides: dict[str, int] | None = None):
    overrides = max_n_overrides or {}
    out = []
    for check in CHECKS:
        hi = min(check.max_n, overrides.get(check.id, check.max_n))
        out.append((check.id, tuple(n for n in check.ns if n <= hi)))
    return out


def run_all(max_n_overrides: dict[str, int] | None = None) -> list[VerifyReport]:
    """Run every registered check at every default n up to capacity."""
    return [run_check(check_id, n)
            for check_id, ns in plan(max_n_overrides) for n in ns]
