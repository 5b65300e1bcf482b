"""Polynomial families and integer sequences.

Every family is available through at least two independent routes
(recurrence, closed form, exponential generating function, exhaustive
enumeration); the verification registry cross-wires them.  All recurrences
are taken at face value from their defining relations:

    N(n+1,k) = 2k N(n,k) + (2n-2k+3) N(n,k-1)          N(1,1) = 1
    C(n,k)   = k C(n-1,k) + (2n-k) C(n-1,k-1)          C(1,1) = 1
    <n,k>    = (k+1)<n-1,k> + (n-k)<n-1,k-1>           <0,0> = 1
    A_{n+1}  = (1+nx) A_n + x(1-x) A_n'
    Q_{n+1}  = (q+2nx) Q_n + 2x(1-x) dQ_n/dx
    P_{n+1}  = (2nx+qy) P_n + 2x(1-x) dP_n/dx + 2x(1-y) dP_n/dy
    R_{n+1}  = 2nx R_n + 2x(1-x) dR_n/dx + 2nxq R_{n-1}
    q_{n+1}  = 2n (q_n + q_{n-1})
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType

from .poly import (NVARS, ONE, Q, VAR_INDEX, X, Y, CapacityError, ExactPoly,
                   poly_reverse)
from .series import (DEFAULT_ORDER, TruncatedSeries, egf_coefficient,
                     max_order, series_exp, series_inverse,
                     series_pow_symbolic, series_ratio, series_sqrt)
from . import objects
from .objects import class_functions, double_factorial, generate, stats


# ---------------------------------------------------------------------------
# coefficient triangles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TriangleTable:
    """Rows of exact integers, row n giving the coefficients k = 0..n."""
    name: str
    rows: tuple[tuple[int, ...], ...]

    def row(self, n: int) -> tuple[int, ...]:
        if not 1 <= n <= len(self.rows):
            raise ValueError(f"{self.name} has rows 1..{len(self.rows)}, not {n}")
        return self.rows[n - 1]

    def row_sums(self) -> list[int]:
        return [sum(r) for r in self.rows]


def n_row(n: int) -> tuple[int, ...]:
    """Matchings of [2n] with k even-larger blocks."""
    if n < 1:
        raise ValueError("n must be >= 1")
    row = [0, 1]
    for m in range(1, n):
        new = [0] * (m + 2)
        for k in range(1, m + 2):
            old_k = row[k] if k <= m else 0
            new[k] = 2 * k * old_k + (2 * m - 2 * k + 3) * row[k - 1]
        row = new
    return tuple(row)


def c_row(n: int) -> tuple[int, ...]:
    """Stirling words of order n with k descents (second-order Eulerian)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    row = [0, 1]
    for m in range(2, n + 1):
        new = [0] * (m + 1)
        for k in range(1, m + 1):
            old_k = row[k] if k < len(row) else 0
            new[k] = k * old_k + (2 * m - k) * row[k - 1]
        row = new
    return tuple(row)


def _require_nonnegative(n: int) -> None:
    if n < 0:
        raise ValueError("n must be >= 0")


def eulerian_row(n: int) -> tuple[int, ...]:
    """Permutations of [n] with k descents; row n has entries k = 0..n-1."""
    _require_nonnegative(n)
    row = [1]
    for m in range(1, n + 1):
        new = [0] * m
        for k in range(m):
            left = row[k] if k < len(row) else 0
            right = row[k - 1] if 0 <= k - 1 < len(row) else 0
            new[k] = (k + 1) * left + (m - k) * right
        row = new
    return tuple(row)


def n_triangle(n_max: int) -> TriangleTable:
    return TriangleTable("N", tuple(n_row(n) for n in range(1, n_max + 1)))


def c_triangle(n_max: int) -> TriangleTable:
    return TriangleTable("C", tuple(c_row(n) for n in range(1, n_max + 1)))


def _from_coeffs(coeffs, var="x") -> ExactPoly:
    t = {}
    i = VAR_INDEX[var]
    for k, c in enumerate(coeffs):
        if c:
            exp = [0] * NVARS
            exp[i] = k
            t[tuple(exp)] = c
    return ExactPoly(t)


# ---------------------------------------------------------------------------
# recurrence / closed-form routes
# ---------------------------------------------------------------------------

def n_poly(n: int) -> ExactPoly:
    return ONE if n == 0 else _from_coeffs(n_row(n))


def m_poly(n: int) -> ExactPoly:
    """x^n N_n(1/x): matchings counted by odd-larger blocks."""
    return poly_reverse(n_poly(n), n)


def c_poly(n: int) -> ExactPoly:
    return ONE if n == 0 else _from_coeffs(c_row(n))


def a_poly(n: int) -> ExactPoly:
    _require_nonnegative(n)
    p = ONE
    for m in range(n):
        p = (1 + m * X) * p + X * (1 - X) * p.diff("x")
    return p


def q_poly(n: int, with_q: bool = True) -> ExactPoly:
    _require_nonnegative(n)
    p = ONE
    for m in range(n):
        p = (Q + 2 * m * X) * p + 2 * X * (1 - X) * p.diff("x")
    return p if with_q else p.subs_num("q", 1)


_P_ROUTES = ("recurrence", "convolution", "series", "enumeration")
P_ENUM_MAX = 7


def p_poly(n: int, route: str = "recurrence") -> ExactPoly:
    """Cycle-Stirling distribution by (cap, fix, cycles), four ways."""
    if route not in _P_ROUTES:
        raise ValueError(f"unknown route {route!r}; choose from {_P_ROUTES}")
    _require_nonnegative(n)
    if route == "recurrence":
        p = ONE
        for m in range(n):
            p = ((2 * m * X + Q * Y) * p + 2 * X * (1 - X) * p.diff("x")
                 + 2 * X * (1 - Y) * p.diff("y"))
        return p
    if route == "convolution":
        ps = [ONE]
        for m in range(n):
            nxt = Q * Y * ps[m]
            for k in range(m):
                nxt = nxt + (Q * X * math.comb(m, k) * 2 ** (m - k)) \
                    * ps[k] * a_poly(m - k)
            ps.append(nxt)
        return ps[n]
    if route == "series":
        if n > max_order():
            raise CapacityError(f"series route needs order {n} > {max_order()}")
        return egf_coefficient(series_families(max(n, DEFAULT_ORDER))["P"], n)
    if n > P_ENUM_MAX:
        raise CapacityError(f"enumeration route capped at n={P_ENUM_MAX}")
    if n == 0:
        return ONE
    return stat_distribution("stirling2", n, (("cap", "x"), ("fix", "y"),
                                              ("cyc", "q")))


def r_poly(n: int, with_q: bool = True) -> ExactPoly:
    """Fixed-point-free cycle-Stirling distribution by (cap, cycles)."""
    _require_nonnegative(n)
    if n == 0:
        p = ONE
    elif n == 1:
        p = ExactPoly.zero()
    else:
        prev, cur = ExactPoly.zero(), 2 * Q * X
        for m in range(2, n):
            prev, cur = cur, (2 * m * X * cur + 2 * X * (1 - X) * cur.diff("x")
                              + 2 * m * X * Q * prev)
        p = cur
    return p if with_q else p.subs_num("q", 1)


def r_nk_poly(n: int, k: int) -> ExactPoly:
    """Distribution over objects with exactly k fixed points."""
    return math.comb(n, k) * Q ** k * r_poly(n - k)


def l_closed(n: int) -> ExactPoly:
    """The rising product q(q+2)...(q+2n-2)."""
    _require_nonnegative(n)
    p = ONE
    for m in range(n):
        p = p * (Q + 2 * m)
    return p


def y_poly(n: int) -> ExactPoly:
    """One-cycle objects by cycle ascent plateaus: 2^(n-1) x A_(n-1) for n>=2."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n == 1:
        return ONE
    return 2 ** (n - 1) * X * a_poly(n - 1)


def rlmin_closed_form(n: int) -> ExactPoly:
    _require_nonnegative(n)
    if n == 0:
        return ONE  # the empty word has no right-to-left minima
    p = 2 ** n * X
    for i in range(1, n):
        p = p * (X + i)
    return p


def q_seq(n_max: int) -> list[int]:
    """Counts of fixed-point-free cycle-Stirling objects."""
    _require_nonnegative(n_max)
    vals = [1, 0]
    for m in range(1, n_max):
        vals.append(2 * m * (vals[m] + vals[m - 1]))
    return vals[: n_max + 1]


# ---------------------------------------------------------------------------
# exponential generating functions
# ---------------------------------------------------------------------------

def series_families(order: int = DEFAULT_ORDER) -> dict[str, TruncatedSeries]:
    """All the package's EGFs at the requested truncation order."""
    if order < 0:
        raise ValueError("order must be >= 0")
    if order > max_order():
        raise CapacityError(
            f"order {order} exceeds cap {max_order()} (raise COMBI_MAX_ORDER)")
    return _series_families_cached(order)


@lru_cache(maxsize=None)
def _series_families_cached(order: int) -> dict[str, TruncatedSeries]:
    one = TruncatedSeries.const(1, order)

    def expz(p):
        return series_exp(TruncatedSeries.z_poly(p, order))

    m_series = series_sqrt(series_ratio(X - 1, X * one - expz(2 * (X - 1))))
    n_series = series_sqrt(series_ratio(1 - X, one - X * expz(2 * (1 - X))))
    a_series = series_ratio(1 - X, one - X * expz(1 - X))
    q_series = series_pow_symbolic(m_series, "q")
    p_series = series_exp(TruncatedSeries.z_poly(Q * (Y - 1), order)) * q_series
    d_series = series_ratio(1 - X, expz(X) - X * expz(ExactPoly.one()))
    s_series = series_sqrt(series_ratio(X - 1, X * expz(2) - expz(2 * X)))
    sqrtsec = series_sqrt(series_ratio(ExactPoly.const(2),
                                       expz(2) + expz(-2)))
    pm_series = series_inverse(series_sqrt(one - TruncatedSeries.z_poly(2, order)))
    qn_series = expz(-1) * pm_series
    return {"M": m_series, "N": n_series, "A": a_series, "Q": q_series,
            "P": p_series, "d": d_series, "S": s_series, "sqrtsec": sqrtsec,
            "pm": pm_series, "qn": qn_series}


def d_poly(n: int) -> ExactPoly:
    """Derangements of [n] by excedances, from the EGF (1-x)/(e^xz - x e^z)."""
    order = max(n, DEFAULT_ORDER)
    return egf_coefficient(series_families(order)["d"], n)


def h_values(k_max: int) -> list[int]:
    """h_k = (-1)^k (2k)! [z^(2k)] sqrt(2/(e^(2z)+e^(-2z)))."""
    _require_nonnegative(k_max)
    order = max(2 * k_max, DEFAULT_ORDER)
    s = series_families(order)["sqrtsec"]
    out = []
    for k in range(k_max + 1):
        v = egf_coefficient(s, 2 * k) * (-1) ** k
        out.append(v.const_value())
    return out


# ---------------------------------------------------------------------------
# exhaustive-enumeration routes
# ---------------------------------------------------------------------------

_TABLES: dict[tuple, MappingProxyType] = {}


def _joint_table(class_name, n, s=None) -> MappingProxyType:
    """How many objects of the class have each tuple of integer statistics.

    Keys are ((name, value), ...) tuples.  The table is memoised per
    process, and its memo key holds every function the walk calls, so a
    walker, tree or statistic replaced after a first call misses the memo."""
    s = None if s is None else tuple(s)
    key = (class_name, n, s, generate, stats, objects.walk,
           *class_functions(class_name))
    table = _TABLES.get(key)
    if table is None:
        counts = Counter()
        for obj in generate(class_name, n, s):
            counts[tuple((name, v) for name, v in stats(obj).items()
                         if type(v) is int)] += 1
        table = _TABLES[key] = MappingProxyType(counts)
    return table


def stat_distribution(class_name, n, pairs, s=None, where=None) -> ExactPoly:
    """Sum over the class of prod(var^stat) for the given (stat, var) pairs;
    `where`, given the dict of an object's integer statistics, filters."""
    terms: dict[tuple[int, ...], int] = {}
    for key, count in _joint_table(class_name, n, s).items():
        st = dict(key)
        if where is not None and not where(st):
            continue
        exp = [0] * NVARS
        for name, var in pairs:
            exp[VAR_INDEX[var]] = st[name]
        exp = tuple(exp)
        terms[exp] = terms.get(exp, 0) + count
    return ExactPoly(terms)


def invseq_distribution(s) -> ExactPoly:
    return stat_distribution("invseq", len(s), (("asc", "x"),), s=s)


def a_poly_enum(n: int) -> ExactPoly:
    return stat_distribution("permutation", n, (("des_A", "x"),))


def b_poly(n: int, route: str = "invseq") -> ExactPoly:
    """Signed permutations by descents (with a leading virtual 0)."""
    _require_nonnegative(n)
    if route == "invseq":
        if n > 8:
            raise CapacityError("inversion-sequence route capped at n=8")
        return invseq_distribution(tuple(2 * i for i in range(1, n + 1)))
    if route == "signed":
        if n > 6:
            raise CapacityError("signed-permutation route capped at n=6")
        return stat_distribution("signed", n, (("des_B", "x"),))
    raise ValueError(f"unknown route {route!r}")


def n_poly_enum(n: int) -> ExactPoly:
    return stat_distribution("matching", n, (("el", "x"),))


def m_poly_enum(n: int) -> ExactPoly:
    return stat_distribution("matching", n, (("ol", "x"),))


def ap_poly_enum(n: int) -> ExactPoly:
    return stat_distribution("stirling", n, (("ap", "x"),))


def c_poly_enum(n: int) -> ExactPoly:
    return stat_distribution("stirling", n, (("descents", "x"),))


def cplat_poly_enum(n: int) -> ExactPoly:
    return stat_distribution("stirling2", n, (("cplat", "x"),))


def casc_poly_enum(n: int) -> ExactPoly:
    return stat_distribution("stirling2", n, (("casc", "x"),))


def q_poly_enum(n: int) -> ExactPoly:
    return stat_distribution("stirling2", n, (("cap", "x"), ("cyc", "q")))


def r_poly_enum(n: int) -> ExactPoly:
    return stat_distribution("stirling2", n, (("cap", "x"), ("cyc", "q")),
                             where=lambda st: st["fix"] == 0)


def y_poly_enum(n: int) -> ExactPoly:
    return stat_distribution("stirling2", n, (("cap", "x"),),
                             where=lambda st: st["cyc"] == 1)


def desi_poly_enum(n: int) -> ExactPoly:
    return stat_distribution("stirling", n, (("desi", "q"),))


def cyc_poly_enum(n: int) -> ExactPoly:
    return stat_distribution("stirling2", n, (("cyc", "q"),))


def d_poly_enum(n: int) -> ExactPoly:
    return stat_distribution("permutation", n, (("exc", "x"),),
                             where=lambda st: st["exc"] + st["anti_exc"] == n)


def rlmin_poly_enum(n: int) -> ExactPoly:
    return stat_distribution("signed", n, (("rlmin", "x"),))


def cap_sign_sum(n: int) -> int:
    """Sum of (-1)^cap over fixed-point-free cycle-Stirling objects."""
    return r_poly_enum(n).subs_num("x", -1).subs_num("q", 1).const_value()
