"""Polynomial families and integer sequences.

Every family is available through at least two independent routes
(recurrence, closed form, exponential generating function, exhaustive
enumeration); the verification registry cross-wires them.  All recurrences
are taken at face value from their defining relations:

    N(n+1,k) = 2k N(n,k) + (2n-2k+3) N(n,k-1)          N(1,1) = 1
    C(n,k)   = k C(n-1,k) + (2n-k) C(n-1,k-1)          C(1,1) = 1
    <n,k>    = (k+1)<n-1,k> + (n-k)<n-1,k-1>           <0,0> = 1
    A_{n+1}  = (1+nx) A_n + x(1-x) A_n'
        A_n: (1, 1, {x: 1}), (x, n, {x: -1})
    B_{n+1}  = (1+(2n+1)x) B_n + 2x(1-x) B_n'           B_0 = 1
        B_n: (1, 1, {x: 2}), (x, 2n+1, {x: -2})
    Q_{n+1}  = (q+2nx) Q_n + 2x(1-x) dQ_n/dx
        Q_n: (q, 1, {}), (1, 0, {x: 2}), (x, 2n, {x: -2})
    P_{n+1}  = (2nx+qy) P_n + 2x(1-x) dP_n/dx + 2x(1-y) dP_n/dy
        P_n: (x, 2n, {x: -2, y: -2}), (1, 0, {x: 2}), (qy, 1, {}),
             (x/y, 0, {y: 2})
    R_{n+1}  = 2nx R_n + 2x(1-x) dR_n/dx + 2nxq R_{n-1}
        R_n: (1, 0, {x: 2}), (x, 2n, {x: -2});  R_{n-1}: (xq, 2n, {})
    q_{n+1}  = 2n (q_n + q_{n-1})

The line under each polynomial recurrence is its step as operator data
for `poly.poly_apply`, the one kernel all five run through: a group
(shift, constant, weights) sends the term c*m to
(constant + sum_v weights[v] * e_v(m)) * c*m*shift.  So x(1-x) d/dx is
the groups (1, 0, {x: 1}) and (x, 0, {x: -1}), and the terms of a
recurrence that share a shift share one group.  `grammar.derive` and the
convolution and series routes do not use the kernel.

The exhaustive route of every family is `stat_distribution`, which the
registry calls with the class and the statistics it reads; it builds one
statistic table, refused past `objects.ENUM_CAP` objects before the walk.
The EGFs and the tables are memoised by their arguments, only while a
`memoised()` block is open: `verify.run_check` and `verify.run_all` each
run in one, so a run builds each once, and a function replaced between
two runs is the one the next run calls.
"""

from __future__ import annotations

import math
from collections import Counter
from contextlib import contextmanager
from types import MappingProxyType

from .poly import (ONE, Q, VARS, X, Y, CapacityError, ExactPoly, poly_apply,
                   poly_dot, poly_reverse, poly_sum)
from .series import (DEFAULT_ORDER, TruncatedSeries, egf_coefficient,
                     max_order, series_exp, series_inverse,
                     series_pow_symbolic, series_ratio, series_sqrt)
from . import objects
from .objects import class_functions, double_factorial, require_size


# ---------------------------------------------------------------------------
# coefficient triangles
# ---------------------------------------------------------------------------

def n_row(n: int) -> tuple[int, ...]:
    """Matchings of [2n] with k even-larger blocks."""
    require_size(n, 1)
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
    require_size(n, 1)
    row = [0, 1]
    for m in range(2, n + 1):
        new = [0] * (m + 1)
        for k in range(1, m + 1):
            old_k = row[k] if k < len(row) else 0
            new[k] = k * old_k + (2 * m - k) * row[k - 1]
        row = new
    return tuple(row)


def eulerian_row(n: int) -> tuple[int, ...]:
    """Permutations of [n] with k descents; row n has entries k = 0..n-1."""
    require_size(n)
    row = [1]
    for m in range(1, n + 1):
        new = [0] * m
        for k in range(m):
            left = row[k] if k < len(row) else 0
            right = row[k - 1] if 0 <= k - 1 < len(row) else 0
            new[k] = (k + 1) * left + (m - k) * right
        row = new
    return tuple(row)


def _from_coeffs(coeffs, var="x") -> ExactPoly:
    return poly_sum(ExactPoly.monomial(c, {var: k})
                    for k, c in enumerate(coeffs))


# ---------------------------------------------------------------------------
# recurrence / closed-form routes
# ---------------------------------------------------------------------------

def n_poly(n: int) -> ExactPoly:
    require_size(n)
    return ONE if n == 0 else _from_coeffs(n_row(n))


def m_poly(n: int) -> ExactPoly:
    """x^n N_n(1/x): matchings counted by odd-larger blocks."""
    return poly_reverse(n_poly(n), n)


def c_poly(n: int) -> ExactPoly:
    require_size(n)
    return ONE if n == 0 else _from_coeffs(c_row(n))


def a_poly(n: int) -> ExactPoly:
    require_size(n)
    p = ONE
    for m in range(n):
        step = (({}, 1, {"x": 1}), ({"x": 1}, m, {"x": -1}))
        p = poly_apply(((step, p),))
    return p


def b_poly(n: int) -> ExactPoly:
    """Signed permutations by descents (with a leading virtual 0), by
    Brenti's recurrence (Europ. J. Combin. 15, 1994)."""
    require_size(n)
    p = ONE
    for m in range(n):
        step = (({}, 1, {"x": 2}), ({"x": 1}, 2 * m + 1, {"x": -2}))
        p = poly_apply(((step, p),))
    return p


def q_poly(n: int) -> ExactPoly:
    require_size(n)
    p = ONE
    for m in range(n):
        step = (({"q": 1}, 1, {}), ({}, 0, {"x": 2}),
                ({"x": 1}, 2 * m, {"x": -2}))
        p = poly_apply(((step, p),))
    return p


_P_ROUTES = ("recurrence", "convolution", "series")


def p_poly(n: int, route: str = "recurrence") -> ExactPoly:
    """Cycle-Stirling distribution by (cap, fix, cycles), three ways; the
    enumeration is `stat_distribution` over "stirling2"."""
    if route not in _P_ROUTES:
        raise ValueError(f"unknown route {route!r}; choose from {_P_ROUTES}")
    require_size(n)
    if route == "recurrence":
        p = ONE
        for m in range(n):
            step = (({"x": 1}, 2 * m, {"x": -2, "y": -2}), ({}, 0, {"x": 2}),
                    ({"q": 1, "y": 1}, 1, {}), ({"x": 1, "y": -1}, 0, {"y": 2}))
            p = poly_apply(((step, p),))
        return p
    if route == "convolution":
        a_polys = [a_poly(j) for j in range(n)]
        ps, qx_ps = [ONE], []  # qx_ps[k] = Q X P_k, first read for P_(k+2)
        for m in range(n):
            if m:
                qx_ps.append(Q * X * ps[m - 1])
            ps.append(poly_dot([(1, Q * Y, ps[m])] + [
                (math.comb(m, k) * 2 ** (m - k), qx_ps[k], a_polys[m - k])
                for k in range(m)]))
        return ps[n]
    if n > max_order():
        raise CapacityError(f"series route needs order {n} > {max_order()}")
    return egf_coefficient(series_family("P", max(n, DEFAULT_ORDER)), n)


def r_poly(n: int, with_q: bool = True) -> ExactPoly:
    """Fixed-point-free cycle-Stirling distribution by (cap, cycles).
    with_q=False runs the recurrence at q = 1: no weight reads the exponent
    of q, so setting it to 1 commutes with every step."""
    require_size(n)
    if n == 0:
        return ONE
    if n == 1:
        return ExactPoly.zero()
    shift = {"x": 1, "q": 1} if with_q else {"x": 1}
    prev, cur = ExactPoly.zero(), ExactPoly.monomial(2, shift)
    for m in range(2, n):
        step = (({}, 0, {"x": 2}), ({"x": 1}, 2 * m, {"x": -2}))
        back = ((shift, 2 * m, {}),)
        prev, cur = cur, poly_apply(((step, cur), (back, prev)))
    return cur


def r_nk_poly(n: int, k: int) -> ExactPoly:
    """Distribution over objects with exactly k fixed points."""
    require_size(n)
    if isinstance(k, bool) or not isinstance(k, int) or not 0 <= k <= n:
        raise ValueError(f"k must be an int in 0..{n}, got {k!r}")
    return math.comb(n, k) * Q ** k * r_poly(n - k)


def l_closed(n: int) -> ExactPoly:
    """The rising product q(q+2)...(q+2n-2)."""
    require_size(n)
    p = ONE
    for m in range(n):
        p = p * (Q + 2 * m)
    return p


def y_poly(n: int) -> ExactPoly:
    """One-cycle objects by cycle ascent plateaus: 2^(n-1) x A_(n-1) for n>=2."""
    require_size(n, 1)
    if n == 1:
        return ONE
    return 2 ** (n - 1) * X * a_poly(n - 1)


def rlmin_closed_form(n: int) -> ExactPoly:
    require_size(n)
    if n == 0:
        return ONE  # the empty word has no right-to-left minima
    p = 2 ** n * X
    for i in range(1, n):
        p = p * (X + i)
    return p


def q_seq(n_max: int) -> list[int]:
    """Counts of fixed-point-free cycle-Stirling objects."""
    require_size(n_max)
    vals = [1, 0]
    for m in range(1, n_max):
        vals.append(2 * m * (vals[m] + vals[m - 1]))
    return vals[: n_max + 1]


# ---------------------------------------------------------------------------
# exponential generating functions
# ---------------------------------------------------------------------------

_MEMO: dict[tuple, object] | None = None  # a dict inside memoised()


@contextmanager
def memoised():
    """The memo of one run (module docstring); inner blocks share it."""
    global _MEMO
    outer, _MEMO = _MEMO, {} if _MEMO is None else _MEMO
    try:
        yield
    finally:
        _MEMO = outer


def _memo(key: tuple, build):
    """build(), memoised under key inside a memoised() block."""
    if _MEMO is None:
        return build()
    return _MEMO[key] if key in _MEMO else _MEMO.setdefault(key, build())


def series_family(name: str, order: int = DEFAULT_ORDER) -> TruncatedSeries:
    """The EGF `name` (one of SERIES_IDS) at the requested truncation order.
    Only it and the families it is built from are built: Q and P from M,
    qn from pm."""
    require_size(order, name="order")
    if order > max_order():
        raise CapacityError(
            f"order {order} exceeds cap {max_order()} (raise COMBI_MAX_ORDER)")
    if name not in _SERIES_BUILDERS:
        raise ValueError(f"unknown series {name!r}; choose from {SERIES_IDS}")
    return _memo(("series", name, order), lambda: _SERIES_BUILDERS[name](order))


def _expz(p, order: int) -> TruncatedSeries:
    """e^(p z)."""
    return series_exp(TruncatedSeries.z_poly(p, order))


def _one(order: int) -> TruncatedSeries:
    return TruncatedSeries.const(1, order)


# one builder per family; each reaches the families it needs through
# series_family, so they are memoised and looked up by name
_SERIES_BUILDERS = {
    "M": lambda o: series_sqrt(series_ratio(
        X - 1, X * _one(o) - _expz(2 * (X - 1), o))),
    "N": lambda o: series_sqrt(series_ratio(
        1 - X, _one(o) - X * _expz(2 * (1 - X), o))),
    "A": lambda o: series_ratio(1 - X, _one(o) - X * _expz(1 - X, o)),
    "Q": lambda o: series_pow_symbolic(series_family("M", o), "q"),
    "P": lambda o: _expz(Q * (Y - 1), o) * series_family("Q", o),
    "d": lambda o: series_ratio(1 - X, _expz(X, o) - X * _expz(ONE, o)),
    "S": lambda o: series_sqrt(series_ratio(
        X - 1, X * _expz(2, o) - _expz(2 * X, o))),
    "sqrtsec": lambda o: series_sqrt(series_ratio(
        ExactPoly.const(2), _expz(2, o) + _expz(-2, o))),
    "pm": lambda o: series_inverse(series_sqrt(
        _one(o) - TruncatedSeries.z_poly(2, o))),
    "qn": lambda o: _expz(-1, o) * series_family("pm", o),
}
SERIES_IDS = tuple(_SERIES_BUILDERS)


def d_poly(n: int) -> ExactPoly:
    """Derangements of [n] by excedances, from the EGF (1-x)/(e^xz - x e^z)."""
    require_size(n)
    order = max(n, DEFAULT_ORDER)
    return egf_coefficient(series_family("d", order), n)


def h_values(k_max: int) -> list[int]:
    """h_k = (-1)^k (2k)! [z^(2k)] sqrt(2/(e^(2z)+e^(-2z)))."""
    require_size(k_max)
    order = max(2 * k_max, DEFAULT_ORDER)
    s = series_family("sqrtsec", order)
    out = []
    for k in range(k_max + 1):
        v = egf_coefficient(s, 2 * k) * (-1) ** k
        out.append(v.const_value())
    return out


# ---------------------------------------------------------------------------
# exhaustive-enumeration routes
# ---------------------------------------------------------------------------

def _joint_table(class_name, n, s=None) -> MappingProxyType:
    """How many objects of the class have each tuple of integer statistics:
    a key is what the class's integer statistic function returns on a leaf,
    named by `objects.INT_STAT_NAMES[class_name]`, so no object or dict is
    built per leaf.  Memoised inside a run (module docstring); `require_domain`
    checks the size and the cap first (True would hit the memo of n = 1)."""
    s = None if s is None else tuple(s)
    objects.require_domain(class_name, n, s)
    return _memo((class_name, n, s), lambda: MappingProxyType(Counter(map(
        class_functions(class_name)[1], *objects.leaves(class_name, n, s)))))


def stat_distribution(class_name, n, pairs, s=None, where=None) -> ExactPoly:
    """Sum over the class of prod(var^stat) for the given (stat, var) pairs;
    `where`, given the dict of an object's integer statistics, filters."""
    names = objects.INT_STAT_NAMES.get(class_name)  # None: refused below
    if names and not {name for name, _ in pairs} <= set(names):
        raise ValueError(f"{class_name} statistics are {names}, not {pairs}")
    variables = [var for _, var in pairs]  # a repeated one would drop a stat
    if len(set(variables)) < len(variables) or not set(variables) <= set(VARS):
        raise ValueError(f"variables must be distinct letters of {VARS}, "
                         f"not {pairs}")
    table = _joint_table(class_name, n, s)
    rows = ((dict(zip(names, key)), count) for key, count in table.items())
    return poly_sum(
        ExactPoly.monomial(count, {var: st[name] for name, var in pairs})
        for st, count in rows if where is None or where(st))

