import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from combi.poly import ExactPoly, X, Y, Q
from combi.series import (TruncatedSeries, egf_coefficient, series_exp,
                          series_inverse, series_log, series_pow_symbolic,
                          series_ratio, series_sqrt)


def z_series(coeffs, order):
    return TruncatedSeries(coeffs, order)


def test_exp_trivial():
    zero = TruncatedSeries.const(0, 5)
    assert series_exp(zero) == TruncatedSeries.const(1, 5)


def test_exp_of_qz_y_minus_1():
    s = TruncatedSeries.z_poly(Q * (Y - 1), 2)
    e = series_exp(s)
    assert e.coeffs[0] == 1
    assert e.coeffs[1] == Q * (Y - 1)
    assert e.coeffs[2] == Q ** 2 * (Y - 1) ** 2 * Fraction(1, 2)


def test_exp_log_inverse_pair():
    s = z_series([0, 1, 0, 1], 5)  # z + z^3
    assert series_log(series_exp(s)) == s


def test_exp_requires_zero_constant():
    with pytest.raises(ValueError):
        series_exp(TruncatedSeries.const(1, 3))


def test_log_trivial():
    one = TruncatedSeries.const(1, 4)
    assert series_log(one) == TruncatedSeries.const(0, 4)


def test_log_classic():
    geom = series_inverse(z_series([1, -1], 3))  # 1/(1-z)
    log = series_log(geom)
    assert log.coeffs[1] == 1
    assert log.coeffs[2] == ExactPoly.const(Fraction(1, 2))
    assert log.coeffs[3] == ExactPoly.const(Fraction(1, 3))


def test_log_requires_unit_constant():
    with pytest.raises(ValueError):
        series_log(TruncatedSeries.const(2, 3))


def test_sqrt_consistency():
    assert series_sqrt(TruncatedSeries.const(1, 4)) == TruncatedSeries.const(1, 4)
    f = z_series([1, -2], 10)
    assert series_sqrt(f) * series_sqrt(f) == f
    g = z_series([1, -2], 8)
    half_log = series_exp(TruncatedSeries(
        [c * Fraction(1, 2) for c in series_log(g).coeffs]))
    assert half_log * half_log == g


def test_sqrt_of_matching_egf_argument():
    # EGF coefficients must reproduce the even-larger matching polynomials
    order = 3
    one = TruncatedSeries.const(1, order)
    inner = series_exp(TruncatedSeries.z_poly(2 * (1 - X), order))
    n_series = series_sqrt(series_ratio(1 - X, one - X * inner))
    expected = [ExactPoly.one(), X, 2 * X + X ** 2,
                4 * X + 10 * X ** 2 + X ** 3]
    for n, want in enumerate(expected):
        assert egf_coefficient(n_series, n) == want


def test_pow_symbolic():
    one = TruncatedSeries.const(1, 4)
    assert series_pow_symbolic(one, "q") == one
    f = z_series([1, -2, 3], 4)
    powq = series_pow_symbolic(f, "q")
    assert powq.subs_num("q", 1) == f
    for m in (2, 3, 4):
        direct = TruncatedSeries.const(1, 4)
        for _ in range(m):
            direct = direct * f
        assert powq.subs_num("q", m) == direct


def test_pow_symbolic_rejects_clashing_variable():
    f = z_series([1, Q], 3)
    with pytest.raises(ValueError):
        series_pow_symbolic(f, "q")


def test_egf_coefficient():
    expz = series_exp(z_series([0, 1], 6))
    assert egf_coefficient(expz, 5) == 1
    pm = series_inverse(series_sqrt(z_series([1, -2], 6)))
    assert egf_coefficient(pm, 3) == 15
    qn = series_exp(z_series([0, -1], 6)) * pm
    assert egf_coefficient(qn, 2) == 2
    with pytest.raises(ValueError):
        egf_coefficient(pm, 7)


@pytest.mark.parametrize("n", [1.5, True, 1.0], ids=["float", "bool",
                                                    "integral-float"])
def test_egf_coefficient_index_must_be_an_int(n):
    # 1.5 raised a raw TypeError and True read entry 1
    s = series_exp(z_series([0, 1], 4))
    with pytest.raises(ValueError, match="^coefficient index must be an int"):
        egf_coefficient(s, n)


@pytest.mark.parametrize("c", [0.1, "2"], ids=["float", "str"])
def test_scale_is_exact(c):
    # 0.1 became 3602879701896397/36028797018963968 and "2" was parsed
    s = series_exp(z_series([0, 1], 3))
    with pytest.raises(TypeError, match="^expected an int or a Fraction"):
        s.scale_argument(c)
    assert s.scale_argument(Fraction(4, 2)) == s.scale_argument(2)


def test_ratio_exactness():
    one = TruncatedSeries.const(1, 4)
    with pytest.raises(ZeroDivisionError):
        series_ratio(X, TruncatedSeries.const(0, 4))
    geom = series_ratio(ExactPoly.one(), one - z_series([0, 1], 4))
    assert geom.coeffs == tuple([ExactPoly.one()] * 5)


@settings(max_examples=30)
@given(st.lists(st.integers(-3, 3), min_size=1, max_size=5))
def test_exp_log_random_roundtrip(tail):
    s = TruncatedSeries([0] + tail, 6)
    assert series_log(series_exp(s)) == s
    t = TruncatedSeries([1] + tail, 6)
    assert series_exp(series_log(t)) == t
    assert series_sqrt(t) * series_sqrt(t) == t


# ---------------------------------------------------------------------------
# sympy oracle: truncated expansions from an independent implementation.
# sympy's ring_series truncates exp, log, roots and inverses as power series
# over QQ[x]; sympy.series on the same expressions gives the same answer
# but takes seconds per example at order 6.
# ---------------------------------------------------------------------------

_XPOLY = st.lists(st.integers(-3, 3), max_size=3).map(
    lambda cs: sum((c * X ** i for i, c in enumerate(cs)), ExactPoly.zero()))


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 6), st.data())
def test_series_operations_match_sympy(order, data):
    sympy = pytest.importorskip("sympy")
    from sympy.polys import ring_series as rs
    from sympy.polys.rings import ring

    R, x, z = ring("x,z", sympy.QQ)
    prec = order + 1  # sympy keeps z^0..z^(prec-1)

    def draw(first):
        tail = data.draw(st.lists(_XPOLY, min_size=order, max_size=order))
        return TruncatedSeries([first] + tail, order)

    def to_ring(s):
        return sum((int(c) * x ** e[0] * z ** k for k, p in enumerate(s.coeffs)
                    for e, c in p.items()), R.zero)

    def from_ring(r):
        t = [{} for _ in range(prec)]
        for (ex, ez), c in r.terms():  # x is the first of ExactPoly's VARS
            t[ez][(ex,) + (0,) * 6] = Fraction(int(c.numerator),
                                               int(c.denominator))
        return TruncatedSeries([ExactPoly(d) for d in t], order)

    a, b = draw(data.draw(_XPOLY)), draw(data.draw(_XPOLY))
    e, u = draw(ExactPoly.zero()), draw(ExactPoly.one())
    d = draw(ExactPoly.const(data.draw(st.integers(-3, 3).filter(bool))))
    r_a, r_b, r_e, r_u, r_d = map(to_ring, (a, b, e, u, d))
    assert a * b == from_ring(rs.rs_mul(r_a, r_b, z, prec))
    assert series_exp(e) == from_ring(rs.rs_exp(r_e, z, prec))
    assert series_log(u) == from_ring(rs.rs_log(r_u, z, prec))
    assert series_sqrt(u) == from_ring(rs.rs_nth_root(r_u, 2, z, prec))
    assert series_ratio(a, d) == from_ring(
        rs.rs_mul(r_a, rs.rs_series_inversion(r_d, z, prec), z, prec))


# ---------------------------------------------------------------------------
# naive oracle: the ordinary coefficients of z^0..z^N as Fractions, with
# the textbook Cauchy-product recurrences and a division by m at every step
# ---------------------------------------------------------------------------

def _ref_mul(a, b):
    return [sum((a[k] * b[m - k] for k in range(m + 1)), Fraction(0))
            for m in range(len(a))]


def _ref_exp(s):
    # m F_m = sum_k k s_k F_{m-k}, from F' = s' F
    f = [Fraction(1)]
    for m in range(1, len(s)):
        f.append(sum((k * s[k] * f[m - k] for k in range(1, m + 1)),
                     Fraction(0)) / m)
    return f


def _ref_log(s):
    # m L_m = m s_m - sum_k k L_k s_{m-k}, from s L' = s'
    log = [Fraction(0)]
    for m in range(1, len(s)):
        log.append(s[m] - sum((k * log[k] * s[m - k] for k in range(1, m)),
                              Fraction(0)) / m)
    return log


def _ref_ratio(a, d):
    r = []
    for m in range(len(a)):
        r.append((a[m] - sum((d[k] * r[m - k] for k in range(1, m + 1)),
                             Fraction(0))) / d[0])
    return r


def _ref_sqrt(s):
    # g^2 = s with g_0 = 1: 2 g_m = s_m - sum_k g_k g_{m-k}, k = 1..m-1
    g = [Fraction(1)]
    for m in range(1, len(s)):
        g.append((s[m] - sum((g[k] * g[m - k] for k in range(1, m)),
                             Fraction(0))) / 2)
    return g


_FRACTION = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))


def _as_series(ordinary):
    return TruncatedSeries(ordinary, len(ordinary) - 1)


def _check(series, ordinary):
    assert series.coeffs == tuple(map(ExactPoly.const, ordinary))
    for n, c in enumerate(ordinary):
        assert egf_coefficient(series, n) == c * math.factorial(n)


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 8), st.data())
def test_series_operations_match_naive_cauchy_reference(order, data):
    def draw(first):
        return [Fraction(first)] + data.draw(
            st.lists(_FRACTION, min_size=order, max_size=order))

    a, b = draw(data.draw(_FRACTION)), draw(data.draw(_FRACTION))
    e, u = draw(0), draw(1)
    d = draw(data.draw(_FRACTION.filter(bool)))
    _check(_as_series(a) * _as_series(b), _ref_mul(a, b))
    _check(series_exp(_as_series(e)), _ref_exp(e))
    _check(series_log(_as_series(u)), _ref_log(u))
    _check(series_ratio(_as_series(a), _as_series(d)), _ref_ratio(a, d))
    _check(series_sqrt(_as_series(u)), _ref_sqrt(u))
