"""Truncated exponential generating functions in z with ExactPoly entries.

A series of order N stores the EGF-normalised coefficients n![z^n] of
z^0..z^N: every generating function of the package is exponential, and its
n-th entry is then the polynomial the paper names (N_n, A_n, P_n, ...).
Multiplication truncates consistently (entry n of a product only reads
entries <= n of the factors), so every operation is exact.

In this normalisation the Cauchy product is the binomial convolution
h_n = sum_k C(n,k) f_k g_{n-k} (Flajolet and Sedgewick, Analytic
Combinatorics, 2009, II.2), and differentiation is a shift, F'_n = F_{n+1}.
The product, exp, log and ratio share that one step, `_binomial_step`, and
exp, log and ratio are the classical recurrences from F' = f'·F, f·L' = f'
and d·R = f (Knuth, TAOCP vol. 2, §4.7) with no division by n.  So the
product, exp and log of series with integer entries have integer entries;
only a ratio (which divides by the constant term) or a square root (which
halves a logarithm) can leave a fraction.

The public surface still speaks ordinary coefficients: the constructor
takes the coefficients of z^0..z^N, and `coeffs` and `render()` give them
back.  Those convert at the boundary; `egf_coefficient` reads an entry.
"""

from __future__ import annotations

import math
import os
from fractions import Fraction

from .poly import ExactPoly, divexact, poly_dot

DEFAULT_ORDER = 10
_DEFAULT_MAX_ORDER = 16


def max_order() -> int:
    """Series-order ceiling; COMBI_MAX_ORDER raises it."""
    text = os.environ.get("COMBI_MAX_ORDER")
    if text is None:
        return _DEFAULT_MAX_ORDER
    # ASCII digits only: int() would also take '+3', '1_6' and non-ASCII
    if not (text.isascii() and text.isdigit()):
        raise ValueError(
            f"COMBI_MAX_ORDER must be a nonnegative integer, got {text!r}")
    return int(text)


def _binomial_step(a, b, m: int, start: int = 0) -> ExactPoly:
    """sum C(m,k) a[k] b[m-k] over k = start..m, skipping zero factors:
    at start 0, entry m of the product of the EGFs a and b."""
    return poly_dot([(math.comb(m, k), a[k], b[m - k])
                     for k in range(start, m + 1)
                     if not (a[k].is_zero or b[m - k].is_zero)])


def _as_poly(c) -> ExactPoly:
    if isinstance(c, ExactPoly):
        return c
    return ExactPoly.const(c)


def _series(egf) -> "TruncatedSeries":
    """The series whose entries n![z^n] are egf."""
    s = object.__new__(TruncatedSeries)
    s._egf = tuple(egf)
    s.order = len(s._egf) - 1
    return s


class TruncatedSeries:
    """Holds _egf[n] = n![z^n]; the constructor takes ordinary coefficients."""

    __slots__ = ("order", "_egf")

    def __init__(self, coeffs, order: int | None = None):
        coeffs = [_as_poly(c) for c in coeffs]
        if order is not None:
            if len(coeffs) > order + 1:
                raise ValueError("more coefficients than order allows")
            coeffs += [ExactPoly.zero()] * (order + 1 - len(coeffs))
        self._egf = tuple(c * math.factorial(n) for n, c in enumerate(coeffs))
        self.order = len(self._egf) - 1

    @property
    def coeffs(self) -> tuple[ExactPoly, ...]:
        """The ordinary coefficients of z^0..z^order."""
        return tuple(e * Fraction(1, math.factorial(n))
                     for n, e in enumerate(self._egf))

    @classmethod
    def const(cls, c, order: int) -> "TruncatedSeries":
        return cls([_as_poly(c)], order)

    @classmethod
    def z_poly(cls, p, order: int) -> "TruncatedSeries":
        """The series p*z."""
        return cls([ExactPoly.zero(), _as_poly(p)][: order + 1], order)

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.order == other.order and self._egf == other._egf

    def __hash__(self):
        return hash(self._egf)

    def _check_same_order(self, other):
        if self.order != other.order:
            raise ValueError("series orders differ")

    def __add__(self, other):
        if not isinstance(other, TruncatedSeries):
            other = TruncatedSeries.const(other, self.order)
        self._check_same_order(other)
        return _series(a + b for a, b in zip(self._egf, other._egf))

    __radd__ = __add__

    def __neg__(self):
        return _series(-a for a in self._egf)

    def __sub__(self, other):
        if not isinstance(other, TruncatedSeries):
            other = TruncatedSeries.const(other, self.order)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, TruncatedSeries):
            other = _as_poly(other)
            return _series(c * other for c in self._egf)
        self._check_same_order(other)
        return _series(_binomial_step(self._egf, other._egf, m)
                       for m in range(self.order + 1))

    __rmul__ = __mul__

    def scale_argument(self, c) -> "TruncatedSeries":
        """Substitute z -> c*z for an exact scalar c."""
        c = Fraction(c)
        if c.denominator == 1:
            c = c.numerator
        return _series(e * c ** i for i, e in enumerate(self._egf))

    def subs_num(self, name: str, value) -> "TruncatedSeries":
        return _series(c.subs_num(name, value) for c in self._egf)

    def render(self, limit: int | None = None) -> str:
        upto = self.order if limit is None else min(limit, self.order)
        coeffs = self.coeffs
        return " ; ".join(f"z^{i}: {coeffs[i].render()}" for i in range(upto + 1))

    def __repr__(self):
        return f"TruncatedSeries(order={self.order}, {self.render(3)} ...)"


def series_exp(s: TruncatedSeries) -> TruncatedSeries:
    """exp of a series with zero constant coefficient."""
    if not s._egf[0].is_zero:
        raise ValueError("series_exp requires a zero constant term")
    # F' = s' F: F_m = sum_k C(m-1,k-1) s_k F_{m-k}, k = 1..m
    ds = s._egf[1:]
    out = [ExactPoly.one()]
    for m in range(1, s.order + 1):
        out.append(_binomial_step(ds, out, m - 1))
    return _series(out)


def series_log(s: TruncatedSeries) -> TruncatedSeries:
    """log of a series with constant coefficient 1."""
    if s._egf[0] != ExactPoly.one():
        raise ValueError("series_log requires constant term 1")
    # s L' = s': L_m = s_m - sum_k C(m-1,k-1) L_k s_{m-k}, k = 1..m-1,
    # read off the shifted dl[j] = L_{j+1}
    dl = []
    for m in range(1, s.order + 1):
        dl.append(s._egf[m] - _binomial_step(s._egf, dl, m - 1, 1))
    return _series([ExactPoly.zero()] + dl)


def series_sqrt(s: TruncatedSeries) -> TruncatedSeries:
    """Square root (constant term must be 1); result squared reproduces s."""
    if s._egf[0] != ExactPoly.one():
        raise ValueError("series_sqrt requires constant term 1")
    half = Fraction(1, 2)
    return series_exp(_series(c * half for c in series_log(s)._egf))


def series_pow_symbolic(s: TruncatedSeries, exponent_var: str) -> TruncatedSeries:
    """s raised to a fresh symbolic exponent: exp(exponent_var * log s)."""
    if s._egf[0] != ExactPoly.one():
        raise ValueError("symbolic power requires constant term 1")
    for c in s._egf:
        if exponent_var in c.variables():
            raise ValueError(f"exponent variable {exponent_var} already occurs "
                             "in the series coefficients")
    v = ExactPoly.var(exponent_var)
    return series_exp(_series(c * v for c in series_log(s)._egf))


def series_ratio(num, den: TruncatedSeries) -> TruncatedSeries:
    """num / den where the division is exact at the polynomial level.

    num may be an ExactPoly (treated as a constant series) or a series of
    the same order.  Every step divides exactly by den's constant
    coefficient, which must be a monomial or univariate polynomial.
    """
    if isinstance(num, TruncatedSeries):
        num_egf = num._egf
        if num.order != den.order:
            raise ValueError("series orders differ")
    else:
        num_egf = (_as_poly(num),) + (ExactPoly.zero(),) * den.order
    d0 = den._egf[0]
    if d0.is_zero:
        raise ZeroDivisionError("denominator has zero constant coefficient")
    # den R = num: R_m = (num_m - sum_k C(m,k) den_k R_{m-k}) / den_0, k = 1..m
    out = [divexact(num_egf[0], d0)]
    for m in range(1, den.order + 1):
        out.append(divexact(num_egf[m] - _binomial_step(den._egf, out, m, 1),
                            d0))
    return _series(out)


def series_inverse(s: TruncatedSeries) -> TruncatedSeries:
    return series_ratio(ExactPoly.one(), s)


def egf_coefficient(s: TruncatedSeries, n: int) -> ExactPoly:
    """n! times the ordinary coefficient of z^n: entry n of the series."""
    if isinstance(n, bool) or not isinstance(n, int):
        raise ValueError(f"coefficient index must be an int, got {n!r}")
    if not 0 <= n <= s.order:
        raise ValueError(f"coefficient index {n} outside [0, {s.order}]")
    return s._egf[n]
