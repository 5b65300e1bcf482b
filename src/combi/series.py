"""Truncated formal power series in z with ExactPoly coefficients.

A series of order N stores the ordinary coefficients of z^0..z^N; all the
exponential generating functions of the package live here.  Multiplication
truncates consistently (the coefficient of z^n in a product only reads
coefficients <= n of the factors), so every operation is exact.

The product, exp, log and ratio share one Cauchy step, `_convolve`, which
sums the coefficient of z^m of a product in one `poly_sum`.  exp, log and
ratio are the classical recurrences from F' = f'·F etc. (Knuth, TAOCP
vol. 2, §4.7), entirely over rational arithmetic.
"""

from __future__ import annotations

import math
import os
from fractions import Fraction

from .poly import ExactPoly, divexact, poly_sum

DEFAULT_ORDER = 10
_DEFAULT_MAX_ORDER = 16


def max_order() -> int:
    """Series-order ceiling; COMBI_MAX_ORDER raises it."""
    text = os.environ.get("COMBI_MAX_ORDER")
    if text is None:
        return _DEFAULT_MAX_ORDER
    try:
        cap = int(text)
    except ValueError:
        cap = -1
    if cap < 0:
        raise ValueError(
            f"COMBI_MAX_ORDER must be a nonnegative integer, got {text!r}")
    return cap


def _convolve(a, b, m: int, start: int = 0) -> ExactPoly:
    """sum a[k] b[m-k] over k = start..m, skipping zero factors."""
    return poly_sum(a[k] * b[m - k] for k in range(start, m + 1)
                    if not (a[k].is_zero or b[m - k].is_zero))


def _as_poly(c) -> ExactPoly:
    if isinstance(c, ExactPoly):
        return c
    return ExactPoly.const(c)


class TruncatedSeries:
    __slots__ = ("order", "coeffs")

    def __init__(self, coeffs, order: int | None = None):
        coeffs = [_as_poly(c) for c in coeffs]
        if order is not None:
            if len(coeffs) > order + 1:
                raise ValueError("more coefficients than order allows")
            coeffs += [ExactPoly.zero()] * (order + 1 - len(coeffs))
        self.coeffs = tuple(coeffs)
        self.order = len(self.coeffs) - 1

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
        return self.order == other.order and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def _check_same_order(self, other):
        if self.order != other.order:
            raise ValueError("series orders differ")

    def __add__(self, other):
        if not isinstance(other, TruncatedSeries):
            other = TruncatedSeries.const(other, self.order)
        self._check_same_order(other)
        return TruncatedSeries([a + b for a, b in zip(self.coeffs, other.coeffs)])

    __radd__ = __add__

    def __neg__(self):
        return TruncatedSeries([-a for a in self.coeffs])

    def __sub__(self, other):
        if not isinstance(other, TruncatedSeries):
            other = TruncatedSeries.const(other, self.order)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, TruncatedSeries):
            other = _as_poly(other)
            return TruncatedSeries([c * other for c in self.coeffs])
        self._check_same_order(other)
        return TruncatedSeries([_convolve(self.coeffs, other.coeffs, m)
                                for m in range(self.order + 1)])

    __rmul__ = __mul__

    def scale_argument(self, c) -> "TruncatedSeries":
        """Substitute z -> c*z for an exact scalar c."""
        return TruncatedSeries([self.coeffs[i] * (Fraction(c) ** i)
                                for i in range(self.order + 1)])

    def subs_num(self, name: str, value) -> "TruncatedSeries":
        return TruncatedSeries([c.subs_num(name, value) for c in self.coeffs])

    def render(self, limit: int | None = None) -> str:
        upto = self.order if limit is None else min(limit, self.order)
        return " ; ".join(f"z^{i}: {self.coeffs[i].render()}" for i in range(upto + 1))

    def __repr__(self):
        return f"TruncatedSeries(order={self.order}, {self.render(3)} ...)"


def series_exp(s: TruncatedSeries) -> TruncatedSeries:
    """exp of a series with zero constant coefficient."""
    if not s.coeffs[0].is_zero:
        raise ValueError("series_exp requires a zero constant term")
    # m F_m = sum_k k s_k F_{m-k}, from F' = s' F
    ks = [c * k for k, c in enumerate(s.coeffs)]
    out = [ExactPoly.one()]
    for m in range(1, s.order + 1):
        out.append(_convolve(ks, out, m, 1) * Fraction(1, m))
    return TruncatedSeries(out)


def series_log(s: TruncatedSeries) -> TruncatedSeries:
    """log of a series with constant coefficient 1."""
    if s.coeffs[0] != ExactPoly.one():
        raise ValueError("series_log requires constant term 1")
    # kl[k] = k [z^k] log s; s' = s (log s)' gives kl[m] = m s_m minus the
    # sum of s_j kl[m-j] over j = 1..m (the j = m term is s_m kl[0] = 0)
    kl = [ExactPoly.zero()]
    for m in range(1, s.order + 1):
        kl.append(s.coeffs[m] * m - _convolve(s.coeffs, kl, m, 1))
    return TruncatedSeries([c * Fraction(1, k) if k else c
                            for k, c in enumerate(kl)])


def series_sqrt(s: TruncatedSeries) -> TruncatedSeries:
    """Square root (constant term must be 1); result squared reproduces s."""
    if s.coeffs[0] != ExactPoly.one():
        raise ValueError("series_sqrt requires constant term 1")
    half = TruncatedSeries([c * Fraction(1, 2) for c in series_log(s).coeffs])
    return series_exp(half)


def series_pow_symbolic(s: TruncatedSeries, exponent_var: str) -> TruncatedSeries:
    """s raised to a fresh symbolic exponent: exp(exponent_var * log s)."""
    if s.coeffs[0] != ExactPoly.one():
        raise ValueError("symbolic power requires constant term 1")
    for c in s.coeffs:
        if exponent_var in c.variables():
            raise ValueError(f"exponent variable {exponent_var} already occurs "
                             "in the series coefficients")
    v = ExactPoly.var(exponent_var)
    scaled = TruncatedSeries([c * v for c in series_log(s).coeffs])
    return series_exp(scaled)


def series_ratio(num, den: TruncatedSeries) -> TruncatedSeries:
    """num / den where the division is exact at the polynomial level.

    num may be an ExactPoly (treated as a constant series) or a series of
    the same order.  Every step divides exactly by den's constant
    coefficient, which must be a monomial or univariate polynomial.
    """
    if isinstance(num, TruncatedSeries):
        num_coeffs = num.coeffs
        if num.order != den.order:
            raise ValueError("series orders differ")
    else:
        num_coeffs = (_as_poly(num),) + (ExactPoly.zero(),) * den.order
    d0 = den.coeffs[0]
    if d0.is_zero:
        raise ZeroDivisionError("denominator has zero constant coefficient")
    out = [divexact(num_coeffs[0], d0)]
    for m in range(1, den.order + 1):
        out.append(divexact(num_coeffs[m] - _convolve(den.coeffs, out, m, 1),
                            d0))
    return TruncatedSeries(out)


def series_inverse(s: TruncatedSeries) -> TruncatedSeries:
    return series_ratio(ExactPoly.one(), s)


def egf_coefficient(s: TruncatedSeries, n: int) -> ExactPoly:
    """n! times the ordinary coefficient of z^n."""
    if not 0 <= n <= s.order:
        raise ValueError(f"coefficient index {n} outside [0, {s.order}]")
    return s.coeffs[n] * math.factorial(n)
