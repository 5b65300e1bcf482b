"""Exact sparse Laurent polynomials over a fixed seven-letter alphabet.

Every polynomial in this package lives in the ring Z[x^±, y^±, q^±, a^±,
b^±, c^±, d^±] (coefficients are promoted to fractions.Fraction as soon as
a division happens, never to floats).  Int coefficients stay ints, and a
Fraction with denominator 1 is stored as its int numerator, so the kernel
runs on ints first and pays for Fraction only where a division left one.
The variable set is fixed and ordered, so an exponent vector is a dense
7-tuple of signed integers and two polynomials are equal iff their
canonical term maps are equal.

Negative exponents are first-class: the grammar rewriting rule for the
letter ``b`` produces the monomial b^-1*c^2*d^2.
"""

from __future__ import annotations

import operator
from fractions import Fraction

VARS = ("x", "y", "q", "a", "b", "c", "d")
NVARS = len(VARS)
VAR_INDEX = {v: i for i, v in enumerate(VARS)}
ZERO_EXP = (0,) * NVARS

Coeff = int | Fraction


class CapacityError(Exception):
    """Requested computation exceeds an exhaustive/series capacity bound."""


def _norm_coeff(c: Coeff) -> Coeff:
    # Fractions with unit denominator collapse to int so that equal values
    # always share one stored representation (required for dict equality).
    if type(c) is int:
        return c
    if isinstance(c, Fraction) and c.denominator == 1:
        return c.numerator
    return c


class ExactPoly:
    """Immutable sparse polynomial; terms maps exponent tuple -> coefficient."""

    __slots__ = ("_terms",)

    def __init__(self, terms: dict[tuple[int, ...], Coeff] | None = None):
        t = {}
        if terms:
            for exp, coeff in terms.items():
                if type(coeff) is not int:
                    coeff = _norm_coeff(coeff)
                if coeff != 0:
                    t[exp] = coeff
        self._terms = t

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "ExactPoly":
        return cls()

    @classmethod
    def one(cls) -> "ExactPoly":
        return cls({ZERO_EXP: 1})

    @classmethod
    def const(cls, c: Coeff) -> "ExactPoly":
        return cls({ZERO_EXP: c})

    @classmethod
    def var(cls, name: str) -> "ExactPoly":
        return cls.monomial(1, {name: 1})

    @classmethod
    def monomial(cls, coeff: Coeff, exps: dict[str, int]) -> "ExactPoly":
        e = [0] * NVARS
        for name, k in exps.items():
            e[VAR_INDEX[name]] = k
        return cls({tuple(e): coeff})

    # -- inspection ---------------------------------------------------

    def items(self):
        return self._terms.items()

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def is_const(self) -> bool:
        return not self._terms or (len(self._terms) == 1 and ZERO_EXP in self._terms)

    def const_value(self) -> Coeff:
        if not self.is_const:
            raise ValueError("polynomial is not constant")
        return self._terms.get(ZERO_EXP, 0)

    def variables(self) -> set[str]:
        used = set()
        for exp in self._terms:
            for i, e in enumerate(exp):
                if e:
                    used.add(VARS[i])
        return used

    def degree(self, name: str) -> int:
        """Largest exponent of ``name``; zero polynomial has degree 0."""
        i = VAR_INDEX[name]
        return max((exp[i] for exp in self._terms), default=0)

    def univariate_coeffs(self, name: str = "x") -> list[Coeff]:
        """Dense ascending coefficient list; requires a genuine univariate
        polynomial in ``name`` with nonnegative exponents."""
        i = VAR_INDEX[name]
        by_deg: dict[int, Coeff] = {}
        for exp, coeff in self._terms.items():
            if any(e for j, e in enumerate(exp) if j != i):
                raise ValueError(f"polynomial is not univariate in {name}")
            if exp[i] < 0:
                raise ValueError("negative exponent where polynomial expected")
            by_deg[exp[i]] = coeff
        deg = max(by_deg, default=0)
        return [by_deg.get(k, 0) for k in range(deg + 1)]

    # -- ring operations ----------------------------------------------

    @staticmethod
    def _coerce(other) -> "ExactPoly":
        if isinstance(other, ExactPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return ExactPoly.const(other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        t = dict(self._terms)
        get = t.get
        for exp, coeff in other._terms.items():
            t[exp] = get(exp, 0) + coeff
        return ExactPoly(t)

    __radd__ = __add__

    def __neg__(self):
        return ExactPoly({exp: -c for exp, c in self._terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        # the outer loop runs over the factor with fewer terms
        small, big = self._terms, other._terms
        if len(small) > len(big):
            small, big = big, small
        big_items = tuple(big.items())
        add = operator.add
        t: dict[tuple[int, ...], Coeff] = {}
        get = t.get
        for e1, c1 in small.items():
            for e2, c2 in big_items:
                exp = tuple(map(add, e1, e2))
                t[exp] = get(exp, 0) + c1 * c2
        return ExactPoly(t)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if not isinstance(k, int):
            raise TypeError("polynomial exponent must be an int")
        if k < 0:
            if len(self._terms) != 1:
                raise ValueError("negative power of a non-monomial")
            (exp, coeff), = self._terms.items()
            return ExactPoly({tuple(e * k for e in exp): Fraction(coeff) ** k})
        result = ExactPoly.one()
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __bool__(self):
        return bool(self._terms)

    # -- calculus and substitution --------------------------------------

    def diff(self, name: str) -> "ExactPoly":
        """Formal partial derivative; x^k -> k*x^(k-1) for any integer k."""
        i = VAR_INDEX[name]
        # lowering one exponent is injective, so no two terms collide
        return ExactPoly({exp[:i] + (exp[i] - 1,) + exp[i + 1:]: coeff * exp[i]
                          for exp, coeff in self._terms.items() if exp[i]})

    def subs_num(self, name: str, value: Coeff) -> "ExactPoly":
        """Evaluate one variable at an exact number."""
        i = VAR_INDEX[name]
        t: dict[tuple[int, ...], Coeff] = {}
        for exp, coeff in self._terms.items():
            e = exp[i]
            if e:
                if value == 0 and e < 0:
                    raise ZeroDivisionError("negative exponent at value 0")
                coeff = coeff * (Fraction(value) ** e if e < 0 else value ** e)
            new = exp[:i] + (0,) + exp[i + 1:]
            t[new] = t.get(new, 0) + coeff
        return ExactPoly(t)

    def coefficient_of(self, name: str, k: int) -> "ExactPoly":
        """Polynomial coefficient of name^k (the variable is removed)."""
        i = VAR_INDEX[name]
        t = {}
        for exp, coeff in self._terms.items():
            if exp[i] == k:
                t[exp[:i] + (0,) + exp[i + 1:]] = coeff
        return ExactPoly(t)

    # -- rendering ------------------------------------------------------

    def render(self) -> str:
        """Canonical text: terms sorted by graded-lex exponent order."""
        if not self._terms:
            return "0"
        pieces = []
        for exp in sorted(self._terms, key=lambda e: (sum(e), e)):
            coeff = self._terms[exp]
            factors = []
            for i, e in enumerate(exp):
                if e == 0:
                    continue
                factors.append(VARS[i] if e == 1 else f"{VARS[i]}^{e}")
            mag = abs(coeff)
            if factors and mag == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(mag)] + factors)
            pieces.append((coeff < 0, body))
        neg, body = pieces[0]
        out = ("-" if neg else "") + body
        for neg, body in pieces[1:]:
            out += (" - " if neg else " + ") + body
        return out

    __str__ = render

    def __repr__(self):
        return f"ExactPoly({self.render()})"


def poly_sum(polys) -> ExactPoly:
    """The sum of an iterable of polynomials, built as one term map (a
    chain of `+` would copy the partial sum once per addend)."""
    t: dict[tuple[int, ...], Coeff] = {}
    get = t.get
    for p in polys:
        for exp, coeff in p._terms.items():
            t[exp] = get(exp, 0) + coeff
    return ExactPoly(t)


def poly_reverse(p: ExactPoly, n: int) -> ExactPoly:
    """x^n * p(1/x) for a univariate p with exponent support inside [0, n]."""
    if n < 0:
        raise ValueError("n must be >= 0")
    i = VAR_INDEX["x"]
    t = {}
    for exp, coeff in p.items():
        if any(e for j, e in enumerate(exp) if j != i):
            raise ValueError("poly_reverse requires a polynomial univariate in x")
        if not 0 <= exp[i] <= n:
            raise ValueError(f"exponent {exp[i]} outside [0, {n}]")
        t[exp[:i] + (n - exp[i],) + exp[i + 1:]] = coeff
    return ExactPoly(t)


def divexact(p: ExactPoly, d: ExactPoly) -> ExactPoly:
    """Exact division p / d.

    ``d`` must be either a single monomial (Laurent allowed) or a
    univariate polynomial with a unit-free rational leading coefficient.
    Raises ValueError when the division leaves a remainder.
    """
    if d.is_zero:
        raise ZeroDivisionError("division by zero polynomial")
    terms = dict(d.items())
    if len(terms) == 1:
        (dexp, dcoeff), = terms.items()
        # a unit divisor keeps int coefficients ints
        scale = dcoeff if dcoeff in (1, -1) else 1 / Fraction(dcoeff)
        sub = operator.sub
        return ExactPoly({tuple(map(sub, exp, dexp)): coeff * scale
                          for exp, coeff in p.items()})

    dvars = d.variables()
    if len(dvars) != 1:
        raise ValueError("divisor must be a monomial or univariate")
    name = dvars.pop()
    i = VAR_INDEX[name]
    dcoeffs = d.univariate_coeffs(name)
    ddeg = len(dcoeffs) - 1
    lead = dcoeffs[-1]

    rem = dict(p.items())
    quo: dict[tuple[int, ...], Coeff] = {}
    while rem:
        top = max(exp[i] for exp in rem)
        if top < ddeg or any(exp[i] < 0 for exp in rem):
            raise ValueError("polynomials do not divide exactly")
        shift = top - ddeg
        head = {exp: c for exp, c in rem.items() if exp[i] == top}
        for exp, c in head.items():
            qc = _norm_coeff(Fraction(c, 1) / lead if not isinstance(c, Fraction)
                             else c / lead)
            qexp = exp[:i] + (shift,) + exp[i + 1:]
            quo[qexp] = quo.get(qexp, 0) + qc
            for k, dc in enumerate(dcoeffs):
                if dc == 0:
                    continue
                rexp = exp[:i] + (shift + k,) + exp[i + 1:]
                nv = rem.get(rexp, 0) - qc * dc
                if nv == 0:
                    rem.pop(rexp, None)
                else:
                    rem[rexp] = nv
    return ExactPoly(quo)


# Frequently used atoms.
X = ExactPoly.var("x")
Y = ExactPoly.var("y")
Q = ExactPoly.var("q")
ONE = ExactPoly.one()
