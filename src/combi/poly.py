"""Exact sparse Laurent polynomials over a fixed seven-letter alphabet.

Every polynomial in this package lives in the ring Z[x^±, y^±, q^±, a^±,
b^±, c^±, d^±] (coefficients are promoted to fractions.Fraction as soon as
a division happens, never to floats).  Int coefficients stay ints, and a
Fraction with denominator 1 is stored as its int numerator, so the kernel
runs on ints first and pays for Fraction only where a division left one.
Two polynomials are equal iff their canonical term maps are equal.

A term map is keyed by packed exponents.  The exponent vector (e_x, e_y,
e_q, e_a, e_b, e_c, e_d) is one int whose field i, bits 16i to 16i+15,
holds e_i + BIAS with BIAS = 2^15; ZERO_KEY packs the zero vector.  Every
stored exponent lies in [-LIMIT, LIMIT) with LIMIT = 2^14, so each field of
a product key k1 + k2 - ZERO_KEY holds e1 + e2 + BIAS, which lies in
[0, 2^16): fields never carry into each other, and a monomial product is
one int addition (the packed-monomial layout of Monagan and Pearce, ISSAC
2009).  A field is in range iff its bits 14 and 15 differ, so the one test
(k ^ k >> 1) & _TOP == _TOP checks a whole key.  Every operation that moves
exponents (`poly_dot`, the sum of products behind `*`; `poly_apply`, the
linear-operator kernel that takes each recurrence step in one pass; `**`,
`diff`, `divexact`, `poly_reverse` and the constructor) guards its result
keys: an exponent outside [-LIMIT, LIMIT) raises CapacityError and never
carries silently.  The field test only sees a field that went at most 2^15
out of range, so `poly_reverse`, whose shift comes from an unbounded n,
bounds each new exponent before packing.

Three kernels merge term maps, and no other code does: `poly_sum` (`+` is
a two-term poly_sum), `poly_dot` (`*` is a one-term poly_dot, and each
step of the grammar derivative is one poly_dot over the pairs
(d expr/dv, rule of v)) and `poly_apply`.  `subs_num` and `divexact` keep
their own maps: substitution and long division are not sums of products.

The public interface speaks 7-tuples: the constructor takes a dict of
{exponent tuple: coefficient} (anything but a tuple of seven ints as a key
raises ValueError), and `items()` gives (exponent tuple, coefficient) pairs.

Negative exponents are first-class: the grammar rewriting rule for the
letter ``b`` produces the monomial b^-1*c^2*d^2.
"""

from __future__ import annotations

from fractions import Fraction

VARS = ("x", "y", "q", "a", "b", "c", "d")
NVARS = len(VARS)
VAR_INDEX = {v: i for i, v in enumerate(VARS)}
ZERO_EXP = (0,) * NVARS

FIELD_BITS = 16
BIAS = 1 << (FIELD_BITS - 1)
LIMIT = 1 << (FIELD_BITS - 2)
_MASK = (1 << FIELD_BITS) - 1
_SHIFT = tuple(FIELD_BITS * i for i in range(NVARS))
ZERO_KEY = sum(BIAS << s for s in _SHIFT)
_TOP = sum(LIMIT << s for s in _SHIFT)  # bit 14 of every field

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


def _out_of_range(exp) -> CapacityError:
    return CapacityError(f"exponent vector {exp} leaves the packed range: "
                         f"every exponent must lie in [-{LIMIT}, {LIMIT})")


def _pack(exp) -> int:
    if (type(exp) is not tuple or len(exp) != NVARS
            or any(type(e) is not int for e in exp)):
        raise ValueError(
            f"exponent vector must be a tuple of {NVARS} ints, got {exp!r}")
    key = 0
    for e, s in zip(exp, _SHIFT):
        if not -LIMIT <= e < LIMIT:
            raise _out_of_range(exp)
        key |= (e + BIAS) << s
    return key


def _monomial_key(exps: dict[str, int]) -> int:
    """The packed key of the monomial prod v^exps[v]."""
    e = [0] * NVARS
    for name, k in exps.items():
        if name not in VAR_INDEX:
            raise ValueError(f"unknown variable {name!r}: the alphabet is {VARS}")
        e[VAR_INDEX[name]] = k
    return _pack(tuple(e))


def _unpack(key: int) -> tuple[int, ...]:
    return tuple(((key >> s) & _MASK) - BIAS for s in _SHIFT)


def _canonical(t: dict[int, Coeff]) -> dict[int, Coeff]:
    """t without zero coefficients, unit Fractions stored as ints."""
    out = {}
    for key, coeff in t.items():
        if type(coeff) is not int:
            coeff = _norm_coeff(coeff)
        if coeff:
            out[key] = coeff
    return out


def _checked(t: dict[int, Coeff]) -> dict[int, Coeff]:
    """t, once every key is known to hold exponents in [-LIMIT, LIMIT)."""
    for key in t:
        if (key ^ key >> 1) & _TOP != _TOP:
            raise _out_of_range(_unpack(key))
    return t


def _poly(t: dict[int, Coeff]) -> "ExactPoly":
    """The polynomial of a packed term map whose keys are in range."""
    p = object.__new__(ExactPoly)
    p._terms = _canonical(t)
    return p


def _others(i: int) -> int:
    """Mask of every field but field i."""
    return ~(_MASK << _SHIFT[i])


class ExactPoly:
    """Immutable sparse polynomial; terms maps packed key -> coefficient."""

    __slots__ = ("_terms",)

    def __init__(self, terms: dict[tuple[int, ...], Coeff] | None = None):
        self._terms = _canonical(
            {_pack(exp): coeff for exp, coeff in terms.items()} if terms else {})

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "ExactPoly":
        return _poly({})

    @classmethod
    def one(cls) -> "ExactPoly":
        return _poly({ZERO_KEY: 1})

    @classmethod
    def const(cls, c: Coeff) -> "ExactPoly":
        return _poly({ZERO_KEY: c})

    @classmethod
    def var(cls, name: str) -> "ExactPoly":
        return cls.monomial(1, {name: 1})

    @classmethod
    def monomial(cls, coeff: Coeff, exps: dict[str, int]) -> "ExactPoly":
        return _poly({_monomial_key(exps): coeff})

    # -- inspection ---------------------------------------------------

    def items(self) -> list[tuple[tuple[int, ...], Coeff]]:
        """(exponent tuple, coefficient) pairs."""
        return [(_unpack(key), coeff) for key, coeff in self._terms.items()]

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def is_const(self) -> bool:
        return not self._terms or (len(self._terms) == 1 and ZERO_KEY in self._terms)

    def const_value(self) -> Coeff:
        if not self.is_const:
            raise ValueError("polynomial is not constant")
        return self._terms.get(ZERO_KEY, 0)

    def variables(self) -> set[str]:
        used = 0
        for key in self._terms:
            used |= key ^ ZERO_KEY
        return {v for v, s in zip(VARS, _SHIFT) if used >> s & _MASK}

    def degree(self, name: str) -> int:
        """Largest exponent of ``name``; zero polynomial has degree 0."""
        s = _SHIFT[VAR_INDEX[name]]
        return max(((key >> s) & _MASK for key in self._terms),
                   default=BIAS) - BIAS

    def univariate_coeffs(self, name: str = "x") -> list[Coeff]:
        """Dense ascending coefficient list; requires a genuine univariate
        polynomial in ``name`` with nonnegative exponents."""
        i = VAR_INDEX[name]
        s, others = _SHIFT[i], _others(i)
        by_deg: dict[int, Coeff] = {}
        for key, coeff in self._terms.items():
            if (key ^ ZERO_KEY) & others:
                raise ValueError(f"polynomial is not univariate in {name}")
            e = ((key >> s) & _MASK) - BIAS
            if e < 0:
                raise ValueError("negative exponent where polynomial expected")
            by_deg[e] = coeff
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
        return poly_sum((self, other))

    __radd__ = __add__

    def __neg__(self):
        return _poly({key: -c for key, c in self._terms.items()})

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
        return poly_dot(((1, self, other),))

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if not isinstance(k, int):
            raise TypeError("polynomial exponent must be an int")
        if k < 0:
            if len(self._terms) != 1:
                raise ValueError("negative power of a non-monomial")
            (key, coeff), = self._terms.items()
            return _poly({_pack(tuple(e * k for e in _unpack(key))):
                          Fraction(coeff) ** k})
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
        s = _SHIFT[VAR_INDEX[name]]
        unit = 1 << s
        # lowering one exponent is injective, so no two terms collide
        t = {}
        for key, coeff in self._terms.items():
            e = ((key >> s) & _MASK) - BIAS
            if e:
                if e == -LIMIT:
                    raise _out_of_range(_unpack(key - unit))
                t[key - unit] = coeff * e
        return _poly(t)

    def subs_num(self, name: str, value: Coeff) -> "ExactPoly":
        """Evaluate one variable at an exact number."""
        s = _SHIFT[VAR_INDEX[name]]
        t: dict[int, Coeff] = {}
        for key, coeff in self._terms.items():
            e = ((key >> s) & _MASK) - BIAS
            if e:
                if value == 0 and e < 0:
                    raise ZeroDivisionError("negative exponent at value 0")
                coeff = coeff * (Fraction(value) ** e if e < 0 else value ** e)
                key -= e << s
            t[key] = t.get(key, 0) + coeff
        return _poly(t)

    def coefficient_of(self, name: str, k: int) -> "ExactPoly":
        """Polynomial coefficient of name^k (the variable is removed)."""
        s = _SHIFT[VAR_INDEX[name]]
        # a field never holds k + BIAS for k outside the range, so such a k
        # matches no term
        return _poly({key - (k << s): coeff for key, coeff in self._terms.items()
                      if (key >> s) & _MASK == k + BIAS})

    # -- rendering ------------------------------------------------------

    def render(self) -> str:
        """Canonical text: terms sorted by graded-lex exponent order."""
        if not self._terms:
            return "0"
        pieces = []
        for exp, coeff in sorted(self.items(),
                                 key=lambda it: (sum(it[0]), it[0])):
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
    t: dict[int, Coeff] = {}
    get = t.get
    for p in polys:
        for key, coeff in p._terms.items():
            t[key] = get(key, 0) + coeff
    return _poly(t)


def poly_dot(terms) -> ExactPoly:
    """The sum of w*p*r over the triples (w, p, r) of terms, w a scalar:
    every product adds into one term map, with no map per product.  This is
    the one multiplication kernel; `p * r` is poly_dot(((1, p, r),))."""
    t: dict[int, Coeff] = {}
    get = t.get
    for w, p, r in terms:
        # the outer loop runs over the factor with fewer terms
        small, big = p._terms, r._terms
        if len(small) > len(big):
            small, big = big, small
        big_items = tuple(big.items())
        for k1, c1 in small.items():
            shift = k1 - ZERO_KEY
            c1 *= w
            for k2, c2 in big_items:
                key = shift + k2
                t[key] = get(key, 0) + c1 * c2
    return _poly(_checked(t))


def poly_apply(terms) -> ExactPoly:
    """The sum of op(p) over the pairs (op, p) of terms, every image term
    added into one term map.  This is the one linear-operator kernel; the
    A, B, Q, P and R recurrences are each one operator (see `families`).

    An operator is a tuple of groups (shift, constant, weights): shift maps
    letters to exponents, weights maps letters to scalars.  A group sends
    the term c*m, m a monomial with exponents e_v, to

        (constant + sum_v weights[v] * e_v) * c * m * shift,

    so a scalar times a monomial is (monomial, scalar, {}) and a monomial
    times d/dv is (monomial / v, 0, {v: 1}).  Groups that share a shift
    add their constants and weights: x*(1 - x) d/dx is the two groups
    ({}, 0, {"x": 1}) and ({"x": 1}, 0, {"x": -1})."""
    t: dict[int, Coeff] = {}
    get = t.get
    for op, p in terms:
        items = p._terms.items()
        for shift, const, weights in op:
            delta = _monomial_key(shift) - ZERO_KEY
            fields = [(_SHIFT[VAR_INDEX[v]], w) for v, w in weights.items() if w]
            # a field holds e_v + BIAS, so the bias comes off the constant
            const -= BIAS * sum(w for _, w in fields)
            if len(fields) <= 1:
                # the common case: one multiply-add per term
                s, w = fields[0] if fields else (0, 0)
                for key, c in items:
                    f = const + w * (key >> s & _MASK)
                    if f:
                        k = key + delta
                        t[k] = get(k, 0) + f * c
            else:
                for key, c in items:
                    f = const
                    for s, w in fields:
                        f += w * (key >> s & _MASK)
                    if f:
                        k = key + delta
                        t[k] = get(k, 0) + f * c
    return _poly(_checked(t))


def poly_reverse(p: ExactPoly, n: int) -> ExactPoly:
    """x^n * p(1/x) for a univariate p with exponent support inside [0, n]."""
    if isinstance(n, bool) or not isinstance(n, int):
        raise ValueError(f"n must be an int, got {n!r}")
    if n < 0:
        raise ValueError("n must be >= 0")
    i = VAR_INDEX["x"]
    s, others = _SHIFT[i], _others(i)
    t = {}
    for key, coeff in p._terms.items():
        if (key ^ ZERO_KEY) & others:
            raise ValueError("poly_reverse requires a polynomial univariate in x")
        e = ((key >> s) & _MASK) - BIAS
        if not 0 <= e <= n:
            raise ValueError(f"exponent {e} outside [0, {n}]")
        if n - e >= LIMIT:
            # checked before packing: n is unbounded, and a field pushed
            # far enough carries into the next one past the _checked test
            raise _out_of_range(tuple(n - e if j == i else 0
                                      for j in range(NVARS)))
        t[key + ((n - 2 * e) << s)] = coeff
    return _poly(t)


def divexact(p: ExactPoly, d: ExactPoly) -> ExactPoly:
    """Exact division p / d.

    ``d`` must be either a single monomial (Laurent allowed) or a
    univariate polynomial with a unit-free rational leading coefficient.
    Raises ValueError when the division leaves a remainder.
    """
    if d.is_zero:
        raise ZeroDivisionError("division by zero polynomial")
    if len(d._terms) == 1:
        (dkey, dcoeff), = d._terms.items()
        # a unit divisor keeps int coefficients ints
        scale = dcoeff if dcoeff in (1, -1) else 1 / Fraction(dcoeff)
        shift = ZERO_KEY - dkey
        return _poly(_checked({key + shift: coeff * scale
                               for key, coeff in p._terms.items()}))

    dvars = d.variables()
    if len(dvars) != 1:
        raise ValueError("divisor must be a monomial or univariate")
    name = dvars.pop()
    s = _SHIFT[VAR_INDEX[name]]
    dcoeffs = d.univariate_coeffs(name)
    ddeg = len(dcoeffs) - 1
    lead = dcoeffs[-1]

    # every exponent of `name` met below lies in [0, top] for the first top,
    # and the other fields are copied, so no key leaves the range
    rem = dict(p._terms)
    quo: dict[int, Coeff] = {}
    while rem:
        fields = [(key >> s) & _MASK for key in rem]
        top = max(fields) - BIAS
        if top < ddeg or min(fields) < BIAS:
            raise ValueError("polynomials do not divide exactly")
        head = {key: c for key, c in rem.items()
                if (key >> s) & _MASK == top + BIAS}
        for key, c in head.items():
            if type(c) is int and type(lead) is int and c % lead == 0:
                qc = c // lead  # an int quotient stays an int
            else:
                qc = _norm_coeff(Fraction(c) / lead)
            qkey = key - (ddeg << s)
            quo[qkey] = quo.get(qkey, 0) + qc
            for k, dc in enumerate(dcoeffs):
                if dc == 0:
                    continue
                rkey = qkey + (k << s)
                nv = rem.get(rkey, 0) - qc * dc
                if nv == 0:
                    rem.pop(rkey, None)
                else:
                    rem[rkey] = nv
    return _poly(quo)


# Frequently used atoms.
X = ExactPoly.var("x")
Y = ExactPoly.var("y")
Q = ExactPoly.var("q")
ONE = ExactPoly.one()
