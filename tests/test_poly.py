import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from combi import families
from combi.poly import (LIMIT, NVARS, VARS, ZERO_EXP, CapacityError,
                        ExactPoly, X, Y, Q, divexact, poly_apply, poly_reverse,
                        poly_sum)


def rand_poly(rng, nvars=3, max_terms=4, lo=0):
    t = {}
    for _ in range(rng.randrange(max_terms + 1)):
        exp = [0] * len(VARS)
        for i in range(nvars):
            exp[i] = rng.randrange(lo, 4)
        t[tuple(exp)] = rng.randrange(-5, 6)
    return ExactPoly(t)


def test_canonical_form_drops_zeros():
    p = ExactPoly({(1, 0, 0, 0, 0, 0, 0): 0, (0,) * 7: 3})
    assert list(p.items()) == [((0,) * 7, 3)]
    assert (X - X).is_zero
    assert ExactPoly.const(Fraction(4, 2)) == ExactPoly.const(2)


def test_integral_fraction_stored_as_int():
    p = ExactPoly({ZERO_EXP: Fraction(4, 2)})
    assert p == ExactPoly.const(2)
    assert hash(p) == hash(ExactPoly.const(2))
    assert type(p.const_value()) is int


def test_equality_and_hash():
    assert 2 * X + X ** 2 == X ** 2 + X + X
    assert hash(2 * X) == hash(X + X)
    assert X != Y
    assert ExactPoly.zero() == 0
    assert ExactPoly.one() == 1


def test_ring_laws_bulk(rng_seed):
    rng = random.Random(rng_seed)
    for _ in range(10_000):
        a, b, c = (rand_poly(rng) for _ in range(3))
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
    assert a * ExactPoly.zero() == ExactPoly.zero()


@given(st.integers(-5, 5), st.integers(-5, 5), st.integers(0, 3),
       st.integers(0, 3))
def test_ring_laws_hypothesis(c1, c2, e1, e2):
    a = ExactPoly.monomial(c1, {"x": e1, "y": e2})
    b = ExactPoly.monomial(c2, {"q": e2, "x": e2}) + 1
    assert a * b == b * a
    assert a * (b + 1) == a * b + a


def test_pow():
    assert (1 + X) ** 2 == 1 + 2 * X + X ** 2
    assert (2 * X) ** 0 == 1
    b = ExactPoly.var("b")
    assert b ** -1 * b == 1
    assert (2 * b) ** -2 == ExactPoly.monomial(Fraction(1, 4), {"b": -2})
    with pytest.raises(ValueError):
        (1 + X) ** -1


def test_diff():
    assert (X ** 3 + 2 * X).diff("x") == 3 * X ** 2 + 2
    b = ExactPoly.var("b")
    assert (b ** -1).diff("b") == -(b ** -2)
    assert (X * Y).diff("y") == X


def test_subs_and_coefficient():
    p = Q ** 2 + 2 * Q * X
    assert p.subs_num("q", 1) == 1 + 2 * X
    assert p.subs_num("x", 1) == Q ** 2 + 2 * Q
    p3 = Q ** 3 * Y ** 3 + 6 * Q ** 2 * X * Y + 4 * Q * X ** 2 + 4 * Q * X
    assert p3.coefficient_of("y", 1) == 6 * Q ** 2 * X
    assert p3.coefficient_of("y", 0) == 4 * Q * X ** 2 + 4 * Q * X


def test_poly_reverse_examples():
    assert poly_reverse(2 * X + X ** 2, 2) == 1 + 2 * X
    assert poly_reverse(ExactPoly.one(), 0) == 1
    assert poly_reverse(4 * X + 10 * X ** 2 + X ** 3, 3) == 1 + 10 * X + 4 * X ** 2


def test_poly_reverse_errors():
    with pytest.raises(ValueError):
        poly_reverse(X ** 3, 2)
    with pytest.raises(ValueError):
        poly_reverse(ExactPoly.monomial(1, {"x": -1}), 2)
    with pytest.raises(ValueError):
        poly_reverse(X * Y, 3)
    with pytest.raises(ValueError, match=r"^n must be >= 0$"):
        poly_reverse(X, -1)


@pytest.mark.parametrize("n", [1.5, True, 1.0], ids=["float", "bool",
                                                    "integral-float"])
def test_poly_reverse_rejects_a_size_that_is_not_an_int(n):
    # 1.5 raised a raw TypeError and True acted as 1
    with pytest.raises(ValueError, match="^n must be an int, got "):
        poly_reverse(X, n)


def test_unknown_variable_names_the_alphabet():
    # both raised KeyError: 'z'
    for build in (lambda: ExactPoly.var("z"),
                  lambda: ExactPoly.monomial(3, {"x": 1, "z": 2})):
        with pytest.raises(ValueError, match=r"'z'.*alphabet is \('x', "):
            build()


@given(st.lists(st.integers(-4, 4), min_size=1, max_size=6))
def test_poly_reverse_involution(coeffs):
    p = sum((c * X ** k for k, c in enumerate(coeffs)), ExactPoly.zero())
    n = len(coeffs) - 1
    assert poly_reverse(poly_reverse(p, n), n) == p


def test_divexact():
    assert divexact(X ** 2 - 1, X - 1) == X + 1
    assert divexact(X ** 2 - 1, 1 - X) == -X - 1
    a = ExactPoly.var("a")
    assert divexact(a * Q ** 2, a) == Q ** 2
    assert divexact(6 * X, ExactPoly.const(2)) == 3 * X
    with pytest.raises(ValueError):
        divexact(X ** 2 + 1, X - 1)
    with pytest.raises(ZeroDivisionError):
        divexact(X, ExactPoly.zero())


def test_divexact_quotient_types():
    # a lead that divides every quotient coefficient keeps ints ints
    q = divexact(6 * X ** 2 - 6, 2 * X - 2)
    assert q == 3 * X + 3
    assert all(type(c) is int for _, c in q.items())
    # a lead that does not divides into a Fraction
    q = divexact(3 * X + 3, 2 * X + 2)
    assert q.const_value() == Fraction(3, 2)
    assert type(q.const_value()) is Fraction
    with pytest.raises(ValueError):
        divexact(3 * X + 4, 2 * X + 2)


def test_render_canonical():
    assert (1 + 4 * X + X ** 2).render() == "1 + 4*x + x^2"
    assert (4 * X + 10 * X ** 2 + X ** 3).render() == "4*x + 10*x^2 + x^3"
    assert ExactPoly.zero().render() == "0"
    assert (Q ** 2 + 2 * Q * X).render() == "q^2 + 2*x*q"
    assert (1 - 2 * X).render() == "1 - 2*x"
    assert (-X + Fraction(1, 2)).render() == "1/2 - x"
    b, c, d = (ExactPoly.var(v) for v in "bcd")
    assert (b ** -1 * c ** 2 * d ** 2).render() == "b^-1*c^2*d^2"


# ---------------------------------------------------------------------------
# sympy oracle: the kernel against an independent implementation
# ---------------------------------------------------------------------------

_NAMES = ("x", "y", "q")
_COEFF = st.one_of(
    st.integers(-6, 6),
    st.fractions(min_value=-3, max_value=3, max_denominator=4))
_NONZERO = _COEFF.filter(bool)


def _exps(lo):
    return st.tuples(*[st.integers(lo, 3)] * 3).map(lambda e: e + (0,) * 4)


_POLY = st.dictionaries(_exps(-2), _COEFF, max_size=5).map(ExactPoly)
_MONOMIAL = st.builds(lambda e, c: ExactPoly({e: c}), _exps(-2), _NONZERO)


def _sympy(sympy, p):
    syms = sympy.symbols(VARS)
    return sympy.Add(*(sympy.Rational(c.numerator, c.denominator)
                       * sympy.Mul(*(s ** k for s, k in zip(syms, exp)))
                       for exp, c in p.items()))


def _agree(sympy, ours, theirs):
    assert sympy.expand(_sympy(sympy, ours) - theirs) == 0


def _all_int(*polys):
    return all(type(c) is int for p in polys for _, c in p.items())


@settings(deadline=None, max_examples=60)
@given(_POLY, _POLY, st.integers(0, 3), st.sampled_from(_NAMES), _NONZERO)
def test_ring_and_calculus_match_sympy(a, b, k, name, value):
    sympy = pytest.importorskip("sympy")
    sa, sb = _sympy(sympy, a), _sympy(sympy, b)
    var = sympy.Symbol(name)
    pairs = [(a + b, sa + sb), (a - b, sa - sb), (a * b, sa * sb),
             (a ** k, sa ** k), (a.diff(name), sympy.diff(sa, var))]
    for ours, theirs in pairs:
        _agree(sympy, ours, theirs)
    _agree(sympy, a.subs_num(name, value),
           sa.subs(var, sympy.Rational(value.numerator, value.denominator)))
    if _all_int(a, b):  # int coefficients stay ints
        assert _all_int(*(ours for ours, _ in pairs))


@settings(deadline=None, max_examples=60)
@given(_POLY, _MONOMIAL, st.integers(-3, 3))
def test_monomial_division_and_power_match_sympy(p, m, k):
    sympy = pytest.importorskip("sympy")
    sp, sm = _sympy(sympy, p), _sympy(sympy, m)
    _agree(sympy, divexact(p, m), sp / sm)
    _agree(sympy, m ** k, sm ** k)


@settings(deadline=None, max_examples=40)
@given(_POLY, st.sampled_from(_NAMES),
       st.lists(_COEFF, min_size=1, max_size=3), _NONZERO)
def test_univariate_division_matches_sympy(a, name, low, lead):
    sympy = pytest.importorskip("sympy")
    var = ExactPoly.var(name)
    a = a * var ** 2  # exponents of `name` in a are now nonnegative
    d = sum((c * var ** i for i, c in enumerate(low)), lead * var ** len(low))
    p = a * d
    quotient = sympy.cancel(_sympy(sympy, p) / _sympy(sympy, d))
    _agree(sympy, divexact(p, d), quotient)


def _typed_terms(p):
    return {e: (c, type(c)) for e, c in p.items()}


# ---------------------------------------------------------------------------
# the linear-operator kernel against the expression it abbreviates
# ---------------------------------------------------------------------------

_LETTERS = st.sampled_from(_NAMES)
_GROUP = st.tuples(st.dictionaries(_LETTERS, st.integers(-2, 2), max_size=3),
                   _COEFF, st.dictionaries(_LETTERS, _COEFF, max_size=3))
_OPERATOR = st.lists(_GROUP, max_size=4).map(tuple)


def _explicit(op, p):
    """op(p) from products and diff: each group is shift * (constant * p +
    sum_v weight_v * v * dp/dv)."""
    return poly_sum(ExactPoly.monomial(1, shift) * (const * p + poly_sum(
        w * ExactPoly.var(v) * p.diff(v) for v, w in weights.items()))
        for shift, const, weights in op)


@settings(deadline=None, max_examples=80)
@given(st.lists(st.tuples(_OPERATOR, _POLY), max_size=3))
def test_poly_apply_is_the_explicit_expression(terms):
    expected = poly_sum(_explicit(op, p) for op, p in terms)
    # the same terms, each coefficient stored as the same type
    assert _typed_terms(poly_apply(terms)) == _typed_terms(expected)


def test_poly_apply_example():
    # A_3 = (1 + 2x) A_2 + x(1 - x) A_2' with A_2 = 1 + x
    step = (({}, 1, {"x": 1}), ({"x": 1}, 2, {"x": -1}))
    assert poly_apply(((step, 1 + X),)) == 1 + 4 * X + X ** 2
    assert poly_apply([]).is_zero
    assert poly_apply(((step, ExactPoly.zero()),)).is_zero


def test_poly_apply_keeps_ints():
    p = families.p_poly(7)
    step = (({"x": 1}, 12, {"x": -2, "y": -2}), ({}, 0, {"x": 2}),
            ({"q": 1, "y": 1}, 1, {}), ({"x": 1, "y": -1}, 0, {"y": 2}))
    assert all(type(c) is int for _, c in poly_apply(((step, p),)).items())
    halve = (({}, Fraction(1, 2), {}),)
    half = poly_apply(((halve, p),))
    assert any(type(c) is Fraction for _, c in half.items())
    assert all(type(c) is int for _, c in (2 * half).items())


def test_poly_apply_exponent_guard():
    raise_x = (({"x": 1}, 1, {}),)
    assert poly_apply(((raise_x, X ** (LIMIT - 2)),)) == X ** (LIMIT - 1)
    with pytest.raises(CapacityError, match=str(LIMIT)):
        poly_apply(((raise_x, X ** (LIMIT - 1)),))
    d_dx = (({"x": -1}, 0, {"x": 1}),)
    bottom = ExactPoly.monomial(1, {"x": -LIMIT})
    with pytest.raises(CapacityError, match=str(LIMIT)):
        poly_apply(((d_dx, bottom),))
    # a term the group sends to 0 leaves no key to guard
    assert poly_apply(((d_dx, ExactPoly.monomial(1, {"y": -LIMIT})),)).is_zero
    raise_d_too_far = (({"d": LIMIT}, 1, {}),)
    with pytest.raises(CapacityError, match=str(LIMIT)):
        poly_apply(((raise_d_too_far, ExactPoly.one()),))


@pytest.mark.parametrize("n", [2, 4, 6])
def test_p_and_r_steps_match_sympy(n):
    sympy = pytest.importorskip("sympy")
    x, y, q = sympy.symbols("x y q")
    p = _sympy(sympy, families.p_poly(n))
    _agree(sympy, families.p_poly(n + 1),
           (2 * n * x + q * y) * p + 2 * x * (1 - x) * sympy.diff(p, x)
           + 2 * x * (1 - y) * sympy.diff(p, y))
    r, r_prev = (_sympy(sympy, families.r_poly(k)) for k in (n, n - 1))
    _agree(sympy, families.r_poly(n + 1),
           2 * n * x * r + 2 * x * (1 - x) * sympy.diff(r, x)
           + 2 * n * x * q * r_prev)


@settings(deadline=None, max_examples=60)
@given(st.lists(_POLY, max_size=6))
def test_poly_sum_is_the_fold_of_add(ps):
    fold = ExactPoly.zero()
    for p in ps:
        fold = fold + p
    # the same terms, each coefficient stored as the same type
    assert _typed_terms(poly_sum(ps)) == _typed_terms(fold)
    assert _typed_terms(poly_sum(iter(ps))) == _typed_terms(fold)
    assert poly_sum(ps + [-p for p in reversed(ps)]).is_zero
    assert poly_sum([]).is_zero


# ---------------------------------------------------------------------------
# packed exponent keys: the whole range [-LIMIT, LIMIT) and its guard
# ---------------------------------------------------------------------------

_WIDE = st.one_of(st.integers(-2, 3), st.integers(-(LIMIT - 1), LIMIT - 1))
_WIDE_EXP = st.tuples(*[_WIDE] * NVARS)
_LAURENT = st.dictionaries(_WIDE_EXP, _COEFF, max_size=4).map(ExactPoly)


def _fits(sympy, expr):
    """Every exponent of the expanded expression lies in [-LIMIT, LIMIT)."""
    syms = set(sympy.symbols(VARS))
    return all(-LIMIT <= e < LIMIT
               for term in sympy.Add.make_args(sympy.expand(expr))
               for base, e in term.as_powers_dict().items() if base in syms)


def _agree_or_capacity(sympy, op, theirs):
    """op() equals the sympy value, or raises CapacityError exactly when
    that value has an exponent outside the packed range."""
    try:
        ours = op()
    except CapacityError:
        assert not _fits(sympy, theirs)
        return
    _agree(sympy, ours, theirs)


@settings(deadline=None, max_examples=60)
@given(_LAURENT, _LAURENT, st.integers(0, 3), st.sampled_from(VARS), _NONZERO,
       st.data())
def test_wide_exponents_match_sympy(a, b, k, name, value, data):
    sympy = pytest.importorskip("sympy")
    sa, sb = _sympy(sympy, a), _sympy(sympy, b)
    var = sympy.Symbol(name)
    _agree(sympy, a + b, sa + sb)
    _agree_or_capacity(sympy, lambda: a * b, sa * sb)
    _agree_or_capacity(sympy, lambda: a ** k, sa ** k)
    _agree_or_capacity(sympy, lambda: a.diff(name), sympy.diff(sa, var))
    _agree(sympy, a.subs_num(name, value),
           sa.subs(var, sympy.Rational(value.numerator, value.denominator)))
    i = VARS.index(name)
    e = data.draw(st.sampled_from(sorted({exp[i] for exp, _ in a.items()}) or [0]))
    _agree(sympy, a.coefficient_of(name, e), sympy.expand(sa).coeff(var, e))


@settings(deadline=None, max_examples=60)
@given(_LAURENT, _WIDE_EXP, _NONZERO, st.integers(-3, 3))
def test_wide_monomial_division_and_power_match_sympy(p, exp, c, k):
    sympy = pytest.importorskip("sympy")
    m = ExactPoly({exp: c})
    sp, sm = _sympy(sympy, p), _sympy(sympy, m)
    _agree_or_capacity(sympy, lambda: divexact(p, m), sp / sm)
    _agree_or_capacity(sympy, lambda: m ** k, sm ** k)


@settings(deadline=None, max_examples=40)
@given(_LAURENT, st.sampled_from(VARS), st.lists(_COEFF, min_size=1, max_size=3),
       _NONZERO)
def test_wide_univariate_division(a, name, low, lead):
    sympy = pytest.importorskip("sympy")
    i = VARS.index(name)
    # exponents of `name` in [0, LIMIT - 4], so a * d stays in range
    a = poly_sum(ExactPoly({exp[:i] + (abs(exp[i]) % (LIMIT - 3),) + exp[i + 1:]: c})
                 for exp, c in a.items())
    var = ExactPoly.var(name)
    d = sum((c * var ** j for j, c in enumerate(low)), lead * var ** len(low))
    p = a * d
    _agree(sympy, p, _sympy(sympy, a) * _sympy(sympy, d))
    assert divexact(p, d) == a


@given(_WIDE_EXP, _COEFF)
def test_packed_key_round_trip(exp, c):
    assert ExactPoly({exp: c}).items() == ([(exp, c)] if c else [])


def test_exponent_guard():
    top = X ** (LIMIT - 1)
    assert top.degree("x") == LIMIT - 1
    with pytest.raises(CapacityError, match=str(LIMIT)):
        top * X
    with pytest.raises(CapacityError):
        top ** 2
    with pytest.raises(CapacityError):
        divexact(top, ExactPoly.monomial(1, {"x": -1}))
    bottom = ExactPoly.monomial(1, {"x": -LIMIT})
    assert bottom * X == ExactPoly.monomial(1, {"x": 1 - LIMIT})
    with pytest.raises(CapacityError, match=str(LIMIT)):
        bottom.diff("x")
    with pytest.raises(CapacityError):
        ExactPoly.monomial(1, {"y": 2}) ** -(LIMIT // 2 + 1)
    # n - e past the field would carry into the next field, or above field 6
    for n in (LIMIT, 2 ** 15 + 2 ** 14, 2 ** 16, 2 ** 112):
        with pytest.raises(CapacityError, match=str(LIMIT)):
            poly_reverse(ExactPoly.one(), n)
    with pytest.raises(CapacityError):
        poly_reverse(X ** 3, 3 + LIMIT)
    assert poly_reverse(X, LIMIT) == X ** (LIMIT - 1)
    # the other fields are untouched by a failed field
    assert (ExactPoly.monomial(1, {"d": LIMIT - 1}) * Q).degree("d") == LIMIT - 1


@pytest.mark.parametrize("e", [LIMIT, -LIMIT - 1, 2 ** 40])
@pytest.mark.parametrize("i", [0, NVARS - 1])
def test_constructor_rejects_exponents_out_of_range(e, i):
    exp = tuple(e if j == i else 0 for j in range(NVARS))
    with pytest.raises(CapacityError, match=str(LIMIT)):
        ExactPoly({exp: 1})
    with pytest.raises(CapacityError):
        ExactPoly.monomial(1, {VARS[i]: e})


@pytest.mark.parametrize("exp", [(1,), (1,) * (NVARS + 1), (), 1,
                                 (1.0,) + (0,) * (NVARS - 1),
                                 ("1",) + (0,) * (NVARS - 1)])
def test_malformed_exponent_vector_rejected(exp):
    with pytest.raises(ValueError, match="tuple of 7 ints"):
        ExactPoly({exp: 2})
