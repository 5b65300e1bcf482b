from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from combi import families, sturm
from combi.poly import ExactPoly, X, Y, divexact
from combi.sturm import SturmReport, sturm_real_roots


def test_two_real_roots():
    rep = sturm_real_roots(X ** 2 - 1)
    assert rep == SturmReport(2, 2, True)
    assert rep.all_real_simple


def test_no_real_roots():
    assert sturm_real_roots(X ** 2 + 1) == SturmReport(2, 0, True)


def test_derangement_factor():
    # 8 + 44x + 8x^2 has positive discriminant
    rep = sturm_real_roots(8 + 44 * X + 8 * X ** 2)
    assert rep == SturmReport(2, 2, True)


def test_repeated_root_detected():
    rep = sturm_real_roots((X - 1) * (X - 1))
    assert rep.degree == 2
    assert rep.distinct_real_roots == 1
    assert not rep.is_squarefree
    assert not rep.all_real_simple


def test_cubic():
    assert sturm_real_roots(X ** 3 - X).distinct_real_roots == 3


def test_constant_and_errors():
    assert sturm_real_roots(ExactPoly.const(5)) == SturmReport(0, 0, True)
    with pytest.raises(ValueError):
        sturm_real_roots(ExactPoly.zero())
    with pytest.raises(ValueError):
        sturm_real_roots(X * Y)
    with pytest.raises(ValueError):
        sturm_real_roots(ExactPoly.monomial(1, {"x": -1}))


@given(st.sets(st.integers(-6, 6), min_size=1, max_size=5),
       st.booleans())
def test_products_of_linear_factors(roots, add_complex):
    p = ExactPoly.one()
    for r in roots:
        p = p * (X - r)
    if add_complex:
        p = p * (X ** 2 + 1)
    rep = sturm_real_roots(p)
    assert rep.distinct_real_roots == len(roots)
    assert rep.is_squarefree


@pytest.mark.parametrize("n", range(2, 31))
def test_r_over_x_root_count_matches_sympy(n):
    sympy = pytest.importorskip("sympy")
    p = divexact(families.r_poly(n, with_q=False), X)
    x = sympy.Symbol("x")
    oracle = sympy.Poly(list(reversed(p.univariate_coeffs("x"))), x)
    assert sturm_real_roots(p).distinct_real_roots == oracle.count_roots()


# ---------------------------------------------------------------------------
# the fraction-free chain against the chain of rational remainders
# ---------------------------------------------------------------------------

def _rational_rem(f, g):
    """Remainder of f by g over the rationals (dense ascending)."""
    r = [Fraction(c) for c in f]
    while len(r) >= len(g):
        factor = r[-1] / g[-1]
        k = len(r) - len(g)
        for i, gc in enumerate(g):
            r[k + i] -= factor * gc
        while r and r[-1] == 0:
            r.pop()
    return r


def _rational_chain(coeffs):
    chain = [sturm._primitive(coeffs),
             sturm._primitive([c * k for k, c in enumerate(coeffs)][1:])]
    while len(chain[-1]) > 1:
        r = _rational_rem(chain[-2], chain[-1])
        if not r:
            break
        chain.append(sturm._primitive([-c for c in r]))
    return chain


@pytest.mark.parametrize("n", range(2, 31))
def test_r_over_x_chain_matches_rational_chain(n):
    coeffs = divexact(families.r_poly(n, with_q=False), X).univariate_coeffs()
    assert sturm._chain(coeffs) == _rational_chain(coeffs)


_FACTOR = st.lists(st.integers(-5, 5), min_size=2, max_size=3).filter(
    lambda cs: cs[-1] != 0)


def _from_coeffs(cs):
    return sum((c * X ** k for k, c in enumerate(cs)), ExactPoly.zero())


@given(st.lists(_FACTOR, min_size=1, max_size=3), st.lists(_FACTOR, max_size=2),
       st.integers(1, 4))
def test_chain_with_repeated_factors_matches_rational_chain(simple, repeated,
                                                             lead):
    p = ExactPoly.const(lead)
    for cs in simple:
        p = p * _from_coeffs(cs)
    for cs in repeated:
        p = p * _from_coeffs(cs) ** 2
    coeffs = p.univariate_coeffs()
    if coeffs[-1] > 0:  # make the leading coefficient negative
        coeffs = [-c for c in coeffs]
    chain = sturm._chain(coeffs)
    assert chain == _rational_chain(coeffs)
    assert all(type(c) is int for f in chain for c in f)
