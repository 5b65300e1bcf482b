import pytest
from hypothesis import given
from hypothesis import strategies as st

from combi import families
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


@pytest.mark.parametrize("n", range(2, 11))
def test_r_over_x_root_count_matches_sympy(n):
    sympy = pytest.importorskip("sympy")
    p = divexact(families.r_poly(n, with_q=False), X)
    x = sympy.Symbol("x")
    oracle = sympy.Poly(list(reversed(p.univariate_coeffs("x"))), x)
    assert sturm_real_roots(p).distinct_real_roots == oracle.count_roots()
