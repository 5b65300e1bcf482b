import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from combi import families, sturm, verify
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


# ---------------------------------------------------------------------------
# the Descartes count on squarefree inputs against the Sturm chain
# ---------------------------------------------------------------------------

Q = sturm._Q


def _chain_report(p):
    """The report of the Sturm chain path, whatever the modular test says."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sturm, "_squarefree_mod_q", lambda f: False)
        return sturm_real_roots(p)


def _takes_fast_path(p):
    return sturm._squarefree_mod_q(sturm._primitive(p.univariate_coeffs("x")))


def _is_square(d):
    return d >= 0 and math.isqrt(d) ** 2 == d


_ROOT = st.one_of(st.sampled_from([0, 1, -1]),
                  st.builds(Fraction, st.integers(-40, 40), st.integers(1, 9)))
# x^2 + b x + c with no rational root, real roots or not
_QUADRATIC = st.tuples(st.integers(-9, 9), st.integers(-9, 9)).filter(
    lambda bc: not _is_square(bc[0] ** 2 - 4 * bc[1]))


@given(st.sets(_ROOT, max_size=6), st.sets(_QUADRATIC, max_size=2),
       st.none() | _ROOT, st.none() | st.integers(-3, 3), st.booleans(),
       st.sampled_from([1, -1, 3, Fraction(-2, 7)]))
def test_descartes_count_equals_chain(roots, quadratics, close, big, big_neg,
                                      scale):
    roots = set(roots)
    if close is not None:  # two roots 2^-20 apart
        roots |= {close, close + Fraction(1, 2 ** 20)}
    if big is not None:  # a root of size 2^40
        roots.add((-1 if big_neg else 1) * (2 ** 40 + big))
    p = ExactPoly.const(scale)
    for r in roots:
        p = p * (X - r)
    for b, c in quadratics:
        p = p * (X ** 2 + b * X + c)
    rep = sturm_real_roots(p)
    assert rep == _chain_report(p)
    real = len(roots) + 2 * sum(b * b > 4 * c for b, c in quadratics)
    assert rep == SturmReport(p.degree("x"), real, True)
    assert p.degree("x") == 0 or _takes_fast_path(p)


@pytest.mark.parametrize("n", range(3, 61))
def test_r_over_x_counted_without_chain(n, monkeypatch):
    def no_chain(coeffs):
        raise AssertionError("Sturm chain on a certified squarefree input")

    monkeypatch.setattr(sturm, "_chain", no_chain)
    p = divexact(families.r_poly(n, with_q=False), X)
    assert sturm_real_roots(p) == SturmReport(n - 2, n - 2, True)


# the chain over all of n = 3..60 takes about 18 s on a 2-core Xeon with
# Python 3.11, most of it above n = 40
@pytest.mark.parametrize("n", [*range(3, 41), 50, 60])
def test_r_over_x_chain_count(n):
    p = divexact(families.r_poly(n, with_q=False), X)
    assert _chain_report(p) == SturmReport(n - 2, n - 2, True)


@pytest.mark.parametrize("p, want", [
    (X ** 2, SturmReport(2, 1, False)),
    (X ** 4 - X ** 2, SturmReport(4, 3, False)),
    ((X - 1) ** 3 * (X + 1), SturmReport(4, 2, False)),
    # squarefree, but its two roots meet mod q
    ((X - 1) * (X - 1 - Q), SturmReport(2, 2, True)),
    # squarefree, but q divides the leading coefficient
    (Q * X ** 2 - 1, SturmReport(2, 2, True)),
    (Fraction(1, 3) * (Q * X ** 3 + 2 * X), SturmReport(3, 1, True)),
], ids=["x^2", "x^4-x^2", "(x-1)^3(x+1)", "roots-meet-mod-q",
        "lead-divisible-by-q", "fraction-lead-divisible-by-q"])
def test_fallback_to_chain(p, want, monkeypatch):
    assert not _takes_fast_path(p)
    assert _chain_report(p) == want

    def no_descartes(f):
        raise AssertionError("Descartes count on an uncertified input")

    monkeypatch.setattr(sturm, "_positive_roots", no_descartes)
    assert sturm_real_roots(p) == want


@pytest.mark.parametrize("off", [1, -1])
def test_off_by_one_positive_count_caught(off, monkeypatch):
    real = sturm._positive_roots
    monkeypatch.setattr(sturm, "_positive_roots", lambda f: real(f) + off)
    for n in range(3, 11):
        assert verify.run_check("R-real-rooted", n).status == "fail"


@pytest.mark.parametrize("off", [1, -1])
def test_off_by_one_chain_count_caught(off, monkeypatch):
    # x f (off 1) or -x f (off -1) put in front of the chain: the pair
    # with f keeps its sign at one end and changes it at the other, so
    # the count moves by exactly `off`
    real = sturm._chain
    monkeypatch.setattr(sturm, "_chain", lambda f: [
        [0] + [off * c for c in real(f)[0]], *real(f)])
    for n in range(3, 11):
        p = divexact(families.r_poly(n, with_q=False), X)
        assert sturm.chain_real_roots(p) == SturmReport(n - 2, n - 2 + off, True)
        assert verify.run_check("R-real-rooted", n).status == "fail"


@pytest.mark.parametrize("n", range(3, 11))
def test_modular_test_that_never_proves_squarefree_caught(n, monkeypatch):
    # through the dispatcher this mutant sent R_n/x to the chain, and the
    # check compared two chain counts; the Descartes route must refuse it,
    # and a route that raises fails its check
    monkeypatch.setattr(sturm, "_squarefree_mod_q", lambda f: False)
    rep = verify.run_check("R-real-rooted", n)
    assert rep.status == "fail"
    assert "proven squarefree" in rep.rhs


def test_counters_on_their_own():
    p = (X - 1) * (X + 2) * X
    assert (sturm.descartes_real_roots(p) == sturm.chain_real_roots(p)
            == sturm_real_roots(p) == SturmReport(3, 3, True))
    with pytest.raises(ValueError, match="proven squarefree"):
        sturm.descartes_real_roots(X ** 2)
    assert sturm.chain_real_roots(X ** 2) == SturmReport(2, 1, False)
    for count in (sturm.descartes_real_roots, sturm.chain_real_roots):
        assert count(ExactPoly.const(3)) == SturmReport(0, 0, True)
        with pytest.raises(ValueError):
            count(ExactPoly.zero())
