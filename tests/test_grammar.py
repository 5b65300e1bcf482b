import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from combi.poly import CapacityError, ExactPoly, X
from combi.grammar import (CYCLE_GRAMMAR, EULERIAN_GRAMMAR, Grammar, derive,
                           fix_cycle_cap_polynomial, from_xyq,
                           lemma1_sides, lemma2_sides, to_xyq)
from combi import families
from combi.verify import run_check

A, B, C, D, Q = (ExactPoly.var(v) for v in ("a", "b", "c", "d", "q"))


def test_single_rules():
    assert derive(CYCLE_GRAMMAR, A) == Q * A * B ** 2
    assert derive(CYCLE_GRAMMAR, B ** 2) == 2 * C ** 2 * D ** 2
    assert derive(CYCLE_GRAMMAR, C ** 2 * D ** 2) == \
        2 * (C ** 2 * D ** 4 + C ** 4 * D ** 2)
    # general power rule on a negative exponent
    assert derive(CYCLE_GRAMMAR, B ** -1) == -(B ** -3) * C ** 2 * D ** 2


def test_constants_and_unknown_letters():
    assert derive(CYCLE_GRAMMAR, Q * A) == Q ** 2 * A * B ** 2
    assert derive(CYCLE_GRAMMAR, ExactPoly.const(7)) == 0
    with pytest.raises(ValueError):
        derive(CYCLE_GRAMMAR, X)
    with pytest.raises(ValueError):
        Grammar({"a": X})


def test_rule_in_a_letter_outside_the_alphabet_is_refused():
    # ExactPoly.var("z") raised KeyError: 'z' before the grammar saw it
    with pytest.raises(ValueError, match="alphabet is"):
        Grammar({"a": ExactPoly.var("z")})


def test_linearity():
    u, v = A * B ** 2, C ** 3
    assert derive(CYCLE_GRAMMAR, u + v) == \
        derive(CYCLE_GRAMMAR, u) + derive(CYCLE_GRAMMAR, v)


@given(st.integers(-2, 3), st.integers(-2, 3), st.integers(0, 3),
       st.integers(0, 3))
def test_leibniz_on_monomials(eb, ec, ed, ea):
    u = ExactPoly.monomial(1, {"b": eb, "c": ec})
    v = ExactPoly.monomial(1, {"d": ed, "a": ea})
    assert derive(CYCLE_GRAMMAR, u * v) == \
        derive(CYCLE_GRAMMAR, u) * v + u * derive(CYCLE_GRAMMAR, v)


_GRAMMARS = pytest.mark.parametrize(
    "g", [CYCLE_GRAMMAR, EULERIAN_GRAMMAR], ids=["cycle", "eulerian"])


def _grammar_poly(g):
    """Polynomials in the grammar's letters, exponents -2..3."""
    letters = sorted(g.rules) + sorted(g.constants)
    monomial = st.builds(
        lambda c, es: ExactPoly.monomial(c, dict(zip(letters, es))),
        st.integers(-3, 3), st.tuples(*[st.integers(-2, 3)] * len(letters)))
    return st.lists(monomial, max_size=4).map(
        lambda ms: sum(ms, ExactPoly.zero()))


@_GRAMMARS
@settings(deadline=None, max_examples=40)
@given(st.data())
def test_derive_is_linear(g, data):
    f, h = data.draw(_grammar_poly(g)), data.draw(_grammar_poly(g))
    s, t = data.draw(st.integers(-3, 3)), data.draw(st.integers(-3, 3))
    assert derive(g, s * f + t * h) == s * derive(g, f) + t * derive(g, h)
    assert derive(g, s * f + t * h, 2) == \
        s * derive(g, f, 2) + t * derive(g, h, 2)


@_GRAMMARS
@settings(deadline=None, max_examples=40)
@given(st.data())
def test_derive_obeys_leibniz(g, data):
    f, h = data.draw(_grammar_poly(g)), data.draw(_grammar_poly(g))
    assert derive(g, f * h) == derive(g, f) * h + f * derive(g, h)


def test_lemma1_small():
    assert run_check("grammar-lemma1", 1).status == "pass"
    assert derive(CYCLE_GRAMMAR, A, 2) == \
        A * (Q ** 2 * B ** 4 + 2 * Q * C ** 2 * D ** 2)
    for n in range(1, 6):
        assert run_check("grammar-lemma1", n).status == "pass"
    with pytest.raises(CapacityError):
        lemma1_sides(9)


def test_lemma2_small():
    assert derive(EULERIAN_GRAMMAR, B ** 2, 1) == 2 * C ** 2 * D ** 2
    assert derive(EULERIAN_GRAMMAR, B ** 2, 2) == \
        4 * (C ** 2 * D ** 4 + C ** 4 * D ** 2)
    for n in (1, 2, 4, 6):
        assert run_check("grammar-lemma2", n).status == "pass"
    # row 4 of the Eulerian triangle is 1, 11, 11, 1
    assert families.eulerian_row(4) == (1, 11, 11, 1)
    with pytest.raises(CapacityError):
        lemma2_sides(11)


@pytest.mark.parametrize("n", [True, 1.5, 2.0], ids=["bool", "float",
                                                   "integral-float"])
def test_orders_that_are_not_ints_rejected(n):
    # derive ran one step for True; 1.5 and 2.0 raised raw TypeErrors
    for fn in (lambda n: derive(CYCLE_GRAMMAR, A, n), lemma1_sides,
               lemma2_sides):
        with pytest.raises(ValueError, match="^n must be an int, got "):
            fn(n)
    with pytest.raises(ValueError, match="^n must be >= 0$"):
        derive(CYCLE_GRAMMAR, A, -1)
    with pytest.raises(ValueError, match="^n must be >= 1$"):
        lemma1_sides(0)


@pytest.mark.parametrize("n,match", [(-1, "^n must be >= 0$"),
                                     (True, "^n must be an int, got True$")],
                         ids=["negative", "bool"])
def test_from_xyq_checks_n(n, match):
    # -1 gave a*c^2*d^-4, and True was taken as 1
    with pytest.raises(ValueError, match=match):
        from_xyq(X, n)


def test_substitution_matches_p_polynomials():
    for n in range(1, 6):
        assert fix_cycle_cap_polynomial(n) == families.p_poly(n)


def test_to_xyq_rejects_odd_exponents():
    with pytest.raises(ValueError):
        to_xyq(B)
