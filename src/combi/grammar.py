"""Formal-derivative calculus over substitution grammars.

A grammar maps letters to Laurent polynomials in the letters; its
derivative D is the unique linear Leibniz operator with D(letter) = rule
and D(constant) = 0.  On a monomial the general power rule applies, so
negative exponents need no special casing: D(b^-1) = -b^-2 * D(b).

Two grammars are built in: the one whose n-th derivative of `a` encodes
cycle-form Stirling permutations by (cycles, fixed points, cycle ascent
plateaus), and its a-free restriction whose derivatives of b^2 produce the
Eulerian numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .poly import (VAR_INDEX, VARS, CapacityError, ExactPoly, divexact,
                   poly_dot, poly_sum)
from . import families
from .objects import require_size


@dataclass(frozen=True)
class Grammar:
    rules: dict[str, ExactPoly]
    constants: frozenset[str] = field(default_factory=frozenset)

    def __post_init__(self):
        allowed = set(self.rules) | set(self.constants)
        for letter, value in self.rules.items():
            stray = value.variables() - allowed
            if stray:
                raise ValueError(f"rule for {letter} uses unknown letters {stray}")


def _letters():
    return (ExactPoly.var(v) for v in ("a", "b", "c", "d", "q"))


def _cycle_grammar() -> Grammar:
    a, b, c, d, q = _letters()
    return Grammar({"a": q * a * b ** 2,
                    "b": b ** -1 * c ** 2 * d ** 2,
                    "c": c * d ** 2,
                    "d": c ** 2 * d}, frozenset(("q",)))


CYCLE_GRAMMAR = _cycle_grammar()
EULERIAN_GRAMMAR = Grammar({v: rule for v, rule in CYCLE_GRAMMAR.rules.items()
                            if v != "a"})


def derive(g: Grammar, expr: ExactPoly, n: int = 1) -> ExactPoly:
    """Apply the grammar derivative n times."""
    stray = expr.variables() - set(g.rules) - set(g.constants)
    if stray:
        raise ValueError(f"expression uses letters outside the grammar: {stray}")
    require_size(n)
    rules = [(v, g.rules[v]) for v in VARS if v in g.rules]
    for _ in range(n):
        # D is the derivation sum_u D(u) d/du, by the Leibniz and power rules
        expr = poly_dot((1, expr.diff(v), rule) for v, rule in rules)
    return expr


def cycle_derivative_polynomial(n: int) -> ExactPoly:
    """D^n(a) of the cycle grammar."""
    return derive(CYCLE_GRAMMAR, ExactPoly.var("a"), n)


def to_xyq(p: ExactPoly) -> ExactPoly:
    """Substitute c^2 -> x, b^2 -> y, d -> 1 into an a-free polynomial whose
    b- and c-exponents are even and nonnegative."""
    ia, ib, ic, iq = (VAR_INDEX[v] for v in ("a", "b", "c", "q"))
    terms = p.items()
    for exp, _ in terms:
        if exp[ia] or exp[ib] % 2 or exp[ic] % 2 or exp[ib] < 0 or exp[ic] < 0:
            raise ValueError("substitution needs even nonnegative b-, c-exponents")
    return poly_sum(ExactPoly.monomial(coeff, {
        "x": exp[ic] // 2, "y": exp[ib] // 2, "q": exp[iq]})
        for exp, coeff in terms)


def fix_cycle_cap_polynomial(n: int) -> ExactPoly:
    """The (cap, fix, cycles)-distribution polynomial in x, y, q obtained
    from D^n(a)/a by the substitution c^2=x, b^2=y, d=1."""
    return to_xyq(divexact(cycle_derivative_polynomial(n), ExactPoly.var("a")))


def from_xyq(p: ExactPoly, n: int) -> ExactPoly:
    """a times p with x^cap y^fix q^cyc -> q^cyc b^(2 fix) c^(2 cap)
    d^(2n - 2 fix - 2 cap): a (cap, fix, cycles)-distribution of objects of
    size n in the letters of the cycle grammar."""
    require_size(n)
    ix, iy, iq = (VAR_INDEX[v] for v in ("x", "y", "q"))
    return poly_sum(ExactPoly.monomial(count, {
        "a": 1, "q": exp[iq], "b": 2 * exp[iy], "c": 2 * exp[ix],
        "d": 2 * n - 2 * exp[iy] - 2 * exp[ix]}) for exp, count in p.items())


def eulerian_encoding(n: int) -> ExactPoly:
    """2^n * sum_k <n,k> c^(2k+2) d^(2n-2k)."""
    return poly_sum(ExactPoly.monomial(e * 2 ** n,
                                       {"c": 2 * k + 2, "d": 2 * n - 2 * k})
                    for k, e in enumerate(families.eulerian_row(n)))


def lemma1_sides(n: int) -> tuple[ExactPoly, ExactPoly]:
    """D^n(a) and the exhaustive cycle-Stirling encoding it should equal,
    the enumeration refused past the cap before any derivative is taken."""
    require_size(n, 1)
    encoding = from_xyq(families.stat_distribution(
        "stirling2", n, (("cap", "x"), ("fix", "y"), ("cyc", "q"))), n)
    return cycle_derivative_polynomial(n), encoding


def lemma2_sides(n: int) -> tuple[ExactPoly, ExactPoly]:
    """D^n(b^2) and 2^n * sum_k <n,k> c^(2k+2) d^(2n-2k)."""
    require_size(n, 1)
    if n > 10:
        raise CapacityError(f"lemma2 derivatives stop at n=10, got {n}")
    return (derive(EULERIAN_GRAMMAR, ExactPoly.var("b") ** 2, n),
            eulerian_encoding(n))
