"""Sturm-chain real-root counting with fraction-free integer remainders.

Only distinct-root *counting* is provided: the number of distinct real
roots over (-inf, +inf) equals the drop in sign variations of the Sturm
chain between the two ends.  Chain elements are stripped to primitive
integer polynomials (positive content only, so signs survive) to keep the
coefficients small.  Remainders are taken by pseudo-division with a
positive scale factor, so they stay in the integers: each one is a positive
multiple of the rational remainder, and after stripping the content the
chain is the one rational division gives (Collins, J. ACM 14, 1967).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .poly import ExactPoly


@dataclass(frozen=True)
class SturmReport:
    degree: int
    distinct_real_roots: int
    is_squarefree: bool

    @property
    def all_real_simple(self) -> bool:
        return self.is_squarefree and self.distinct_real_roots == self.degree


def _trim(f: list) -> list:
    while f and f[-1] == 0:
        f.pop()
    return f


def _primitive(f: list) -> list[int]:
    """Scale to a primitive integer polynomial, preserving signs."""
    if not all(type(c) is int for c in f):
        den = math.lcm(*(c.denominator for c in f))
        f = [int(c * den) for c in f]
    g = math.gcd(*f)
    return [c // g for c in f]


def _rem(f: list[int], g: list[int]) -> list[int]:
    """A positive integer multiple of the remainder of f by g (dense
    ascending int lists): each step is r <- |lc(g)| r - sign(lc(g)) lc(r)
    x^k g, which cancels the top term of r without leaving the integers."""
    r = f
    scale, sign = abs(g[-1]), (1 if g[-1] > 0 else -1)
    while len(r) >= len(g):
        k = len(r) - len(g)
        factor = sign * r[-1]
        r = _trim([scale * c for c in r[:k]]
                  + [scale * c - factor * gc for c, gc in zip(r[k:], g)])
    return r


def _chain(coeffs: list) -> list[list[int]]:
    """Primitive Sturm chain of a dense ascending coefficient list of
    degree >= 1: f, f', then minus each remainder, until one divides."""
    chain = [_primitive(coeffs),
             _primitive([c * k for k, c in enumerate(coeffs)][1:])]
    while len(chain[-1]) > 1:
        r = _rem(chain[-2], chain[-1])
        if not r:
            break
        chain.append(_primitive([-c for c in r]))
    return chain


def sturm_real_roots(p: ExactPoly) -> SturmReport:
    """Count distinct real roots of a nonzero univariate polynomial in x."""
    coeffs = _trim(list(p.univariate_coeffs("x")))
    if not coeffs:
        raise ValueError("zero polynomial has no Sturm chain")
    degree = len(coeffs) - 1
    if degree == 0:
        return SturmReport(0, 0, True)

    chain = _chain(coeffs)

    def variations(signs: list[int]) -> int:
        flips = 0
        for a, b in zip(signs, signs[1:]):
            if a * b < 0:
                flips += 1
        return flips

    at_pos = [1 if f[-1] > 0 else -1 for f in chain]
    at_neg = [s if (len(f) - 1) % 2 == 0 else -s for f, s in zip(chain, at_pos)]
    distinct = variations(at_neg) - variations(at_pos)
    squarefree = len(chain[-1]) == 1
    return SturmReport(degree, distinct, squarefree)
