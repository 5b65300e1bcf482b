"""Counting the distinct real roots of a univariate polynomial.

The coefficients are first made a primitive integer list f.  A modular
test then picks the method.  When q = 2^61 - 1 (a Mersenne prime) does
not divide lc(f) and gcd(f, f') over GF(q) is a constant, f is squarefree
over Q: a repeated factor of f would keep its degree mod q and divide that
gcd.  Such an f has [f(0) = 0] + pos(f(x)) + pos(f(-x)) real roots, where
pos counts positive roots by Descartes' rule of signs with continued
fractions (Vincent-Akritas-Strzebonski; Akritas and Strzebonski, 2005).
A piece with at most one sign variation has that many positive roots.
A piece with more is split at s = 2^e: the roots above s are those of
f(x + s) and the roots below s those of (x + 1)^d f(s / (x + 1)), a
Taylor shift by 1 of f(s x) and of its reversal.  The pieces stay close
to f's own size.  Each new piece starts at s = 1.  While Budan's theorem
shows no root below s, the piece moves on to f(x + s) and s doubles, so
a lower bound B on the positive roots takes about log2(B) steps.  The
local-max quadratic bound, computed
from the coefficients alone, falls far below the smallest root on the
pieces of R_n(x)/x, whose roots span many orders of magnitude; shifts by
1 then take exponentially many steps in n.

Every other input (a repeated factor, or a q that divides lc(f) or the
discriminant) gets the Sturm chain: the number of distinct real roots
over (-inf, +inf) equals the drop in sign variations of the chain between
the two ends.  Chain elements are stripped to primitive integer
polynomials (positive content only, so signs survive) to keep the
coefficients small.  Remainders are taken by pseudo-division with a
positive scale factor, so they stay in the integers: each one is a positive
multiple of the rational remainder, and after stripping the content the
chain is the one rational division gives (Collins, J. ACM 14, 1967).

`descartes_real_roots` and `chain_real_roots` are the two counters, each on
its own; `sturm_real_roots` dispatches between them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate

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


_Q = (1 << 61) - 1


def _rem_mod_q(a: list[int], b: list[int]) -> list[int]:
    """The remainder of a by b over GF(q) (dense ascending, b[-1] != 0)."""
    r = a[:]
    inv = pow(b[-1], -1, _Q)
    top = len(b) - 1
    for k in range(len(r) - 1, top - 1, -1):
        c = r.pop() * inv % _Q
        if c:
            for j, bc in enumerate(b[:top], k - top):
                r[j] = (r[j] - c * bc) % _Q
    return _trim(r)


def _squarefree_mod_q(f: list[int]) -> bool:
    """True when q does not divide lc(f) and gcd(f, f') over GF(q) is a
    constant, which proves the integer polynomial f squarefree over Q."""
    if f[-1] % _Q == 0:
        return False
    a = [c % _Q for c in f]
    b = [k * c % _Q for k, c in enumerate(f)][1:]  # lc(b) = deg(f) lc(f) != 0
    while len(b) > 1:
        a, b = b, _rem_mod_q(a, b)
        if not b:
            return False
    return True


def _variations(coeffs: list[int]) -> int:
    """Sign changes along a coefficient list, zeros skipped."""
    signs = [c > 0 for c in coeffs if c]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def _shift_one(f: list[int]) -> list[int]:
    """f(x + 1) (dense ascending): Horner's Taylor shift, one running sum
    per pass."""
    g = f[::-1]
    for top in range(len(g), 1, -1):
        g[:top] = accumulate(g[:top])
    return g[::-1]


def _positive_roots(f: list[int]) -> int:
    """The positive roots of a squarefree integer polynomial (dense
    ascending, f(0) != 0), by continued fractions.  A piece with at most
    one sign variation has that many positive roots (Descartes).  A piece
    with more is split at s = 2^e into f(x + s) for the roots above s and
    (x + 1)^d f(s / (x + 1)) for those in (0, s).  By Budan's theorem the
    variations the first piece loses bound the roots in (0, s] with an
    even excess; when it loses none, s is a lower bound on the positive
    roots, and the search moves on from s with the step doubled."""
    count = 0
    todo = [(f, 0)]
    while todo:
        f, e = todo.pop()
        v = _variations(f)
        if v < 2:
            count += v
            continue
        scaled = [c << e * k for k, c in enumerate(f)]  # f(s x)
        past = [c >> e * k for k, c in enumerate(_shift_one(scaled))]
        at_s = past[0] == 0
        if at_s:
            count += 1
            past = past[1:]
        below = v - _variations(past) - at_s
        if not below:
            todo.append((past, e + 1))
            continue
        todo.append((past, 0))
        if below == 1:
            count += 1
        else:
            inside = _shift_one(scaled[::-1])
            todo.append((inside[1:] if at_s else inside, 0))
    return count


def _coefficients(p: ExactPoly) -> list[int]:
    """The primitive integer coefficient list of a nonzero univariate
    polynomial in x, lowest degree first."""
    coeffs = _trim(list(p.univariate_coeffs("x")))
    if not coeffs:
        raise ValueError("zero polynomial has no Sturm chain")
    return _primitive(coeffs)


def _descartes_count(f: list[int]) -> SturmReport:
    degree = len(f) - 1
    at_zero = f[0] == 0
    if at_zero:
        f = f[1:]
    mirror = [-c if k % 2 else c for k, c in enumerate(f)]
    return SturmReport(degree, at_zero + _positive_roots(f)
                       + _positive_roots(mirror), True)


def _chain_count(f: list[int]) -> SturmReport:
    if len(f) == 1:
        return SturmReport(0, 0, True)
    chain = _chain(f)
    at_pos = [1 if g[-1] > 0 else -1 for g in chain]
    at_neg = [s if (len(g) - 1) % 2 == 0 else -s for g, s in zip(chain, at_pos)]
    distinct = _variations(at_neg) - _variations(at_pos)
    return SturmReport(len(f) - 1, distinct, len(chain[-1]) == 1)


def descartes_real_roots(p: ExactPoly) -> SturmReport:
    """The distinct real roots of p by Descartes' rule with continued
    fractions.  Raises ValueError unless the modular test proves p
    squarefree."""
    f = _coefficients(p)
    if len(f) > 1 and not _squarefree_mod_q(f):
        raise ValueError("the Descartes count needs an input proven squarefree")
    return _descartes_count(f)


def chain_real_roots(p: ExactPoly) -> SturmReport:
    """The distinct real roots of p by its Sturm chain, which also tells
    whether p is squarefree."""
    return _chain_count(_coefficients(p))


def sturm_real_roots(p: ExactPoly) -> SturmReport:
    """The distinct real roots of a nonzero univariate polynomial in x: the
    Descartes count when the modular test proves it squarefree, else the
    chain count."""
    f = _coefficients(p)
    if len(f) > 1 and _squarefree_mod_q(f):
        return _descartes_count(f)
    return _chain_count(f)
