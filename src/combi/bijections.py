"""Insertion bijections onto pairs of perfect matchings.

phi_map sends a decorated permutation on [n] with k hatted entries to a
triple (first, second, index_set) with first a matching of [2k], second a
matching of [2n-2k]; psi_map does the same for signed permutations with
k = bar (the number of entries lying in blocks that end negatively).

Both maps replay the object's unique construction history: values are
peeled off the top and re-inserted in increasing order, each insertion
appending a fresh block or splitting the p-th marked/unmarked block of the
appropriate matching.  Bijectivity is certified exhaustively
(injectivity + per-k image cardinality), not by an inverse algorithm.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

from .objects import (CapacityError, DecoratedPermutation, PerfectMatching,
                      SignedPermutation, double_factorial, signed_blocks,
                      stats_decorated, stats_matching, stats_signed, validate,
                      encode)

_DOMAIN_CAP = 700_000  # largest 2^n * n! we are willing to enumerate


@dataclass(frozen=True)
class MatchingTriple:
    first: PerfectMatching
    second: PerfectMatching
    index_set: frozenset[int]
    n: int
    k: int


@dataclass(frozen=True)
class BijectionReport:
    n: int
    injective: bool
    image_complete: bool
    weight_preserving: bool
    counterexample: tuple[str, str] | None = None

    @property
    def all_ok(self) -> bool:
        return self.injective and self.image_complete and self.weight_preserving


def encode_triple(t: MatchingTriple) -> str:
    iset = ",".join(str(v) for v in sorted(t.index_set))
    return (f"[{encode(t.first)}] [{encode(t.second)}] {{{iset}}}")


def _split_block(blocks, use_marked: bool, p: int, lo: int, straight: bool):
    """Replace the p-th marked (even-larger) or unmarked block (a, b), in
    standard-form order, by (a, lo),(b, lo+1) when straight else
    (a, lo+1),(b, lo); returns the re-standardized block tuple."""
    count = 0
    for j, (a, b) in enumerate(blocks):
        if (b % 2 == 0) == use_marked:
            count += 1
            if count == p:
                pair = ((a, lo), (b, lo + 1)) if straight else ((a, lo + 1), (b, lo))
                return tuple(sorted(blocks[:j] + blocks[j + 1:] + pair))
    raise ValueError(f"no {p}-th {'marked' if use_marked else 'unmarked'} block")


def _base(first: bool):
    """The image of the one-entry word: a hatted (phi) or negative (psi) 1
    goes to the first matching, any other 1 to the second."""
    if first:
        return (((1, 2),), (), frozenset((1,)))
    return ((), ((1, 2),), frozenset())


# ---------------------------------------------------------------------------
# phi: decorated permutations
# ---------------------------------------------------------------------------

def _phi_step(word, state, m: int, index: int, hat: bool, circle: bool):
    """Insert value m into `word` (the entries with values < m) at `index`;
    index == len(word) is the append case."""
    s1, s2, iset = state
    k = len(s1)
    if index == len(word):
        if hat:
            return (s1 + ((2 * k + 1, 2 * k + 2),), s2, iset | frozenset((m,)))
        t = 2 * len(s2)
        return (s1, s2 + ((t + 1, t + 2),), iset)

    succ = word[index]
    pred_val = word[index - 1][0] if index else 0
    ascent = pred_val < succ[0]
    p = 0
    for j in range(index + 1):
        if word[j][1] != succ[1]:
            continue
        pv = word[j - 1][0] if j else 0
        if (pv < word[j][0]) == ascent:
            p += 1
    if hat:
        s1 = _split_block(s1, ascent, p, 2 * k + 1, not circle)
        return (s1, s2, iset | frozenset((m,)))
    s2 = _split_block(s2, ascent, p, 2 * len(s2) + 1, not circle)
    return (s1, s2, iset)


def phi_map(w: DecoratedPermutation) -> MatchingTriple:
    if not validate(w):
        raise ValueError(f"invalid decorated permutation: {w!r}")
    entries = w.entries
    n = len(entries)
    pos = {v: i for i, (v, _, _) in enumerate(entries)}
    by_value = {v: e for e in entries for v in (e[0],)}
    state = _base(by_value[1][1])
    for m in range(2, n + 1):
        word = tuple(e for e in entries if e[0] < m)
        index = sum(1 for e in word if pos[e[0]] < pos[m])
        _, hat, circ = by_value[m]
        state = _phi_step(word, state, m, index, hat, circ)
    s1, s2, iset = state
    return MatchingTriple(PerfectMatching(s1), PerfectMatching(s2),
                          iset, n, len(iset))


def _phi_domain(n: int):
    """DFS over the construction tree, yielding (entries, state) leaves."""
    def rec(word, state, m):
        if m > n:
            yield word, state
            return
        for idx in range(len(word)):
            h = word[idx][1]
            for circ in (False, True):
                child = word[:idx] + ((m, h, circ),) + word[idx:]
                yield from rec(child, _phi_step(word, state, m, idx, h, circ), m + 1)
        for h in (False, True):
            child = word + ((m, h, False),)
            yield from rec(child, _phi_step(word, state, m, len(word), h, False), m + 1)

    for h in (False, True):
        yield from rec(((1, h, False),), _base(h), 2)


# ---------------------------------------------------------------------------
# psi: signed permutations
# ---------------------------------------------------------------------------

def _bar_entries(word) -> frozenset[int]:
    return frozenset(v for blk in signed_blocks(word) if blk[-1] < 0 for v in blk)


def _psi_step(word, state, m: int, index: int, negative: bool, bar=None):
    """Insert m (or -m) into the signed word at `index`."""
    t1, t2, iset = state
    k = len(t1)
    if index == len(word):
        if negative:
            return (t1 + ((2 * k + 1, 2 * k + 2),), t2, iset | frozenset((m,)))
        t = 2 * len(t2)
        return (t1, t2 + ((t + 1, t + 2),), iset)

    if bar is None:
        bar = _bar_entries(word)
    succ = word[index]
    pred = word[index - 1] if index else 0
    ascent = pred < succ
    in_bar = succ in bar
    p = 0
    for j in range(index + 1):
        if (word[j] in bar) != in_bar:
            continue
        pv = word[j - 1] if j else 0
        if (pv < word[j]) == ascent:
            p += 1
    if in_bar:
        # ascent-top -> unmarked block, descent-bottom -> marked block
        t1 = _split_block(t1, not ascent, p, 2 * k + 1, not negative)
        return (t1, t2, iset | frozenset((m,)))
    t2 = _split_block(t2, ascent, p, 2 * len(t2) + 1, not negative)
    return (t1, t2, iset)


def psi_map(pi: SignedPermutation) -> MatchingTriple:
    if not validate(pi):
        raise ValueError(f"invalid signed permutation: {pi!r}")
    entries = pi.word
    n = len(entries)
    pos = {abs(v): i for i, v in enumerate(entries)}
    signed = {abs(v): v for v in entries}
    state = _base(signed[1] < 0)
    for m in range(2, n + 1):
        word = tuple(v for v in entries if abs(v) < m)
        index = sum(1 for v in word if pos[abs(v)] < pos[m])
        state = _psi_step(word, state, m, index, signed[m] < 0)
    t1, t2, iset = state
    return MatchingTriple(PerfectMatching(t1), PerfectMatching(t2),
                          iset, n, len(iset))


def _psi_domain(n: int):
    def rec(word, state, m):
        if m > n:
            yield word, state
            return
        bar = _bar_entries(word)
        for idx in range(len(word)):
            for neg in (False, True):
                val = -m if neg else m
                child = word[:idx] + (val,) + word[idx:]
                yield from rec(child, _psi_step(word, state, m, idx, neg, bar), m + 1)
        for neg in (False, True):
            val = -m if neg else m
            yield from rec(word + (val,), _psi_step(word, state, m, len(word), neg),
                           m + 1)

    for neg in (False, True):
        yield from rec(((-1 if neg else 1),), _base(neg), 2)


# ---------------------------------------------------------------------------
# exhaustive certification
# ---------------------------------------------------------------------------

def verify_bijection(map_id: str, n: int) -> BijectionReport:
    """Apply the map to the whole domain: check injectivity, per-k image
    cardinality, and weight preservation on every object."""
    if map_id not in ("phi", "psi"):
        raise ValueError(f"unknown map {map_id!r}")
    if n < 1:
        raise ValueError("n must be >= 1")
    domain_size = 2 ** n * math.factorial(n)
    if domain_size > _DOMAIN_CAP:
        raise CapacityError(f"domain has {domain_size} objects, cap is {_DOMAIN_CAP}")

    images = set()
    per_k = Counter()
    weight_ok = True
    injective = True
    counterexample = None

    for word, state in (_phi_domain(n) if map_id == "phi" else _psi_domain(n)):
        s1, s2, iset = state
        if map_id == "phi":
            obj = DecoratedPermutation(word)
            lhs = stats_decorated(obj)["asc"]
            rhs = (stats_matching(PerfectMatching(s1))["el"]
                   + stats_matching(PerfectMatching(s2))["el"])
        else:
            obj = SignedPermutation(word)
            lhs = stats_signed(obj)["des_B"]
            rhs = (stats_matching(PerfectMatching(s1))["el"]
                   + stats_matching(PerfectMatching(s2))["ol"])
        if weight_ok and lhs != rhs:
            weight_ok = False
            counterexample = (encode(obj), _encode_state(state))
        if state in images:
            if injective:
                injective = False
                counterexample = counterexample or (encode(obj),
                                                    _encode_state(state))
        else:
            images.add(state)
        per_k[len(iset)] += 1

    expected = {k: math.comb(n, k) * double_factorial(k) * double_factorial(n - k)
                for k in range(n + 1)}
    complete = injective and all(per_k.get(k, 0) == expected[k] for k in expected)
    if not complete and counterexample is None:
        counterexample = ("image cardinality mismatch",
                          repr({k: per_k.get(k, 0) for k in expected}))
    return BijectionReport(n, injective, complete, weight_ok, counterexample)


def _encode_state(state) -> str:
    s1, s2, iset = state
    return encode_triple(MatchingTriple(PerfectMatching(s1), PerfectMatching(s2),
                                        iset, 0, len(iset)))
