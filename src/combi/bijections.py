"""Insertion bijections onto pairs of perfect matchings.

phi_map sends a decorated permutation on [n] with k hatted entries to a
triple (first, second, index_set) with first a matching of [2k], second a
matching of [2n-2k]; psi_map does the same for signed permutations with
k = bar (the number of entries lying in blocks that end negatively).

Both maps replay the object's unique construction history: values are
peeled off the top and re-inserted in increasing order, each insertion
appending a fresh block or splitting the p-th marked/unmarked block of the
appropriate matching.

Bijectivity is certified exhaustively, not by an inverse algorithm.
verify_bijection walks the domain's insertion tree in `objects`, the one
`generate` walks (a generating tree of J. West, Discrete Math. 146 (1995)).
The same step rules as the maps give each node's image state from its
insertion slot, and at every leaf it checks
  - that the image is new (injectivity),
  - the weight: asc (phi) or des_B (psi) of the leaf word against the
    even-larger (el) and odd-larger (ol) block counts of its matchings,
  - the index set: the hatted values (phi), or the magnitudes in the blocks
    that end negatively (psi).
The weight and the index set are computed from the leaf word and the leaf
matchings, never from the step rules.  Afterwards the images with k
recorded indices are counted against C(n,k)(2k-1)!!(2n-2k-1)!!.

Inside the maps and the walk, an index set is an int bitmask (bit v set iff
v is recorded); it becomes a frozenset only in the results.
"""

from __future__ import annotations

import gc
import math
from bisect import insort
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass

from . import objects
from .objects import (CapacityError, DecoratedPermutation, PerfectMatching,
                      SignedPermutation, double_factorial, signed_blocks,
                      validate, encode)

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


def _triple(state, n: int) -> MatchingTriple:
    """The triple of a state; its index bitmask becomes a frozenset."""
    s1, s2, mask = state
    iset = frozenset(v for v in range(mask.bit_length()) if mask >> v & 1)
    return MatchingTriple(PerfectMatching(s1), PerfectMatching(s2),
                          iset, n, len(iset))


def _split_block(blocks, use_marked: bool, p: int, lo: int, straight: bool):
    """Replace the p-th marked (even-larger) or unmarked block (a, b), in
    standard-form order, by (a, lo),(b, lo+1) when straight else
    (a, lo+1),(b, lo); returns the re-standardized block tuple."""
    count = 0
    for j, (a, b) in enumerate(blocks):
        if (b % 2 == 0) == use_marked:
            count += 1
            if count == p:
                top_a, top_b = (lo, lo + 1) if straight else (lo + 1, lo)
                out = list(blocks)
                # a stays, so block j keeps its place; no block starts at b
                out[j] = (a, top_a)
                insort(out, (b, top_b))
                return tuple(out)
    raise ValueError(f"no {p}-th {'marked' if use_marked else 'unmarked'} block")


# the state of the empty word: no blocks, nothing recorded
_EMPTY = ((), (), 0)


def _append(state, m: int, first: bool):
    """Insert m at the end: a fresh top block in the first matching,
    recording m, or in the second."""
    s1, s2, iset = state
    if first:
        t = 2 * len(s1)
        return (s1 + ((t + 1, t + 2),), s2, iset | 1 << m)
    t = 2 * len(s2)
    return (s1, s2 + ((t + 1, t + 2),), iset)


# ---------------------------------------------------------------------------
# phi: decorated permutations
# ---------------------------------------------------------------------------

def _phi_step(word, state, m: int, index: int, hat: bool, circle: bool):
    """Insert value m into `word` (the entries with values < m) at `index`;
    index == len(word) is the append case."""
    if index == len(word):
        return _append(state, m, hat)
    s1, s2, iset = state
    succ, succ_hat, _ = word[index]
    ascent = (word[index - 1][0] if index else 0) < succ
    # p counts the slots up to `index` before an entry of the same hat class
    # that are of the same kind (ascent or descent) as the slot at `index`
    p = 0
    prev = 0
    for v, h, _ in word[:index + 1]:
        if h == succ_hat and (prev < v) == ascent:
            p += 1
        prev = v
    if hat:
        s1 = _split_block(s1, ascent, p, 2 * len(s1) + 1, not circle)
        return (s1, s2, iset | 1 << m)
    s2 = _split_block(s2, ascent, p, 2 * len(s2) + 1, not circle)
    return (s1, s2, iset)


def phi_map(w: DecoratedPermutation) -> MatchingTriple:
    if not validate(w):
        raise ValueError(f"invalid decorated permutation: {w!r}")
    entries = w.entries
    n = len(entries)
    pos = {v: i for i, (v, _, _) in enumerate(entries)}
    by_value = {v: e for e in entries for v in (e[0],)}
    state = _EMPTY
    for m in range(1, n + 1):
        word = tuple(e for e in entries if e[0] < m)
        index = sum(1 for e in word if pos[e[0]] < pos[m])
        _, hat, circ = by_value[m]
        state = _phi_step(word, state, m, index, hat, circ)
    return _triple(state, n)


def _phi_weighs(word, state) -> bool:
    """asc(word) = el(first) + el(second), and the index set is the set of
    hatted values."""
    s1, s2, iset = state
    asc = prev = hats = 0
    for v, h, _ in word:
        asc += prev < v  # the leading virtual 0 makes asc count from 1
        if h:
            hats |= 1 << v
        prev = v
    el = [b & 1 for _, b in s1 + s2].count(0)
    return asc == el and hats == iset


# ---------------------------------------------------------------------------
# psi: signed permutations
# ---------------------------------------------------------------------------

def _bar_entries(word) -> frozenset[int]:
    return frozenset(v for blk in signed_blocks(word) if blk[-1] < 0 for v in blk)


def _psi_step(word, state, m: int, index: int, negative: bool, bar=None):
    """Insert m (or -m) into the signed word at `index`."""
    if index == len(word):
        return _append(state, m, negative)
    t1, t2, iset = state
    if bar is None:
        bar = _bar_entries(word)
    succ = word[index]
    ascent = (word[index - 1] if index else 0) < succ
    in_bar = succ in bar
    p = 0
    prev = 0
    for v in word[:index + 1]:
        if (v in bar) == in_bar and (prev < v) == ascent:
            p += 1
        prev = v
    if in_bar:
        # ascent-top -> unmarked block, descent-bottom -> marked block
        t1 = _split_block(t1, not ascent, p, 2 * len(t1) + 1, not negative)
        return (t1, t2, iset | 1 << m)
    t2 = _split_block(t2, ascent, p, 2 * len(t2) + 1, not negative)
    return (t1, t2, iset)


def psi_map(pi: SignedPermutation) -> MatchingTriple:
    if not validate(pi):
        raise ValueError(f"invalid signed permutation: {pi!r}")
    entries = pi.word
    n = len(entries)
    pos = {abs(v): i for i, v in enumerate(entries)}
    signed = {abs(v): v for v in entries}
    state = _EMPTY
    for m in range(1, n + 1):
        word = tuple(v for v in entries if abs(v) < m)
        index = sum(1 for v in word if pos[abs(v)] < pos[m])
        state = _psi_step(word, state, m, index, signed[m] < 0)
    return _triple(state, n)


def _psi_weighs(word, state) -> bool:
    """des_B(word) = el(first) + ol(second), and the index set holds the
    magnitudes in the blocks that end negatively."""
    t1, t2, iset = state
    des = prev = 0
    for v in word:
        des += prev > v  # the leading virtual 0 counts a negative first entry
        prev = v
    # Scanning from the right, each right-to-left minimum of the magnitudes
    # ends a block, and the entries met until the next one belong to it.
    bars = 0
    low = len(word) + 1
    negative = False
    for v in reversed(word):
        a = -v if v < 0 else v
        if a < low:
            low = a
            negative = v < 0
        if negative:
            bars |= 1 << a
    el_ol = [b & 1 for _, b in t1].count(0) + [b & 1 for _, b in t2].count(1)
    return des == el_ol and bars == iset


# ---------------------------------------------------------------------------
# exhaustive certification
# ---------------------------------------------------------------------------

def _domain_tree(map_id: str):
    """The object type, the leaf check, and the children of (word, state)
    nodes over the domain's tree in `objects`, looked up now so that a
    replaced tree reaches generate and this walk alike.  Each child's slot
    is read off the child: the index of m (or -m) and the entry there."""
    if map_id == "phi":
        tree = objects.class_functions("decorated")[0]
        step = _phi_step

        def children(node, m):
            word, state = node
            return [(child, step(word, state, m, i, child[i][1], child[i][2]))
                    for child in tree(word, m)
                    for i in (next(zip(*child)).index(m),)]
        return DecoratedPermutation, _phi_weighs, children

    tree = objects.class_functions("signed")[0]
    step = _psi_step

    def children(node, m):
        word, state = node
        bar = _bar_entries(word)
        return [(child, step(word, state, m, i, child[i] < 0, bar))
                for child in tree(word, m)
                for i in (child.index(m) if m in child else child.index(-m),)]
    return SignedPermutation, _psi_weighs, children


@contextmanager
def _no_cycle_collection():
    """Pause the cyclic garbage collector.  The walk keeps an image per leaf
    and allocates tuples that never form a cycle, so the collector would
    only rescan them: that took about a quarter of phi's time at n = 7."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def verify_bijection(map_id: str, n: int) -> BijectionReport:
    """Walk the map's whole domain: check injectivity, weight and index set
    on every leaf, then the image count for each k."""
    if map_id not in ("phi", "psi"):
        raise ValueError(f"unknown map {map_id!r}")
    if n < 1:
        raise ValueError("n must be >= 1")
    domain_size = 2 ** n * math.factorial(n)
    if domain_size > _DOMAIN_CAP:
        raise CapacityError(f"domain has {domain_size} objects, cap is {_DOMAIN_CAP}")
    kind, weighs, children = _domain_tree(map_id)

    images = set()
    per_k = Counter()
    weight_ok = True
    injective = True
    counterexample = None
    with _no_cycle_collection():
        for word, state in objects.walk(children, n, ((), _EMPTY)):
            if weight_ok and not weighs(word, state):
                weight_ok = False
                counterexample = (encode(kind(word)), _encode_state(state))
            seen = len(images)  # one hash of the image, not two
            images.add(state)
            if injective and len(images) == seen:
                injective = False
                counterexample = counterexample or (encode(kind(word)),
                                                    _encode_state(state))
            per_k[state[2].bit_count()] += 1

    expected = {k: math.comb(n, k) * double_factorial(k) * double_factorial(n - k)
                for k in range(n + 1)}
    complete = injective and all(per_k.get(k, 0) == expected[k] for k in expected)
    if not complete and counterexample is None:
        counterexample = ("image cardinality mismatch",
                          repr({k: per_k.get(k, 0) for k in expected}))
    return BijectionReport(n, injective, complete, weight_ok, counterexample)


def _encode_state(state) -> str:
    return encode_triple(_triple(state, 0))
