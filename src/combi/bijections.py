"""Insertion bijections onto pairs of perfect matchings.

phi_map sends a decorated permutation on [n] with k hatted entries to a
triple (first, second, index_set) with first a matching of [2k], second a
matching of [2n-2k]; psi_map does the same for signed permutations with
k = bar (the number of entries lying in blocks that end negatively).

One insertion rule serves both maps and the certificate.  `_slots` lists,
once per word, the slot before each entry: the matching the entry belongs
to, whether the split block is marked, and p.  `_insert` puts m in one
slot: at the end it appends a fresh block to a matching, before an entry it
splits the p-th marked or unmarked block of the slot's matching, straight
or crossed.  `_phi_rule` and `_psi_rule` hold only what differs: which
entries belong to the first matching (the hatted ones; the ones in blocks
that end negatively, where the marking flips), and how a child word shows
the slot of m and the straight or crossed split.  Each map replays the
object's construction history through `_replay`, re-inserting the values
in increasing order.

Bijectivity is certified exhaustively, not by an inverse algorithm.
verify_bijection walks the domain's insertion tree in `objects`, the one
`generate` walks (a generating tree of J. West, Discrete Math. 146 (1995)).
The same rule gives each child its image state, and at every leaf it checks
  - that the image is new (injectivity),
  - the weight: asc (phi) or des_B (psi) of the leaf word against the
    even-larger (el) and odd-larger (ol) block counts of its matchings,
  - the index set: the hatted values (phi), or the magnitudes in the blocks
    that end negatively (psi).
The weight and the index set are computed from the leaf word and the leaf
matchings, never from the rule.  Afterwards the images with k recorded
indices are counted against C(n,k)(2k-1)!!(2n-2k-1)!!.

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
from operator import itemgetter

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


# ---------------------------------------------------------------------------
# the insertion rule, shared by phi and psi
# ---------------------------------------------------------------------------

# the state of the empty word: no blocks, nothing recorded
_EMPTY = ((), (), 0)


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


def _slots(values, first, flip: bool):
    """The slot before each entry of a word, as (in_first, marked, p).  The
    entry's flag in `first` names the matching the slot splits.  The split
    block is marked iff the slot is an ascent (from a virtual 0 in front),
    negated in the first matching when `flip`.  p counts the slots up to
    this one that split the same matching with the same marking."""
    counts = [0, 0, 0, 0]
    out = []
    prev = 0
    for v, f in zip(values, first):
        marked = (prev < v) != (flip and f)
        kind = 2 * f + marked
        counts[kind] += 1
        out.append((f, marked, counts[kind]))
        prev = v
    return out


def _insert(state, m: int, slots, index: int, first: bool, straight: bool):
    """Insert m at `index` of a word with these slots.  At the end, append a
    fresh top block to the first matching if `first`, else to the second;
    before an entry, split the p-th marked or unmarked block of that slot's
    matching, straight or crossed.  An insertion into the first matching
    records m."""
    s1, s2, iset = state
    if index < len(slots):
        first, marked, p = slots[index]
    blocks = s1 if first else s2
    lo = 2 * len(blocks) + 1
    if index < len(slots):
        blocks = _split_block(blocks, marked, p, lo, straight)
    else:
        blocks += ((lo, lo + 1),)
    if first:
        return blocks, s2, iset | 1 << m
    return s1, blocks, iset


def _replay(rule, word, size) -> MatchingTriple:
    """The triple of `word`: insert 1, ..., n in turn, the entries of size
    <= m making the child of the entries of size < m."""
    state = _EMPTY
    parent = ()
    for m in range(1, len(word) + 1):
        child = tuple(e for e in word if size(e) <= m)
        slots, ((_, i, first, straight),) = rule(parent, m, (child,))
        state = _insert(state, m, slots, i, first, straight)
        parent = child
    return _triple(state, len(word))


# ---------------------------------------------------------------------------
# phi: decorated permutations
# ---------------------------------------------------------------------------

def _phi_rule(word, m: int, children):
    """The hatted entries of `word` belong to the first matching.  Each
    child gives the index of m, its hat (read only at the end: before an
    entry, m copies that entry's hat), and a straight split unless m is
    circled."""
    slots = _slots([v for v, _, _ in word], [h for _, h, _ in word], False)
    return slots, [(child, i, child[i][1], not child[i][2])
                   for child in children
                   for i in (next(zip(*child)).index(m),)]


def phi_map(w: DecoratedPermutation) -> MatchingTriple:
    if not validate(w):
        raise ValueError(f"invalid decorated permutation: {w!r}")
    return _replay(_phi_rule, w.entries, itemgetter(0))


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

def _psi_rule(word, m: int, children):
    """The entries in blocks of `word` that end negatively belong to the
    first matching, where an ascent splits an unmarked block.  Each child
    gives the index of m or -m, and a straight split unless it is -m, which
    at the end appends to the first matching."""
    first = [blk[-1] < 0 for blk in signed_blocks(word) for _ in blk]
    return _slots(word, first, True), [
        (child, i, child[i] < 0, child[i] > 0)
        for child in children
        for i in (child.index(m) if m in child else child.index(-m),)]


def psi_map(pi: SignedPermutation) -> MatchingTriple:
    if not validate(pi):
        raise ValueError(f"invalid signed permutation: {pi!r}")
    return _replay(_psi_rule, pi.word, abs)


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
    nodes over the domain's tree in `objects`, with m inserted by the map's
    rule.  The tree and the rule are looked up now, so that a replaced one
    reaches this walk as it reaches generate and the maps."""
    if map_id == "phi":
        kind, cls, weighs, rule = (DecoratedPermutation, "decorated",
                                   _phi_weighs, _phi_rule)
    else:
        kind, cls, weighs, rule = (SignedPermutation, "signed",
                                   _psi_weighs, _psi_rule)
    tree = objects.class_functions(cls)[0]

    def children(node, m):
        word, state = node
        slots, reads = rule(word, m, tree(word, m))
        return [(child, _insert(state, m, slots, i, first, straight))
                for child, i, first, straight in reads]
    return kind, weighs, children


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
    if n < 0:
        raise ValueError("n must be >= 0")
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
