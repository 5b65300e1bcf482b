"""Insertion bijections onto pairs of perfect matchings.

phi_map sends a decorated permutation on [n] with k hatted entries to a
triple (first, second, index_set) with first a matching of [2k], second a
matching of [2n-2k]; psi_map does the same for signed permutations with
k = bar (the number of entries lying in blocks that end negatively).

A state holds each matching as a partner tuple P (P[0] = 0, P[p] the point
matched with p; a block is marked iff its top is even) and the index set
as an int bitmask (bit v set iff v is recorded).  They become standard-form
blocks and a frozenset only in the results.

One insertion rule serves both maps and the certificate.  `_slots` lists,
once per word, the slot before each entry: the matching the entry belongs
to, whether the split block is marked, and p.  `_insert` gives m's slot's
matching of j blocks the points 2j + 1 and 2j + 2: at the end as a new
block, before an entry by splitting the p-th marked or unmarked block
(found in the lists of block starts `_starts` makes once per state),
straight or crossed.  `_rule` holds what differs: a word's values and
which entries belong to the first matching (the hatted ones; the ones in
blocks that end negatively, where the marking flips), and how m's entry
shows the split (and, at the end, the matching m joins).  The rule reads
m's entry where the insertion put it, and never searches for m: child c
of the domain tree holds it at index c // 2, and a replay step at the
index of m's entry among the prefix.  A map replays the object's
construction through `_replay`, carrying the prefix and these slot inputs:
m goes in at that index, in the first matching iff the slot it splits is
(at the end, iff the read says so).  `map_steps` yields every prefix's image.

Bijectivity is certified exhaustively, not by an inverse algorithm.
`verify_bijection(map_id, n)` is the one entry point.  It walks the
domain's insertion tree in `objects`, the one `generate` walks (a
generating tree: J. West, Discrete Math. 146 (1995); Banderier et al.,
Discrete Math. 246 (2002)), and keeps no image.  Each edge into a child of
size m is checked in O(1) from the child's word and state, never from the
rule:
  - `peel(child, m)` must give back the node's state, under a key no
    sibling shares.  The peel is strict: in the matching that took m, with
    j blocks, the points 2j - 1 and 2j are a block or link back to two
    points below them.  By induction on the level, the states of a level
    are distinct pairs of fixed-point-free involutions.
  - the weight: asc (phi) or des_B (psi) of the word must gain what
    el(first) + el(second) (phi) or el(first) + ol(second) (psi) gains.
    At the end m adds an ascent (phi), -m a descent (psi); before an entry
    m adds an ascent iff its neighbours make a descent (phi), a descent iff
    they make an ascent (psi), with a virtual 0 in front.  An append adds
    an even top; a split trades the merged top for 2j - 1 and 2j.
  - the index set: bit m, which names the matching that took m, must be
    the hat of m (phi), or tell whether m lies in a block that ends
    negatively (psi): -m at the end, else the entry after m, whose block m
    joins (inserting the largest magnitude moves no other block), is.
The empty root weighs right, so every leaf does, and its image is a pair of
perfect matchings of [2k] and [2n-2k].  Each node of size n - 1 counts its
children by k, and the images are counted against C(n,k)(2k-1)!!(2n-2k-1)!!.

The walk is cut at level SPLIT_LEVEL, above which `certificate_roots`
checks every edge.  A check reads only a node and its children, so the
induction runs across the cut, and `subtree_tally` may count the subtrees
below it in any order, in any process (`verify.run_all` uses two).  A
subtree's tally counts every level from its root's down to n, so one walk
to the deepest n certifies every n above the cut.

A failed edge only means that the rule and the checks disagree, and it
raises `_Unpeeled` wherever it is met.  `verify_bijection` then redoes the
certificate by `_image_walk`, which keeps every image and weighs every leaf
whole with the statistics of `objects`; its first bad leaf is the
counterexample, so a report depends on which walk produced it only in its
`walk` field, which equality and repr leave out.
"""

from __future__ import annotations

import math
from bisect import bisect
from collections import Counter, namedtuple
from dataclasses import dataclass, field
from operator import itemgetter, pos

from . import objects
from .objects import (DecoratedPermutation, PerfectMatching,
                      SignedPermutation, double_factorial,
                      int_stats_matching, signed_blocks, validate, encode)


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
    # "edges" from the edge-local tallies, "images" from the image walk
    walk: str = field(default="edges", compare=False, repr=False)

    @property
    def all_ok(self) -> bool:
        return self.injective and self.image_complete and self.weight_preserving


def encode_triple(t: MatchingTriple) -> str:
    iset = ",".join(str(v) for v in sorted(t.index_set))
    return (f"[{encode(t.first)}] [{encode(t.second)}] {{{iset}}}")


def _blocks(partners) -> tuple[tuple[int, int], ...]:
    """The standard-form blocks of a partner tuple: each point below its
    partner starts a block, in increasing order."""
    return tuple([(a, b) for a, b in enumerate(partners) if a < b])


def _triple(state, n: int) -> MatchingTriple:
    """The triple of a state; its index bitmask becomes a frozenset."""
    s1, s2, mask = state
    iset = frozenset(v for v in range(mask.bit_length()) if mask >> v & 1)
    return MatchingTriple(PerfectMatching(_blocks(s1)),
                          PerfectMatching(_blocks(s2)), iset, n, len(iset))


# ---------------------------------------------------------------------------
# the insertion rule, shared by phi and psi
# ---------------------------------------------------------------------------

# the state of the empty word: no blocks, nothing recorded
_EMPTY = ((0,), (0,), 0)

_Rule = namedtuple("_Rule", "kind cls inputs read flip value weighs")


def _starts(state):
    """The block starts of a state in increasing order, in four lists by
    2 * in_first + marked."""
    out = [[], [], [], []]
    for kind, partners in ((0, state[1]), (2, state[0])):
        for a, b in enumerate(partners):
            if a < b:
                out[kind + (not b & 1)].append(a)
    return out


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


def _insert(state, m: int, slots, index: int, first: bool, straight: bool,
            starts):
    """Insert m at `index` of a word with these slots, `starts` being the
    state's.  A matching with j blocks takes the points 2j+1 and 2j+2.  At
    the end, they make a new block of the first matching if `first`, else
    of the second; before an entry, they split the p-th marked or unmarked
    block (a, b) of the slot's matching into (a, 2j+1),(b, 2j+2) if
    straight, else (b, 2j+1),(a, 2j+2).  The first matching records m."""
    s1, s2, mask = state
    if index < len(slots):
        first, marked, p = slots[index]
    partners = s1 if first else s2
    lo = len(partners)
    if index == len(slots):
        partners += (lo + 1, lo)
    elif len(starts[2 * first + marked]) < p:
        raise ValueError(f"no {p}-th {'un' * (not marked)}marked block")
    else:
        a = starts[2 * first + marked][p - 1]
        a, b = (a, partners[a]) if straight else (partners[a], a)
        out = list(partners)
        out[a], out[b] = lo, lo + 1
        partners = (*out, a, b)
    if first:
        return partners, s2, mask | 1 << m
    return s1, partners, mask


def _rule(map_id: str):
    """The map's domain type and class, its rule (`value` is an entry's
    value in the slot inputs; its magnitude is the entry's size) and its
    leaf weigher, as this module binds them now."""
    if map_id == "phi":
        return _Rule(DecoratedPermutation, "decorated", _phi_inputs,
                     _phi_read, False, itemgetter(0), _phi_weighs)
    if map_id == "psi":
        return _Rule(SignedPermutation, "signed", _psi_inputs, _psi_read,
                     True, pos, _psi_weighs)
    raise ValueError(f"unknown map {map_id!r}")


def _replay(map_id: str, obj):
    """Insert 1, ..., n in turn by the rule of phi (`obj` a decorated
    permutation) or psi (a signed one); yield each prefix, the entries of
    size <= m, with its state; the prefix and its slot inputs are carried."""
    kind, cls, _, read, flip, value, _ = _rule(map_id)
    if not isinstance(obj, kind):
        raise ValueError(f"{map_id} maps a {kind.__name__}, not {obj!r}")
    if not validate(obj):
        raise ValueError(f"invalid {cls} permutation: {obj!r}")
    (word,) = vars(obj).values()
    sizes = [abs(v) for v in map(value, word)]
    placed = []  # the indices in `word` of the prefix's entries, increasing
    child = ()
    values, first = [], []
    state = _EMPTY
    for m, j in enumerate(sorted(range(len(word)), key=sizes.__getitem__), 1):
        at = bisect(placed, j)
        placed.insert(at, j)
        child = (*child[:at], word[j], *child[at:])
        slots = _slots(values, first, flip)
        f, straight = read(word[j])
        if at < len(slots):
            f = slots[at][0]
            state = _insert(state, m, slots, at, f, straight, _starts(state))
        else:
            state = _insert(state, m, slots, at, f, straight, None)
        values.insert(at, value(word[j]))
        first.insert(at, f)
        yield child, state


def _image(steps) -> MatchingTriple:
    """The triple of a replay's last state; the empty word's if none."""
    word, state = (), _EMPTY
    for word, state in steps:
        pass
    return _triple(state, len(word))


# ---------------------------------------------------------------------------
# phi: decorated permutations
# ---------------------------------------------------------------------------

def _phi_inputs(word):
    """The values of a word, and its hats, which name the first matching."""
    return [v for v, _, _ in word], [h for _, h, _ in word]


def _phi_read(entry):
    """m's entry gives its hat (read only at the end: before an entry, m
    copies that entry's hat), and a straight split unless m is circled."""
    return entry[1], not entry[2]


def phi_map(w: DecoratedPermutation) -> MatchingTriple:
    return _image(_replay("phi", w))


def _phi_weighs(word, state) -> bool:
    """asc(word) = el(first) + el(second), and the index set is the set of
    hatted values."""
    s1, s2, mask = state
    hats = objects.set_stats_decorated(word)["hat_value_set"]
    return (objects.int_stats_decorated(word)[0]
            == int_stats_matching(_blocks(s1))[0]
            + int_stats_matching(_blocks(s2))[0]
            and sum(1 << v for v in hats) == mask)


# ---------------------------------------------------------------------------
# psi: signed permutations
# ---------------------------------------------------------------------------

def _psi_inputs(word):
    """The word, and whether each entry lies in a block that ends
    negatively, which names the first matching."""
    return word, [blk[-1] < 0 for blk in signed_blocks(word) for _ in blk]


def _psi_read(entry):
    """m's entry gives a straight split unless it is -m, which at the end
    appends to the first matching."""
    return entry < 0, entry > 0


def psi_map(pi: SignedPermutation) -> MatchingTriple:
    return _image(_replay("psi", pi))


def map_steps(map_id: str, obj):
    """The insertions of phi_map ("phi", a decorated permutation) or psi_map
    ("psi", a signed one), as one (prefix, triple) pair for each m = 1..n:
    the prefix keeps the entries of size <= m and the triple is its image,
    so the last triple is the image of `obj`.  One replay gives them all."""
    for word, state in _replay(map_id, obj):
        yield type(obj)(word), _triple(state, len(word))


def _psi_weighs(word, state) -> bool:
    """des_B(word) = el(first) + ol(second), and the index set holds the
    magnitudes in the blocks that end negatively."""
    s1, s2, mask = state
    bars = objects.set_stats_signed(word)["bar_set"]
    return (objects.int_stats_signed(word)[0]
            == int_stats_matching(_blocks(s1))[0]
            + int_stats_matching(_blocks(s2))[1]
            and sum(1 << abs(v) for v in bars) == mask)


# ---------------------------------------------------------------------------
# exhaustive certification
# ---------------------------------------------------------------------------

def _domain_tree(map_id: str):
    """The object type, the leaf check, and the children of (word, state)
    nodes over the domain's tree in `objects`, with m inserted by the map's
    rule.  The tree and the rule are looked up now, so that a replaced one
    reaches this walk as it reaches generate and the maps."""
    kind, cls, inputs, read, flip, _, weighs = _rule(map_id)
    tree = objects.class_functions(cls)[0]

    def children(node, m):
        word, state = node
        slots = _slots(*inputs(word), flip)
        starts = _starts(state)
        return [(child, _insert(state, m, slots, c >> 1, *read(child[c >> 1]),
                                starts))
                for c, child in enumerate(tree(word, m))]
    return kind, weighs, children


def peel(state, m: int):
    """Undo the insertion of m from the state alone: the parent state, a
    key that tells it from its siblings (low bit: bit m of the mask, which
    names the matching that took m), and the even tops that matching
    gained.  With j blocks, its points 2j - 1 and 2j are the appended block
    (key 0 above the low bit), or link back to the points a and c of the
    block they split (the key encodes a, c); else ValueError."""
    s1, s2, mask = state
    first = mask >> m & 1
    partners = s1 if first else s2
    top = len(partners) - 1
    if top < 2 or top & 1:
        raise ValueError(f"no block took {m}: {partners}")
    a, c = partners[top - 1:]
    if a == top and c == top - 1:
        partners = partners[:-2]
        key = first
        gained = 1
    elif (0 < a < top - 1 and 0 < c < top - 1
          and partners[a] == top - 1 and partners[c] == top):
        out = list(partners[:-2])
        out[a], out[c] = c, a
        partners = tuple(out)
        key = 2 * (a * top + c) + first
        gained = (a if a > c else c) & 1
    else:
        raise ValueError(f"points {top - 1}, {top} are no block: {partners}")
    if first:
        return (partners, s2, mask ^ 1 << m), key, gained
    return (s1, partners, mask), key, gained


class _Unpeeled(Exception):
    """A node whose children fail a local check."""


def _checked(map_id: str, children):
    """children, and how many recorded m, checking every edge from a node
    as the module docstring says: peel, key, weight and index bit.  The
    domain trees list two children per slot, so child c must hold m at
    index c // 2."""
    phi = map_id == "phi"

    def checked(node, m):
        kids = children(node, m)
        keys = set()
        recorded = 0
        for c, (word, state) in enumerate(kids):
            try:
                parent, key, gained = peel(state, m)
                i = c >> 1
                mask = state[2]
                bit = mask >> m & 1
                if phi:  # m at the end, or inside a descent, adds an ascent
                    v, hat, _ = word[i]
                    ok = hat == bit and (
                        i + 1 == m or 0 < i and word[i - 1][0] > word[i + 1][0]
                    ) == gained
                else:  # -m at the end, or m inside an ascent, adds a descent
                    v = abs(word[i])
                    if i + 1 == m:
                        grew = negative = word[i] < 0
                    else:
                        negative = mask >> abs(word[i + 1]) & 1
                        grew = (word[i - 1] if i else 0) < word[i + 1]
                    ok = negative == bit and grew == (gained if bit else 1 - gained)
            except (ValueError, IndexError):
                raise _Unpeeled from None
            if not ok or v != m or parent != node[1]:
                raise _Unpeeled
            keys.add(key)
            recorded += bit
        if len(keys) != len(kids):
            raise _Unpeeled
        return kids, recorded
    return checked


# A certificate sums the tallies of the subtrees rooted at this level of
# the domain tree (at the root when n is no deeper), which `verify.run_all`
# shares out between its processes.  Level 3 gives 48 subtrees; at n = 7
# each phi subtree takes about 0.04 s on a 2-core Xeon.
SPLIT_LEVEL = 3


def verify_bijection(map_id: str, n: int, tallies=None) -> BijectionReport:
    """Certify the map at n from the level-n tallies of the subtrees below
    `certificate_roots(map_id, n)`, in any order; with no tallies, walk and
    tally every subtree here.  If an edge fails its local check there, the
    report comes from a walk that keeps every image instead."""
    objects.require_domain(_rule(map_id).cls, n)
    if tallies is None:
        try:
            tallies = [subtree_tally(map_id, n, root)[-1]
                       for root in certificate_roots(map_id, n)]
        except _Unpeeled:
            return _image_walk(map_id, n)
    per_k = Counter()
    for tally in tallies:
        per_k.update(tally)
    return _report(n, per_k, True, True, True, None, "edges")


def certificate_roots(map_id: str, n: int) -> list:
    """The (word, state) roots of the certificate's subtrees in walk order:
    the nodes of level SPLIT_LEVEL, or the root alone when n <= SPLIT_LEVEL.
    Every edge above them is checked locally; _Unpeeled if one fails."""
    objects.require_domain(_rule(map_id).cls, n)
    checked = _checked(map_id, _domain_tree(map_id)[2])
    level = SPLIT_LEVEL if n > SPLIT_LEVEL else 0
    return list(objects.walk(lambda node, m: checked(node, m)[0], level,
                             ((), _EMPTY)))


def subtree_tally(map_id: str, n: int, root) -> list[Counter]:
    """Walk the domain tree below `root` down to size n, checking every
    edge locally (_Unpeeled if one fails), and count the nodes of each size
    from the root's to n by k, one Counter per size: a node counts its
    children by its own k, plus one for each child that recorded m."""
    level = len(root[0])
    if isinstance(n, bool) or not isinstance(n, int) or n < level:
        raise ValueError(f"n must be an int >= {level}, the level of the "
                         f"root, got {n!r}")
    checked = _checked(map_id, _domain_tree(map_id)[2])
    tallies = [Counter({root[1][2].bit_count(): 1}),
               *(Counter() for _ in range(level, n))]

    def counted(node, depth):  # the children at `depth` below the root
        kids, recorded = checked(node, level + depth)
        k = node[1][2].bit_count()
        tally = tallies[depth]
        tally[k] += len(kids) - recorded
        tally[k + 1] += recorded
        return kids

    if n > level:
        for node in objects.walk(counted, n - 1 - level, root):
            counted(node, n - level)
    return tallies


def _image_walk(map_id: str, n: int) -> BijectionReport:
    """One walk of the domain that keeps every image in a set: a repeat is
    a counterexample, and so is an image that is not a pair of perfect
    matchings with one block of the first per recorded index.  Every leaf
    is weighed whole; the first leaf to fail a test is the counterexample."""
    kind, weighs, children = _domain_tree(map_id)
    images = set()
    per_k = Counter()
    weight_ok = True
    injective = True
    in_codomain = True
    counterexample = None
    for word, state in objects.walk(children, n, ((), _EMPTY)):
        weight_ok = weight_ok and weighs(word, state)
        seen = len(images)  # one hash of the image, not two
        images.add(state)
        injective = injective and len(images) > seen
        in_codomain = in_codomain and _in_codomain(state)
        if counterexample is None and not (weight_ok and injective
                                           and in_codomain):
            counterexample = (encode(kind(word)),
                              encode_triple(_triple(state, 0)))
        per_k[state[2].bit_count()] += 1
    return _report(n, per_k, injective, in_codomain, weight_ok,
                   counterexample, "images")


def _report(n, per_k, injective, in_codomain, weight_ok, counterexample,
            walk) -> BijectionReport:
    """Compare the images counted by k with C(n,k)(2k-1)!!(2n-2k-1)!!."""
    expected = {k: math.comb(n, k) * double_factorial(k) * double_factorial(n - k)
                for k in range(n + 1)}
    complete = (injective and in_codomain
                and all(per_k.get(k, 0) == expected[k] for k in expected))
    if not complete and counterexample is None:
        counterexample = ("image cardinality mismatch",
                          repr({k: per_k.get(k, 0) for k in expected}))
    return BijectionReport(n, injective, complete, weight_ok, counterexample,
                           walk)


def _in_codomain(state) -> bool:
    """Both partner tuples are fixed-point-free involutions of [2j] (and 0
    in front), the first with a block per recorded index."""
    s1, s2, mask = state
    return mask.bit_count() == len(s1) // 2 and all(
        len(t) & 1 and sorted(t) == list(range(len(t)))
        and all(t[q] == p != q for p, q in enumerate(t) if p) for t in (s1, s2))
