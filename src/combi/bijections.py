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
in increasing order; `map_steps` yields the image of every prefix on the
way.

Bijectivity is certified exhaustively, not by an inverse algorithm.
verify_bijection walks the domain's insertion tree in `objects`, the one
`generate` walks (a generating tree: J. West, Discrete Math. 146 (1995);
Banderier et al., Discrete Math. 246 (2002)).  The same rule gives each
child its image state, and the walk keeps no image.  Instead each node is
checked locally, inside the children function the walk calls:
  - `peel(child, m)`, which reads the child's state and never the rule,
    must give back the node's state, and
  - no two children may share a peel key.
This proves injectivity by induction on the level.  Say the states of level
m - 1 are distinct.  Two nodes of level m with the same state peel to the
same state, so they have the same parent; their keys are then equal, so
they are the same child.  The peel is strict: in the matching that took m,
with j blocks, the tops must be 2j - 1 and 2j, and the block starts must
increase.  Also, bit m of the index mask is set iff the first matching
gained a block.  So, by induction from the empty root, every state of level
m is a pair of perfect matchings of [2k] and [2m-2k] in standard form, with
k the number of recorded indices.  That is the codomain, and the count
below needs it.  At every leaf the walk checks
  - the weight: asc (phi) or des_B (psi) of the leaf word against the
    even-larger (el) and odd-larger (ol) block counts of its matchings,
  - the index set: the hatted values (phi), or the magnitudes in the blocks
    that end negatively (psi).
The weight and the index set are computed from the leaf word and the leaf
matchings, never from the rule.  Afterwards the images with k recorded
indices are counted against C(n,k)(2k-1)!!(2n-2k-1)!!.

The walk is cut at level SPLIT_LEVEL.  `certificate_roots` walks the
levels above the cut, checking each node locally, and returns the nodes at
the cut in walk order.  `subtree_tally` walks the subtree below one of them
and returns a `Tally`: its images counted by k, whether every leaf weighs
right, its first leaf in walk order that does not, and whether a node
failed its local check.  `certificate` sums the tallies in walk order, so
the first counterexample is the whole walk's first.  A local check reads
only a node and its children, so the induction above runs across the cut
unchanged, and the subtrees may be tallied in any order, in any process:
`verify.run_all` shares them between its two processes, and
`verify_bijection` tallies them one after another.  `certificate_roots`
first calls `objects.require_domain`, so n > 8 is refused before any walk.

A failed local check only means that the rule and `peel` disagree.  The
walk then runs again and keeps every image in a set, and the images decide:
a repeated image, or one outside the codomain, is a counterexample.  So a
report never depends on which of the two walks produced it.

Inside the maps and the walk, an index set is an int bitmask (bit v set iff
v is recorded); it becomes a frozenset only in the results.
"""

from __future__ import annotations

import math
from bisect import insort
from collections import Counter, namedtuple
from dataclasses import dataclass
from operator import itemgetter

from . import objects
from .objects import (DecoratedPermutation, PerfectMatching,
                      SignedPermutation, double_factorial, signed_blocks,
                      validate, encode)


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


def _replay(map_id: str, obj):
    """Insert 1, ..., n in turn by the rule of phi (`obj` a decorated
    permutation) or psi (a signed one), the entries of size <= m making the
    child of the entries of size < m; yield each child with its state."""
    if map_id not in ("phi", "psi"):
        raise ValueError(f"unknown map {map_id!r}")
    phi = map_id == "phi"
    kind, rule, size = ((DecoratedPermutation, _phi_rule, itemgetter(0)) if phi
                        else (SignedPermutation, _psi_rule, abs))
    if not isinstance(obj, kind):
        raise ValueError(f"{map_id} maps a {kind.__name__}, not {obj!r}")
    if not validate(obj):
        raise ValueError(f"invalid {'decorated' if phi else 'signed'} "
                         f"permutation: {obj!r}")
    (word,) = vars(obj).values()
    state = _EMPTY
    parent = ()
    for m in range(1, len(word) + 1):
        child = tuple(e for e in word if size(e) <= m)
        slots, ((_, i, first, straight),) = rule(parent, m, (child,))
        state = _insert(state, m, slots, i, first, straight)
        yield child, state
        parent = child


def _image(steps) -> MatchingTriple:
    """The triple of a replay's last state; the empty word's if none."""
    word, state = (), _EMPTY
    for word, state in steps:
        pass
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
    return _image(_replay("phi", w))


def _phi_weighs(word, state) -> bool:
    """asc(word) = el(first) + el(second), and the index set is the set of
    hatted values.  el counts the blocks with an even top, so asc plus the
    odd tops must make up the blocks."""
    s1, s2, iset = state
    asc = prev = hats = 0
    for v, h, _ in word:
        asc += prev < v  # the leading virtual 0 makes asc count from 1
        if h:
            hats |= 1 << v
        prev = v
    for _, b in s1:
        asc += b & 1
    for _, b in s2:
        asc += b & 1
    return asc == len(s1) + len(s2) and hats == iset


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
    # el(t1) is len(t1) less the odd tops of t1, ol(t2) the odd tops of t2
    for _, b in t1:
        des += b & 1
    for _, b in t2:
        des -= b & 1
    return des == len(t1) and bars == iset


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


def peel(state, m: int):
    """Undo the insertion of m from the state alone: the parent state, and a
    key that tells the state apart from its siblings'.  Bit m of the index
    mask names the matching that took m (the key's low bit); with j blocks,
    it holds the points 2j - 1 and 2j.  A last block (2j - 1, 2j) was
    appended: drop it (key 0, above the low bit).  Otherwise the blocks
    topped by 2j - 1 and 2j, at indices x and y, were split from one block:
    the earlier keeps its place and takes the later's start as its top, and
    the later goes (key x * j + y + 1).  Raises ValueError unless both tops
    are there and the later block's start lies between its neighbours'."""
    s1, s2, mask = state
    first = mask >> m & 1
    blocks = s1 if first else s2
    if not blocks:
        raise ValueError(f"no block took {m}")
    j = len(blocks)
    top = 2 * j
    if blocks[-1] == (top - 1, top):
        blocks = blocks[:-1]
        key = first
    else:
        tops = [b for _, b in blocks]
        x = tops.index(top - 1)
        y = tops.index(top)
        i, k = (x, y) if x < y else (y, x)
        out = list(blocks)
        b = out.pop(k)[0]
        if not out[k - 1][0] < b < (out[k][0] if k < j - 1 else top):
            raise ValueError(f"block starts out of order: {blocks}")
        out[i] = (out[i][0], b)
        blocks = tuple(out)
        key = 2 * (x * j + y + 1) + first
    if first:
        return (blocks, s2, mask ^ 1 << m), key
    return (s1, blocks, mask), key


class _Unpeeled(Exception):
    """A node whose children do not peel to it, or not to distinct keys."""


def _peeled(children):
    """children, checking at each node that every child peels back to the
    node and that no two children share a key."""
    def checked(node, m):
        kids = children(node, m)
        keys = set()
        for _, kid in kids:
            try:
                parent, key = peel(kid, m)
            except ValueError:
                raise _Unpeeled from None
            if parent != node[1]:
                raise _Unpeeled
            keys.add(key)
        if len(keys) != len(kids):
            raise _Unpeeled
        return kids
    return checked


# A certificate sums the tallies of the subtrees rooted at this level of
# the domain tree (at the root when n is no deeper), which `verify.run_all`
# shares out between its processes.  Level 3 gives 48 subtrees; at n = 7
# each phi subtree takes about 0.1 s on a 2-core Xeon.
SPLIT_LEVEL = 3


# What one subtree adds to a certificate: its images counted by k, whether
# every leaf weighs right, the first leaf in walk order that does not, and
# whether a node failed its local check.  A named tuple: it crosses the fork
# pickled, and a dataclass would add a millisecond to every import.
Tally = namedtuple("Tally", "per_k weight_ok counterexample unpeeled")


def verify_bijection(map_id: str, n: int) -> BijectionReport:
    """Walk the map's whole domain: check injectivity at every node, weight
    and index set on every leaf, then the image count for each k.  If a
    node fails its local check, walk again keeping every image, so that
    the verdict and the counterexample come from the images themselves."""
    roots = certificate_roots(map_id, n)
    tallies = (None if roots is None
               else [subtree_tally(map_id, n, root) for root in roots])
    return certificate(map_id, n, tallies)


def certificate_roots(map_id: str, n: int):
    """The (word, state) roots of the certificate's subtrees in walk order:
    the nodes of level SPLIT_LEVEL, or the root alone when n <= SPLIT_LEVEL.
    Every node above them is checked locally; None if one fails."""
    if map_id not in ("phi", "psi"):
        raise ValueError(f"unknown map {map_id!r}")
    objects.require_domain("decorated" if map_id == "phi" else "signed", n)
    children = _peeled(_domain_tree(map_id)[2])
    level = SPLIT_LEVEL if n > SPLIT_LEVEL else 0
    try:
        return list(objects.walk(children, level, ((), _EMPTY)))
    except _Unpeeled:
        return None


def subtree_tally(map_id: str, n: int, root) -> Tally:
    """Walk the domain tree below `root` down to size n, checking each node
    locally, and weigh every leaf from its word and its matchings."""
    kind, weighs, children = _domain_tree(map_id)
    checked = _peeled(children)
    level = len(root[0])
    per_k = Counter()
    weight_ok = True
    counterexample = None
    try:
        for word, state in objects.walk(
                lambda node, m: checked(node, level + m), n - level, root):
            if weight_ok and not weighs(word, state):
                weight_ok = False
                counterexample = (encode(kind(word)), _encode_state(state))
            per_k[state[2].bit_count()] += 1
    except _Unpeeled:
        return Tally(Counter(), False, None, True)
    return Tally(per_k, weight_ok, counterexample, False)


def certificate(map_id: str, n: int, tallies) -> BijectionReport:
    """The report of the subtrees' tallies, in walk order.  If a node above
    them (`tallies` None) or in one of them failed its local check, the
    report comes from a walk that keeps every image instead."""
    if tallies is None or any(t.unpeeled for t in tallies):
        return _image_walk(map_id, n)
    per_k = Counter()
    for t in tallies:
        per_k.update(t.per_k)
    counterexample = next((t.counterexample for t in tallies
                           if t.counterexample is not None), None)
    return _report(n, per_k, True, True, all(t.weight_ok for t in tallies),
                   counterexample)


def _image_walk(map_id: str, n: int) -> BijectionReport:
    """One walk of the domain that keeps every image in a set: a repeat is
    a counterexample, and so is an image that is not a pair of perfect
    matchings in standard form with one block of the first per recorded
    index."""
    kind, weighs, children = _domain_tree(map_id)
    images = set()
    per_k = Counter()
    weight_ok = True
    injective = True
    in_codomain = True
    counterexample = None
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
        if in_codomain and not _in_codomain(state):
            in_codomain = False
            counterexample = counterexample or (encode(kind(word)),
                                                _encode_state(state))
        per_k[state[2].bit_count()] += 1
    return _report(n, per_k, injective, in_codomain, weight_ok,
                   counterexample)


def _report(n, per_k, injective, in_codomain, weight_ok,
            counterexample) -> BijectionReport:
    """Compare the images counted by k with C(n,k)(2k-1)!!(2n-2k-1)!!."""
    expected = {k: math.comb(n, k) * double_factorial(k) * double_factorial(n - k)
                for k in range(n + 1)}
    complete = (injective and in_codomain
                and all(per_k.get(k, 0) == expected[k] for k in expected))
    if not complete and counterexample is None:
        counterexample = ("image cardinality mismatch",
                          repr({k: per_k.get(k, 0) for k in expected}))
    return BijectionReport(n, injective, complete, weight_ok, counterexample)


def _in_codomain(state) -> bool:
    s1, s2, mask = state
    return (validate(PerfectMatching(s1)) and validate(PerfectMatching(s2))
            and mask.bit_count() == len(s1))


def _encode_state(state) -> str:
    return encode_triple(_triple(state, 0))
