import itertools
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from combi import bijections, cli, objects
from combi.bijections import (encode_triple, phi_map, psi_map,
                              verify_bijection)
from combi.objects import (CapacityError, DecoratedPermutation,
                           SignedPermutation, generate, parse, stats, walk)

PHI_BASE = {
    "1": "[] [(1,2)] {}",
    "1h": "[(1,2)] [] {1}",
    "1 2": "[] [(1,2)(3,4)] {}",
    "2 1": "[] [(1,3)(2,4)] {}",
    "2c 1": "[] [(1,4)(2,3)] {}",
    "1h 2": "[(1,2)] [(1,2)] {1}",
    "1 2h": "[(1,2)] [(1,2)] {2}",
    "1h 2h": "[(1,2)(3,4)] [] {1,2}",
    "2h 1h": "[(1,3)(2,4)] [] {1,2}",
    "2hc 1h": "[(1,4)(2,3)] [] {1,2}",
}

PSI_BASE = {
    "1": "[] [(1,2)] {}",
    "-1": "[(1,2)] [] {1}",
    "1 2": "[] [(1,2)(3,4)] {}",
    "2 1": "[] [(1,3)(2,4)] {}",
    "-2 1": "[] [(1,4)(2,3)] {}",
    "-1 2": "[(1,2)] [(1,2)] {1}",
    "1 -2": "[(1,2)] [(1,2)] {2}",
    "-1 -2": "[(1,2)(3,4)] [] {1,2}",
    "2 -1": "[(1,3)(2,4)] [] {1,2}",
    "-2 -1": "[(1,4)(2,3)] [] {1,2}",
}

# Stepwise images of the decorated worked example and its prefixes.
PHI_CHAIN = [
    ("1h", "[(1,2)] [] {1}"),
    ("1h 2", "[(1,2)] [(1,2)] {1}"),
    ("3h 1h 2", "[(1,3)(2,4)] [(1,2)] {1,3}"),
    ("3h 1h 4 2", "[(1,3)(2,4)] [(1,3)(2,4)] {1,3}"),
    ("3h 1h 4 2 5h", "[(1,3)(2,4)(5,6)] [(1,3)(2,4)] {1,3,5}"),
    ("3h 1h 4 2 6hc 5h", "[(1,3)(2,4)(5,8)(6,7)] [(1,3)(2,4)] {1,3,5,6}"),
]

# Stepwise images of the signed worked example.  Each step replaces exactly
# one block, so the first two blocks are fixed once magnitude 3 is inserted;
# the last two entries follow from the base-case images above.
PSI_CHAIN = [
    ("-1", "[(1,2)] [] {1}"),
    ("-1 2", "[(1,2)] [(1,2)] {1}"),
    ("-3 -1 2", "[(1,4)(2,3)] [(1,2)] {1,3}"),
    ("-3 -1 4 2", "[(1,4)(2,3)] [(1,3)(2,4)] {1,3}"),
    ("-3 -1 4 2 -5", "[(1,4)(2,3)(5,6)] [(1,3)(2,4)] {1,3,5}"),
    ("-3 -1 4 2 -6 -5", "[(1,4)(2,3)(5,8)(6,7)] [(1,3)(2,4)] {1,3,5,6}"),
    ("-3 -1 4 2 -6 7 -5",
     "[(1,4)(2,3)(5,8)(6,9)(7,10)] [(1,3)(2,4)] {1,3,5,6,7}"),
]


def test_phi_base_cases():
    for enc, want in PHI_BASE.items():
        assert encode_triple(phi_map(parse("decorated", enc))) == want


def test_psi_base_cases():
    for enc, want in PSI_BASE.items():
        assert encode_triple(psi_map(parse("signed", enc))) == want


def test_phi_worked_chain():
    for enc, want in PHI_CHAIN:
        assert encode_triple(phi_map(parse("decorated", enc))) == want


def test_psi_worked_chain():
    for enc, want in PSI_CHAIN:
        assert encode_triple(psi_map(parse("signed", enc))) == want


@pytest.mark.parametrize("map_id,chain", [("phi", PHI_CHAIN),
                                           ("psi", PSI_CHAIN)])
def test_steps_print_the_worked_chain(capsys, map_id, chain):
    argv = ["bijection", "--map", map_id, "--input", chain[-1][0], "--steps"]
    assert cli.main(argv) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"{enc} -> {want}" for enc, want in chain]


@pytest.mark.parametrize("map_id,cls", [("phi", "decorated"),
                                        ("psi", "signed")])
def test_map_steps_are_the_images_of_the_prefixes(map_id, cls):
    mapper = phi_map if map_id == "phi" else psi_map
    for n in range(5):
        for obj in generate(cls, n):
            steps = list(bijections.map_steps(map_id, obj))
            assert len(steps) == n
            assert all(mapper(prefix) == t for prefix, t in steps)
            if steps:
                assert steps[-1][0] == obj
    with pytest.raises(ValueError, match="unknown map"):
        next(bijections.map_steps("nope", obj))


def test_maps_reject_invalid_input():
    with pytest.raises(ValueError):
        phi_map(DecoratedPermutation(((1, False, True),)))
    with pytest.raises(ValueError):
        psi_map(SignedPermutation((1, 1)))
    with pytest.raises(ValueError):
        next(bijections.map_steps("psi", SignedPermutation((1, 1))))


@pytest.mark.parametrize("call,obj,kind", [
    (phi_map, objects.Permutation((2, 1)), "DecoratedPermutation"),
    (phi_map, SignedPermutation((2, -1)), "DecoratedPermutation"),
    (psi_map, DecoratedPermutation(((1, False, False),)), "SignedPermutation"),
    (psi_map, objects.Permutation((2, 1)), "SignedPermutation"),
    (lambda obj: next(bijections.map_steps("phi", obj)),
     objects.Permutation((1, 2)), "DecoratedPermutation"),
    (lambda obj: next(bijections.map_steps("psi", obj)),
     objects.StirlingWord((1, 1)), "SignedPermutation"),
], ids=["phi-permutation", "phi-signed", "psi-decorated", "psi-permutation",
        "steps-phi", "steps-psi"])
def test_maps_reject_objects_of_another_class(call, obj, kind):
    # a raw AttributeError before, or for psi on a Permutation an image
    with pytest.raises(ValueError, match=f"maps a {kind}, not "):
        call(obj)


def test_triple_shapes():
    for w in generate("decorated", 4):
        t = phi_map(w)
        st = stats(w)
        assert t.k == len(t.index_set) == st["hat"]
        assert len(t.first.blocks) == st["hat"]
        assert len(t.second.blocks) == 4 - st["hat"]
        assert t.index_set == frozenset(st["hat_value_set"])
        assert st["asc"] == (stats(t.first)["el"]
                             + stats(t.second)["el"])


def test_psi_weights():
    for pi in generate("signed", 4):
        t = psi_map(pi)
        st = stats(pi)
        assert t.index_set == frozenset(abs(v) for v in st["bar_set"])
        assert st["des_B"] == (stats(t.first)["el"]
                               + stats(t.second)["ol"])


# Slot tables (in_first, marked, p) of prefixes of the worked examples, by
# hand.  phi: hatted entries split the first matching, an ascent a marked
# block.  psi: (-3 -1)(4 2)(-6 7 -5) are the blocks, so the entries of the
# first and last split the first matching, where a descent splits a marked
# block.  The block (3 -1) of the other signed example ends negatively.
SLOTS = [
    ("phi", "3h 1h 4 2",
     [(True, True, 1), (True, False, 1), (False, True, 1), (False, False, 1)]),
    ("phi", "3h 1h 4 2 6hc 5h",
     [(True, True, 1), (True, False, 1), (False, True, 1), (False, False, 1),
      (True, True, 2), (True, False, 2)]),
    ("psi", "-3 -1 4 2",
     [(True, True, 1), (True, False, 1), (False, True, 1), (False, False, 1)]),
    ("psi", "-3 -1 4 2 -6 7 -5",
     [(True, True, 1), (True, False, 1), (False, True, 1), (False, False, 1),
      (True, True, 2), (True, False, 2), (True, True, 3)]),
    ("psi", "3 -1 4 2",
     [(True, False, 1), (True, True, 1), (False, True, 1), (False, False, 1)]),
]


@pytest.mark.parametrize("map_id,enc,want", SLOTS,
                         ids=[e.replace(" ", "_") for _, e, _ in SLOTS])
def test_slot_tables(map_id, enc, want):
    cls = "decorated" if map_id == "phi" else "signed"
    obj = parse(cls, enc)
    word = obj.entries if map_id == "phi" else obj.word
    values = [e[0] for e in word] if map_id == "phi" else list(word)
    first = [f for f, _, _ in want]
    assert bijections._slots(values, first, map_id == "psi") == want
    rule = bijections._rule(map_id)
    assert bijections._slots(*rule.inputs(word), rule.flip) == want


# (first, straight) read off each entry of the worked examples, by hand:
# phi reads the hat and whether the entry is uncircled, psi the sign
READS = [
    ("phi", "3h 1h 4 2 6hc 5h", "TT TT FT FT TF TT"),
    ("psi", "-3 -1 4 2 -6 7 -5", "TF TF FT FT TF FT TF"),
]


@pytest.mark.parametrize("map_id,enc,want", READS, ids=["phi", "psi"])
def test_rule_reads_one_entry(map_id, enc, want):
    rule = bijections._rule(map_id)
    (word,) = vars(parse(rule.cls, enc)).values()
    assert [rule.read(entry) for entry in word] == [
        (a == "T", b == "T") for a, b in want.split()]


@pytest.mark.parametrize("map_id,n", [("phi", 1), ("phi", 3), ("phi", 4),
                                      ("psi", 1), ("psi", 3), ("psi", 4)])
def test_exhaustive_small(map_id, n):
    rep = verify_bijection(map_id, n)
    assert rep.all_ok, rep


@pytest.mark.parametrize("map_id", ["phi", "psi"])
def test_exhaustive_empty(map_id):
    # the empty word is the one object of size 0, sent to the empty triple
    # with k = 0: C(0,0)(-1)!!(-1)!! = 1 image
    root = ((), bijections._EMPTY)
    assert list(walk(bijections._domain_tree(map_id)[2], 0, root)) == [root]
    rep = verify_bijection(map_id, 0)
    assert rep.n == 0 and rep.all_ok and rep.counterexample is None
    with pytest.raises(ValueError, match=r"^n must be >= 0$"):
        verify_bijection(map_id, -1)


def test_peel_replay_matches_stepwise_construction(monkeypatch):
    # every step of the replay of an object must reach the state that the
    # domain tree reaches at that prefix, one insertion at a time; the slot
    # inputs it carries must be those of the prefix, and the rule must read
    # the entry of size m alone
    slots = bijections._slots
    carried, read = [], []

    def recording(values, first, flip):
        carried.append((list(values), list(first)))
        return slots(values, first, flip)

    def reading(rule):
        def recorded(entry):
            read.append(entry)
            return rule(entry)
        return recorded

    monkeypatch.setattr(bijections, "_slots", recording)
    for map_id in ("phi", "psi"):
        rule = bijections._rule(map_id)
        states = {}
        for m in range(6):
            states.update(walk(bijections._domain_tree(map_id)[2], m,
                               ((), bijections._EMPTY)))
        monkeypatch.setattr(bijections, f"_{map_id}_read",
                            reading(rule.read))
        for word in objects.leaves(rule.cls, 5)[0]:
            carried.clear()
            read.clear()
            prefixes = [()]
            for m, (prefix, triple) in enumerate(
                    bijections.map_steps(map_id, rule.kind(word)), 1):
                (prefix,) = vars(prefix).values()
                prefixes.append(prefix)
                assert triple == bijections._triple(states[prefix], m)
            assert prefixes[-1] == word
            assert carried == [tuple(map(list, rule.inputs(prefix)))
                               for prefix in prefixes[:-1]]
            assert read == sorted(word, key=lambda e: abs(rule.value(e)))


def _partners(blocks):
    """The partner tuple of standard-form blocks."""
    out = [0] * (2 * len(blocks) + 1)
    for a, b in blocks:
        out[a], out[b] = b, a
    return tuple(out)


@pytest.mark.parametrize("n", range(6))
def test_partner_tuples_round_trip(n):
    # every matching of [2n] in standard form <-> its partner tuple, a
    # fixed-point-free involution with 0 in front
    seen = set()
    for blocks in objects.leaves("matching", n)[0]:
        partners = _partners(blocks)
        assert bijections._blocks(partners) == blocks
        assert bijections._in_codomain(((0,), partners, 0))
        seen.add(partners)
    assert len(seen) == objects.double_factorial(n)


def test_capacity_guard():
    with pytest.raises(CapacityError):
        verify_bijection("phi", 9)
    with pytest.raises(ValueError):
        verify_bijection("nope", 2)


@pytest.mark.parametrize("map_id", ["phi", "psi"])
@pytest.mark.parametrize("n", [2.5, True], ids=["float", "bool"])
def test_sizes_that_are_not_ints_rejected(map_id, n):
    with pytest.raises(ValueError, match="^n must be an int, got "):
        verify_bijection(map_id, n)


@pytest.mark.parametrize("map_id,n,tallies,error,message", [
    ("phi", -1, [], ValueError, "^n must be >= 0$"),
    ("nope", 0, [Counter({0: 1})], ValueError, "^unknown map 'nope'$"),
    ("phi", 2.0, [], ValueError, "^n must be an int, got 2.0$"),
    ("psi", True, [Counter({0: 1})], ValueError, "^n must be an int, got "),
    ("psi", 9, [], CapacityError, "^signed at n=9 has "),
], ids=["negative", "unknown-map", "float", "bool", "over-the-cap"])
def test_given_tallies_checked_as_no_tallies_are(map_id, n, tallies, error,
                                                 message):
    # the tallies name no map and no n, so both are checked first; without
    # tallies, certificate_roots refuses the same input
    for given in (tallies, None):
        with pytest.raises(error, match=message):
            verify_bijection(map_id, n, given)


@pytest.mark.parametrize("n,level", [(2, 3), (-1, 3), (-1, 0), (3.0, 3)],
                         ids=["below", "negative", "negative-at-root",
                              "float"])
def test_subtree_tally_refuses_n_below_its_root(n, level):
    root = bijections.certificate_roots("phi", 5 if level else 0)[0]
    assert len(root[0]) == level
    with pytest.raises(ValueError, match=f"^n must be an int >= {level}, "
                       f"the level of the root, got {n!r}$"):
        bijections.subtree_tally("phi", n, root)


@pytest.mark.parametrize("map_id", ["phi", "psi"])
def test_one_walk_tallies_every_level(map_id):
    # a walk to n = 6 counts each level as the walk to that level alone
    # does, subtree by subtree, and level by level makes each certificate
    deepest, level = 6, bijections.SPLIT_LEVEL
    roots = bijections.certificate_roots(map_id, deepest)
    walks = [bijections.subtree_tally(map_id, deepest, root) for root in roots]
    assert all(len(levels) == deepest - level + 1 for levels in walks)
    assert [levels[0] for levels in walks] == [
        Counter({root[1][2].bit_count(): 1}) for root in roots]
    for n in range(level + 1, deepest + 1):
        at_n = [levels[n - level] for levels in walks]
        assert at_n == [bijections.subtree_tally(map_id, n, root)[-1]
                        for root in roots]
        rep = verify_bijection(map_id, n, at_n)
        assert rep == verify_bijection(map_id, n) and rep.all_ok


@pytest.mark.parametrize("map_id,counterexample", [
    ("phi", ("4 2 1 3h", "[(1,2)] [(1,3)(2,5)(4,6)] {0}")),
    ("psi", ("4 2 1 -3", "[(1,2)] [(1,3)(2,5)(4,6)] {0}")),
], ids=["phi", "psi"])
def test_moved_index_caught(monkeypatch, map_id, counterexample):
    # an insertion that records 0 in place of 3 keeps k, the statistic and
    # injectivity; only the index set check on every leaf can see it
    insert = bijections._insert

    def moved(state, m, *rest):
        s1, s2, iset = insert(state, m, *rest)
        if m == 3 and iset >> 3 & 1:
            iset ^= 1 << 3 | 1
        return s1, s2, iset

    monkeypatch.setattr(bijections, "_insert", moved)
    rep = verify_bijection(map_id, 4)
    assert rep.injective and rep.image_complete
    assert not rep.weight_preserving
    assert rep.counterexample == counterexample


def _taker(state, child) -> int:
    """Which matching of the state took the new points: 0 or 1."""
    return 0 if len(child[0]) > len(state[0]) else 1


def _with(child, f, partners):
    """The child with matching f replaced."""
    return (tuple(partners), child[1], child[2]) if f == 0 else (
        child[0], tuple(partners), child[2])


@pytest.mark.parametrize("map_id,repeated", [("phi", "4c 3 2 1"),
                                             ("psi", "-4 3 2 1")],
                         ids=["phi", "psi"])
def test_split_block_mutants_caught(monkeypatch, map_id, repeated):
    insert = bijections._insert

    def always_straight(state, m, slots, index, first, straight, starts):
        return insert(state, m, slots, index, first, True, starts)

    def swapped(state, m, slots, index, first, straight, starts):
        if index < len(slots):
            f, marked, p = slots[index]
            if len(starts[2 * f + (not marked)]) >= p:  # else no such block
                slots = [*slots[:index], (f, not marked, p), *slots[index + 1:]]
        return insert(state, m, slots, index, first, straight, starts)

    monkeypatch.setattr(bijections, "_insert", always_straight)
    rep = verify_bijection(map_id, 4)
    assert not rep.injective and not rep.image_complete
    assert rep.weight_preserving
    assert rep.counterexample == (repeated, "[] [(1,3)(2,5)(4,7)(6,8)] {}")

    monkeypatch.setattr(bijections, "_insert", swapped)
    rep = verify_bijection(map_id, 4)
    assert rep.injective and rep.image_complete
    assert not rep.weight_preserving
    assert rep.counterexample == ("4 3 2 1", "[] [(1,7)(2,4)(3,6)(5,8)] {}")


# The certificate checks each edge locally: every child peels back to its
# node.  Mutants that leave a state insertion cannot make are caught, and
# the verdict is taken from a second walk that keeps every image.

@pytest.mark.parametrize("map_id", ["phi", "psi"])
def test_one_link_append_caught(monkeypatch, map_id):
    # an appended block that links its lower point up but leaves the upper
    # one on itself: the images stay distinct and the weights hold, and
    # read as blocks they even look right, but they are no involutions
    insert = bijections._insert

    def one_link(state, m, *rest):
        child = insert(state, m, *rest)
        f = _taker(state, child)
        partners = list(child[f])
        if partners[-2] == len(partners) - 1:  # appended
            partners[-1] = len(partners) - 1
        return _with(child, f, partners)

    monkeypatch.setattr(bijections, "_insert", one_link)
    rep = verify_bijection(map_id, 4)
    assert rep.injective and rep.weight_preserving
    assert not rep.image_complete
    # (7,8) links one way: as blocks the image looks like a matching
    assert rep.counterexample == ("3 2 1 4", "[] [(1,3)(2,5)(4,6)(7,8)] {}")


@pytest.mark.parametrize("map_id", ["phi", "psi"])
def test_wrong_top_pair_caught(monkeypatch, map_id):
    # a split of a matching with j blocks that gives the two new blocks the
    # tops 2j + 3 and 2j + 4, leaving 2j + 1 and 2j + 2 on themselves,
    # keeps the parity of every top, so only the matchings' point sets
    # show it
    insert = bijections._insert

    def high(state, m, *rest):
        child = insert(state, m, *rest)
        f = _taker(state, child)
        partners = list(child[f])
        lo = len(state[f])
        a, b = partners[lo:]
        if a < lo:  # a split
            partners[a], partners[b] = lo + 2, lo + 3
            partners[lo:] = [lo, lo + 1, a, b]
        return _with(child, f, partners)

    monkeypatch.setattr(bijections, "_insert", high)
    rep = verify_bijection(map_id, 4)
    assert rep.injective and rep.weight_preserving
    assert not rep.image_complete
    assert rep.counterexample == ("4 3 2 1", "[] [(1,5)(2,9)(6,13)(10,14)] {}")


@pytest.mark.parametrize("map_id,word", [("phi", "2h 1h 3"),
                                         ("psi", "2 -1 3")],
                         ids=["phi", "psi"])
def test_forgetful_insertion_caught(monkeypatch, map_id, word):
    # an insertion into the second matching that resets the first to
    # (1,2)(3,4)...: every child is a valid state and peels with its own
    # key, but not to its parent, and children of different parents meet
    insert = bijections._insert

    def forgetful(state, m, *rest):
        s1, s2, iset = insert(state, m, *rest)
        if iset == state[2]:  # m went into the second matching
            s1 = (0, *(p + 1 if p % 2 else p - 1 for p in range(1, len(s1))))
        return s1, s2, iset

    monkeypatch.setattr(bijections, "_insert", forgetful)
    assert verify_bijection(map_id, 3) == bijections.BijectionReport(
        3, False, False, False, (word, "[(1,2)(3,4)] [(1,2)] {1,2}"))


@pytest.mark.parametrize("map_id", ["phi", "psi"])
def test_edge_checks_see_the_children_reordered(map_id):
    # the 2m children of a node are all the states that peel back to it,
    # so children that swap states pass peel and the keys; the weight and
    # index checks of the edges must see every swap that moves the weight
    # gained or the bit recorded, and only those
    children = bijections._domain_tree(map_id)[2]

    def gain(kid):
        return bijections.peel(kid[1], 4)[2], kid[1][2] >> 4 & 1

    def swapping(c, d):
        def swapped(node, m):
            kids = children(node, m)
            (wc, sc), (wd, sd) = kids[c], kids[d]
            kids[c], kids[d] = (wc, sd), (wd, sc)
            return kids
        return bijections._checked(map_id, swapped)

    seen = set()
    for node in bijections.certificate_roots(map_id, 4):
        kids = children(node, 4)
        for c, d in itertools.combinations(range(len(kids)), 2):
            moved = gain(kids[c]) != gain(kids[d])
            seen.add(moved)
            if moved:
                with pytest.raises(bijections._Unpeeled):
                    swapping(c, d)(node, 4)
            else:  # the same gain and bit: passes, as another bijection would
                swapping(c, d)(node, 4)
    assert seen == {False, True}


def test_edge_checks_find_m_where_the_tree_lays_it():
    # children 0 and 2 of the word 1 trade words: each word still fits the
    # other's state at the index the check reads, but m is not there
    children = bijections._domain_tree("phi")[2]
    node = children(((), bijections._EMPTY), 1)[0]

    def traded(node, m):
        kids = children(node, m)
        (w0, s0), (w2, s2) = kids[0], kids[2]
        kids[0], kids[2] = (w2, s0), (w0, s2)
        return kids

    assert bijections._checked("phi", children)(node, 2)[1] == 1
    with pytest.raises(bijections._Unpeeled):
        bijections._checked("phi", traded)(node, 2)


@pytest.mark.parametrize("map_id", ["phi", "psi"])
def test_collision_above_the_cut_caught(monkeypatch, map_id):
    # the always-straight split, only where 2 is inserted: two siblings
    # above the subtree roots get one state, so their subtrees give the
    # same images.  The nodes above the roots are checked locally too, or
    # the subtrees' tallies would not see the collision.
    insert = bijections._insert

    def straight_at_2(state, m, slots, index, first, straight, starts):
        return insert(state, m, slots, index, first, straight or m == 2,
                      starts)

    monkeypatch.setattr(bijections, "_insert", straight_at_2)
    assert 2 <= bijections.SPLIT_LEVEL < 5
    with pytest.raises(bijections._Unpeeled):
        bijections.certificate_roots(map_id, 5)
    rep = verify_bijection(map_id, 5)
    assert not rep.injective and not rep.image_complete and rep.weight_preserving


@pytest.mark.parametrize("map_id", ["phi", "psi"])
@pytest.mark.parametrize("n", range(7))
def test_given_tallies_make_the_whole_certificate(monkeypatch, map_id, n):
    # tallies made anywhere give the report of the walk verify_bijection
    # makes itself, and walk nothing more; one subtree whose edge fails
    # raises, and sends the walk verify_bijection makes to the image walk
    roots = bijections.certificate_roots(map_id, n)
    tallies = [bijections.subtree_tally(map_id, n, root)[-1] for root in roots]
    assert all(type(tally) is Counter for tally in tallies)
    whole = verify_bijection(map_id, n)
    assert whole.all_ok and whole.walk == "edges"
    certificate_roots = bijections.certificate_roots
    subtree_tally = bijections.subtree_tally
    monkeypatch.setattr(bijections, "certificate_roots", None)
    monkeypatch.setattr(bijections, "subtree_tally", None)
    given = verify_bijection(map_id, n, tallies[::-1])
    assert given == whole and given.walk == "edges"

    def failing_last(map_id, n, root):
        if root == roots[-1]:
            raise bijections._Unpeeled
        return subtree_tally(map_id, n, root)

    monkeypatch.setattr(bijections, "certificate_roots", certificate_roots)
    monkeypatch.setattr(bijections, "subtree_tally", failing_last)
    monkeypatch.setattr(bijections, "_image_walk", lambda *args: args)
    assert verify_bijection(map_id, n) == (map_id, n)


def _repaired(partners):
    """The partner tuple with its first two blocks paired the two other
    ways; none if it has fewer blocks."""
    blocks = bijections._blocks(partners)
    if len(blocks) < 2:
        return []
    (a, b), (c, d) = blocks[:2]
    out = []
    for p, q, r, s in ((a, c, b, d), (a, d, b, c)):
        t = list(partners)
        t[p], t[q], t[r], t[s] = q, p, s, r
        out.append(tuple(t))
    return out


@pytest.mark.parametrize("map_id", ["phi", "psi"])
def test_leaves_weigh_right_and_moved_states_wrong(map_id):
    # every leaf of the domain walk weighs right; one flipped bit of the
    # index mask never does, and two blocks of one matching paired another
    # way do iff the counted tops keep their number
    weighs = getattr(bijections, f"_{map_id}_weighs")
    children = bijections._domain_tree(map_id)[2]

    def tops(partners, parity):  # el (parity 0) or ol (parity 1)
        return sum(b & 1 == parity for _, b in bijections._blocks(partners))

    wrong = 0
    for n in range(6):
        for word, state in walk(children, n, ((), bijections._EMPTY)):
            assert weighs(word, state)
            s1, s2, mask = state
            for v in range(n + 2):
                assert not weighs(word, (s1, s2, mask ^ 1 << v))
            for f, parity in ((0, 0), (1, int(map_id == "psi"))):
                for moved in _repaired(state[f]):
                    same = tops(moved, parity) == tops(state[f], parity)
                    pair = (moved, s2) if f == 0 else (s1, moved)
                    assert weighs(word, (*pair, mask)) == same
                    wrong += not same
    assert wrong > 1000


@st.composite
def _grown(draw):
    """A map and a word of its domain, grown along a random path of the
    domain's insertion tree."""
    map_id = draw(st.sampled_from(["phi", "psi"]))
    tree = (objects._decorated_children if map_id == "phi"
            else objects._signed_children)
    word = ()
    for m in range(1, draw(st.integers(0, 40)) + 1):
        kids = tree(word, m)
        word = kids[draw(st.integers(0, len(kids) - 1))]
    return map_id, word


@given(_grown())
def test_peel_inverts_each_insertion(case):
    map_id, word = case
    steps = []
    insert = bijections._insert

    def recording(state, m, *rest):
        child = insert(state, m, *rest)
        steps.append((state, m, child))
        return child

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bijections, "_insert", recording)
        if map_id == "phi":
            phi_map(DecoratedPermutation(word))
        else:
            psi_map(SignedPermutation(word))
    assert [m for _, m, _ in steps] == list(range(1, len(word) + 1))
    for state, m, child in steps:
        parent, key, gained = bijections.peel(child, m)
        assert parent == state
        assert key & 1 == child[2] >> m & 1
        el = [sum(not b & 1 for _, b in bijections._blocks(t)) for t in child[:2]]
        was = [sum(not b & 1 for _, b in bijections._blocks(t)) for t in state[:2]]
        assert sum(el) - sum(was) == gained


def test_peel_of_each_child():
    # the three ways 2 enters the second matching (1,2), and one way into
    # the first: each peels back to the parent, under its own key, with
    # the even tops gained
    parent = ((0,), (0, 2, 1), 0)
    # (1,3)(2,4): the points 3, 4 link to 1, 2; the merged top 2 is even
    assert bijections.peel(((0,), (0, 3, 4, 1, 2), 0), 2) == (parent, 12, 0)
    # (1,4)(2,3): crossed, so (a, c) = (2, 1)
    assert bijections.peel(((0,), (0, 4, 3, 2, 1), 0), 2) == (parent, 18, 0)
    # (1,2)(3,4): appended, one even top gained
    assert bijections.peel(((0,), (0, 2, 1, 4, 3), 0), 2) == (parent, 0, 1)
    assert bijections.peel(((0, 2, 1), (0, 2, 1), 0b100), 2) == (parent, 1, 1)
    # (1,4)(2,5)(3,6) from (1,4)(2,3), its block (2,3) split: the merged
    # top 3 is odd, so an even top was gained
    assert bijections.peel(((0,), (0, 4, 5, 6, 1, 2, 3), 0), 3) == (
        ((0,), (0, 4, 3, 2, 1), 0), 2 * (2 * 6 + 3), 1)


@pytest.mark.parametrize("state", [
    ((0,), (0,), 0),                 # no block took 2
    ((0,), (0, 2, 1, 4), 0),         # the top 4 is missing
    ((0,), (0, 3, 4, 2, 1), 0),      # 3 -> 2 but 2 -> 4: no involution
    ((0,), (0, 2, 1, 3, 4), 0),      # 3 and 4 are fixed points
    ((0,), (0, 3, 4, 1, 1), 0),      # a = c = 1
    ((0,), (0, 2, 1, 4, 4), 0),      # the appended block links one way
    ((0,), (0, 4, 3, -3, 1), 0),     # 3 -> -3, read as 2 from the end
], ids=["empty", "missing-top", "non-involution", "fixed-point", "a-equals-c",
        "one-way", "negative"])
def test_peel_is_strict(state):
    with pytest.raises(ValueError):
        bijections.peel(state, 2)


@pytest.mark.parametrize("map_id", ["phi", "psi"])
def test_certificate_keeps_no_image_set(map_id):
    # one image per leaf would take about 0.6 MiB at n = 5 (3840 leaves)
    assert verify_bijection(map_id, 2).all_ok  # imports and caches
    tracemalloc.start()
    try:
        assert verify_bijection(map_id, 5).all_ok
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.1 * 2 ** 20
