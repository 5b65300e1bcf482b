import pytest

from combi import bijections
from combi.bijections import (encode_triple, phi_map, psi_map,
                              verify_bijection)
from combi.objects import (CapacityError, DecoratedPermutation,
                           SignedPermutation, generate, parse,
                           stats_decorated, stats_matching, stats_signed,
                           walk)

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


def test_maps_reject_invalid_input():
    with pytest.raises(ValueError):
        phi_map(DecoratedPermutation(((1, False, True),)))
    with pytest.raises(ValueError):
        psi_map(SignedPermutation((1, 1)))


def test_triple_shapes():
    for w in generate("decorated", 4):
        t = phi_map(w)
        st = stats_decorated(w)
        assert t.k == len(t.index_set) == st["hat"]
        assert len(t.first.blocks) == st["hat"]
        assert len(t.second.blocks) == 4 - st["hat"]
        assert t.index_set == frozenset(st["hat_value_set"])
        assert st["asc"] == (stats_matching(t.first)["el"]
                             + stats_matching(t.second)["el"])


def test_psi_weights():
    for pi in generate("signed", 4):
        t = psi_map(pi)
        st = stats_signed(pi)
        assert t.index_set == frozenset(abs(v) for v in st["bar_set"])
        assert st["des_B"] == (stats_matching(t.first)["el"]
                               + stats_matching(t.second)["ol"])


@pytest.mark.parametrize("map_id,n", [("phi", 1), ("phi", 3), ("phi", 4),
                                      ("psi", 1), ("psi", 3), ("psi", 4)])
def test_exhaustive_small(map_id, n):
    rep = verify_bijection(map_id, n)
    assert rep.all_ok, rep


def test_peel_replay_matches_stepwise_construction():
    # mapping the finished object must reproduce the state reached by
    # building it one insertion at a time
    root = ((), bijections._EMPTY)
    for word, state in walk(bijections._domain_tree("phi")[2], 4, root):
        t = phi_map(DecoratedPermutation(word))
        assert (t.first.blocks, t.second.blocks, _mask(t.index_set)) == state
    for word, state in walk(bijections._domain_tree("psi")[2], 4, root):
        t = psi_map(SignedPermutation(word))
        assert (t.first.blocks, t.second.blocks, _mask(t.index_set)) == state


def _mask(values) -> int:
    return sum(1 << v for v in values)


def test_capacity_guard():
    with pytest.raises(CapacityError):
        verify_bijection("phi", 9)
    with pytest.raises(ValueError):
        verify_bijection("nope", 2)


@pytest.mark.parametrize("map_id,counterexample", [
    ("phi", ("4 2 1 3h", "[(1,2)] [(1,3)(2,5)(4,6)] {0}")),
    ("psi", ("4 2 1 -3", "[(1,2)] [(1,3)(2,5)(4,6)] {0}")),
], ids=["phi", "psi"])
def test_moved_index_caught(monkeypatch, map_id, counterexample):
    # a step rule that records 0 in place of 3 keeps k, the statistic and
    # injectivity; only the index set check on every leaf can see it
    name = f"_{map_id}_step"
    step = getattr(bijections, name)

    def moved(word, state, m, *rest):
        s1, s2, iset = step(word, state, m, *rest)
        if m == 3 and iset >> 3 & 1:
            iset ^= 1 << 3 | 1
        return s1, s2, iset

    monkeypatch.setattr(bijections, name, moved)
    rep = verify_bijection(map_id, 4)
    assert rep.injective and rep.image_complete
    assert not rep.weight_preserving
    assert rep.counterexample == counterexample


@pytest.mark.parametrize("map_id,repeated", [("phi", "4c 3 2 1"),
                                             ("psi", "-4 3 2 1")],
                         ids=["phi", "psi"])
def test_split_block_mutants_caught(monkeypatch, map_id, repeated):
    split = bijections._split_block

    def always_straight(blocks, use_marked, p, lo, straight):
        return split(blocks, use_marked, p, lo, True)

    def swapped(blocks, use_marked, p, lo, straight):
        try:
            return split(blocks, not use_marked, p, lo, straight)
        except ValueError:  # no p-th block of the other kind
            return split(blocks, use_marked, p, lo, straight)

    monkeypatch.setattr(bijections, "_split_block", always_straight)
    rep = verify_bijection(map_id, 4)
    assert not rep.injective and not rep.image_complete
    assert rep.weight_preserving
    assert rep.counterexample == (repeated, "[] [(1,3)(2,5)(4,7)(6,8)] {}")

    monkeypatch.setattr(bijections, "_split_block", swapped)
    rep = verify_bijection(map_id, 4)
    assert rep.injective and rep.image_complete
    assert not rep.weight_preserving
    assert rep.counterexample == ("4 3 2 1", "[] [(1,7)(2,4)(3,6)(5,8)] {}")
