from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from combi.poly import CapacityError, X
from combi.families import stat_distribution
from combi.objects import (CycleStirling, DecoratedPermutation,
                           InversionSequence, PerfectMatching, Permutation,
                           SignedPermutation, StirlingWord, class_count,
                           count_paired_excedance_involutions,
                           double_factorial, encode, generate, parse,
                           reduce_word, stats_cycle_stirling,
                           stats_decorated, stats_inversion, stats_matching,
                           stats, stats_permutation, stats_signed,
                           stats_stirling, validate)


# ---------------------------------------------------------------------------
# generation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("cls,n", [
    ("permutation", 5), ("signed", 4), ("matching", 5), ("stirling", 5),
    ("stirling2", 5), ("decorated", 4),
])
def test_counts_and_validity(cls, n):
    objs = list(generate(cls, n))
    assert len(objs) == class_count(cls, n)
    assert len(set(objs)) == len(objs)
    assert all(validate(o) for o in objs)


def test_invseq_generation():
    s = (1, 3, 5)
    objs = list(generate("invseq", 3, s))
    assert len(objs) == 15 == class_count("invseq", 3, s)
    assert all(validate(o) for o in objs)
    with pytest.raises(ValueError):
        generate("invseq", 3, None)
    with pytest.raises(ValueError):
        generate("permutation", 0)


@pytest.mark.parametrize("cls,n,s,message", [
    pytest.param("invseq", 3, None, "need a bound sequence s", id="invseq-no-s"),
    pytest.param("invseq", 3, (1, 2), "length n with entries >= 1",
                 id="invseq-short-s"),
    pytest.param("invseq", 2, (2, 0), "length n with entries >= 1",
                 id="invseq-zero-bound"),
    pytest.param("matching", -1, None, "n must be >= 0", id="matching"),
    pytest.param("stirling", -2, None, "n must be >= 0", id="stirling"),
    pytest.param("stirling2", -1, None, "n must be >= 0", id="stirling2"),
    pytest.param("permutation", -1, None, "n must be >= 0", id="permutation"),
    pytest.param("signed", -3, None, "n must be >= 0", id="signed"),
    pytest.param("decorated", -1, None, "n must be >= 0", id="decorated"),
    pytest.param("nope", 2, None, "unknown object class", id="unknown-class"),
])
def test_class_count_rejects_bad_sizes(cls, n, s, message):
    with pytest.raises(ValueError, match=message):
        class_count(cls, n, s)
    if cls == "invseq":  # generate shares the check and its message
        with pytest.raises(ValueError, match=message):
            generate(cls, n, s)


def test_class_count_of_empty_objects():
    for cls in ("permutation", "signed", "matching", "stirling", "stirling2",
                "decorated"):
        assert class_count(cls, 0) == 1
    assert class_count("invseq", 0, ()) == 1


# The first insertion tree levels, in the order generate has always used.
@pytest.mark.parametrize("cls,want", [
    ("stirling", ["2 2 1 1", "1 2 2 1", "1 1 2 2"]),
    ("stirling2", ["(1 2 2 1)", "(1 1 2 2)", "(1 1)(2 2)"]),
    ("decorated", ["2 1", "2c 1", "1 2", "1 2h", "2h 1h", "2hc 1h", "1h 2",
                   "1h 2h"]),
])
def test_tree_order_n2(cls, want):
    assert [encode(o) for o in generate(cls, 2)] == want


def _drop_value(word, n):
    return tuple(e for e in word if e != n)


def _drop_block(blocks, top):
    j = next(a for a, b in blocks if b == top)
    return PerfectMatching(tuple((a - (a > j), b - (b > j))
                                 for a, b in blocks if b != top))


# Removing the top insertion: the value n (its pair, for Stirling words and
# cycle forms), or the block that holds 2n, the points above its partner
# moved down by one.
_PARENT = {
    "permutation": lambda o, n: Permutation(_drop_value(o.word, n)),
    "signed": lambda o, n: SignedPermutation(
        tuple(v for v in o.word if abs(v) != n)),
    "matching": lambda o, n: _drop_block(o.blocks, 2 * n),
    "stirling": lambda o, n: StirlingWord(_drop_value(o.word, n)),
    "stirling2": lambda o, n: CycleStirling(tuple(
        c for c in (_drop_value(c, n) for c in o.cycles) if c)),
    "decorated": lambda o, n: DecoratedPermutation(
        tuple(e for e in o.entries if e[0] != n)),
}
_CHILDREN_PER_PARENT = {"permutation": lambda n: n, "signed": lambda n: 2 * n,
                        "matching": lambda n: 2 * n - 1,
                        "stirling": lambda n: 2 * n - 1,
                        "stirling2": lambda n: 2 * n - 1,
                        "decorated": lambda n: 2 * n}


@pytest.mark.parametrize("cls", list(_PARENT))
def test_unique_parent(cls):
    # each object of size n is valid, new, and has one parent of size n - 1,
    # and every object of size n - 1 is the parent of the same number of them
    for n in range(2, 6):
        objs = list(generate(cls, n))
        assert len(set(objs)) == len(objs) and all(map(validate, objs))
        parents = Counter(_PARENT[cls](o, n) for o in objs)
        want = _CHILDREN_PER_PARENT[cls](n)
        assert parents == {p: want for p in generate(cls, n - 1)}, (cls, n)


def test_stirling2_listing_n2():
    got = {encode(o) for o in generate("stirling2", 2)}
    assert got == {"(1 1)(2 2)", "(1 1 2 2)", "(1 2 2 1)"}


def test_stirling2_listing_n3():
    want = {
        "(1 1)(2 2)(3 3)", "(1 1)(2 2 3 3)", "(1 1)(2 3 3 2)",
        "(1 1 3 3)(2 2)", "(1 3 3 1)(2 2)", "(1 1 2 2)(3 3)",
        "(1 1 2 2 3 3)", "(1 1 2 3 3 2)", "(1 1 3 3 2 2)",
        "(1 3 3 1 2 2)", "(1 2 2 1)(3 3)", "(1 2 2 1 3 3)",
        "(1 2 2 3 3 1)", "(1 2 3 3 2 1)", "(1 3 3 2 2 1)",
    }
    got = {encode(o) for o in generate("stirling2", 3)}
    assert got == want


def test_decorated_listing_n2():
    want = {"1 2", "1 2h", "1h 2", "1h 2h", "2 1", "2c 1", "2h 1h", "2hc 1h"}
    assert {encode(o) for o in generate("decorated", 2)} == want


def test_decorated_children_of_worked_word():
    # the ten insertions of value 5 into 3h 1h 4 2
    parent = parse("decorated", "3h 1h 4 2")
    kids = set()
    for w in generate("decorated", 5):
        reduced = tuple(e for e in w.entries if e[0] < 5)
        if reduced == parent.entries:
            kids.add(encode(w))
    assert kids == {
        "3h 1h 4 2 5", "3h 1h 4 2 5h", "3h 1h 4 5 2", "3h 1h 4 5c 2",
        "3h 1h 5 4 2", "3h 1h 5c 4 2", "3h 5h 1h 4 2", "3h 5hc 1h 4 2",
        "5h 3h 1h 4 2", "5hc 3h 1h 4 2",
    }


def test_double_factorial():
    assert [double_factorial(n) for n in range(6)] == [1, 1, 3, 15, 105, 945]


# ---------------------------------------------------------------------------
# validation negatives
# ---------------------------------------------------------------------------

def test_validate_rejects_bad_stirling():
    assert not validate(StirlingWord((1, 2, 1, 2)))
    assert validate(StirlingWord((1, 2, 2, 1)))


def test_validate_rejects_bad_cycle_stirling():
    assert validate(CycleStirling(((1, 2, 2, 1), (3, 3))))
    # value split across cycles
    assert not validate(CycleStirling(((1, 2), (1, 2))))
    # cycles out of min order
    assert not validate(CycleStirling(((2, 2), (1, 1))))
    # cycle not starting at its minimum
    assert not validate(CycleStirling(((2, 1, 1, 2),)))
    # inner word fails the betweenness condition after reduction
    assert not validate(CycleStirling(((1, 3, 1, 3, 2, 2),)))


def test_decorated_peeling_rules():
    # circled final entry breaks the end-insertion rule
    assert not validate(DecoratedPermutation(((1, False, False),
                                              (2, False, True))))
    # hat flag of the inserted maximum must copy its successor
    assert not validate(DecoratedPermutation(((2, True, False),
                                              (1, False, False))))
    assert validate(DecoratedPermutation(((2, False, True), (1, False, False))))
    # value 1 can never carry a circle
    assert not validate(DecoratedPermutation(((1, False, True),)))


def test_validate_rejects_bad_matching():
    assert not validate(PerfectMatching(((1, 2), (3, 3))))
    assert not validate(PerfectMatching(((2, 4), (1, 3))))  # not standard form
    assert not validate(PerfectMatching(((2, 1),)))


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

def test_stats_matching():
    assert stats_matching(parse("matching", "(1,2)(3,4)")) == {"el": 2, "ol": 0}
    assert stats_matching(parse("matching", "(1,3)(2,4)")) == {"el": 1, "ol": 1}
    assert stats_matching(parse("matching", "(1,4)(2,3)")) == {"el": 1, "ol": 1}
    dist = stat_distribution("matching", 2, (("el", "x"),))
    assert dist == 2 * X + X ** 2


def test_stats_stirling_examples():
    assert stats_stirling(StirlingWord((4, 4, 2, 2, 3, 3, 1, 1)))["desi"] == 3
    assert stats_stirling(StirlingWord((1, 1, 3, 3, 2, 2)))["desi"] == 1
    st_ = stats_stirling(StirlingWord((2, 2, 1, 1, 3, 3)))
    assert st_["ap"] == 2
    assert st_["desi"] == 2
    assert stats_stirling(StirlingWord((1, 1, 2, 2)))["descents"] == 1
    assert stats_stirling(StirlingWord((2, 2, 1, 1)))["descents"] == 2


def test_stats_cycle_stirling_examples():
    st_ = stats_cycle_stirling(parse("stirling2", "(1 2 2 1)(3 3)"))
    assert st_ == {"cplat": 2, "casc": 1, "cap": 1, "cyc": 2, "fix": 1}
    st2 = stats_cycle_stirling(parse("stirling2", "(1 1)(2 2)"))
    assert st2["cap"] == 0 and st2["cyc"] == 2 and st2["fix"] == 2
    assert stats_cycle_stirling(parse("stirling2", "(1 1 3 3)(2 2)"))["fix"] == 1
    dist = stat_distribution("stirling2", 2, (("cap", "x"), ("cyc", "q")))
    from combi.poly import Q
    assert dist == Q ** 2 + 2 * Q * X


def test_stats_signed_worked_example():
    pi = parse("signed", "-3 -1 4 2 -6 7 -5")
    st_ = stats_signed(pi)
    assert st_["blocks"] == ((-3, -1), (4, 2), (-6, 7, -5))
    assert st_["bar_set"] == {-6, -5, -3, -1, 7}
    assert st_["bar"] == 5
    assert st_["nbar_set"] == {2, 4}
    assert st_["rlmin"] == 3
    assert st_["des_B"] == 4


def test_stats_signed_identity():
    pi = SignedPermutation(tuple(range(1, 6)))
    st_ = stats_signed(pi)
    assert st_["des_B"] == 0 and st_["rlmin"] == 5 and st_["bar"] == 0
    dist = stat_distribution("signed", 2, (("rlmin", "x"),))
    assert dist == 4 * X ** 2 + 4 * X


def test_stats_decorated():
    w = parse("decorated", "5hc 3h 1h 4 2")
    st_ = stats_decorated(w)
    assert st_["hat_value_set"] == {1, 3, 5}
    assert st_["hat"] == 3
    plain = DecoratedPermutation(tuple((v, False, False) for v in range(1, 6)))
    assert stats_decorated(plain)["asc"] == 5
    dist = stat_distribution("decorated", 2, (("asc", "x"),))
    assert dist == 4 * X + 4 * X ** 2


def test_stats_permutation():
    st_ = stats_permutation(Permutation((3, 2, 1)))
    assert st_["des_A"] == 2 and st_["exc"] == 1 and st_["anti_exc"] == 1
    dist = stat_distribution("permutation", 3, (("des_A", "x"),))
    assert dist == 1 + 4 * X + X ** 2
    der = stat_distribution("permutation", 3, (("exc", "x"),),
                            where=lambda s: s["exc"] + s["anti_exc"] == 3)
    assert der == X + X ** 2


def test_stats_inversion():
    assert stats_inversion(InversionSequence((1,), (2,)))["asc"] == 1
    assert stats_inversion(InversionSequence((0,), (2,)))["asc"] == 0
    assert stats_inversion(InversionSequence((0, 2), (1, 3)))["asc"] == 1
    from combi.families import invseq_distribution
    assert invseq_distribution((2,)) == 1 + X
    assert invseq_distribution((1, 3, 5)) == 1 + 10 * X + 4 * X ** 2


def test_reduce():
    assert reduce_word((3, 3, 2, 2, 4, 5, 4, 7)) == (2, 2, 1, 1, 3, 4, 3, 5)
    assert reduce_word((1, 1)) == (1, 1)


@given(st.lists(st.integers(1, 9), min_size=1, max_size=8))
def test_reduce_idempotent(word):
    assert reduce_word(reduce_word(word)) == reduce_word(tuple(word))


def test_paired_excedance_involutions():
    assert count_paired_excedance_involutions(0) == 1
    assert count_paired_excedance_involutions(1) == 2
    assert count_paired_excedance_involutions(2) == 28
    with pytest.raises(CapacityError):
        count_paired_excedance_involutions(3)


# ---------------------------------------------------------------------------
# encodings
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("cls,n,s", [
    ("permutation", 4, None), ("signed", 3, None), ("matching", 3, None),
    ("stirling", 3, None), ("stirling2", 3, None), ("decorated", 3, None),
    ("invseq", 3, (2, 4, 6)),
])
def test_encode_parse_roundtrip(cls, n, s):
    for obj in generate(cls, n, s):
        enc = encode(obj)
        back = parse(cls, enc)
        assert back == obj
        assert encode(back) == enc


@pytest.mark.parametrize("cls", ["permutation", "signed", "matching",
                                 "stirling", "stirling2", "decorated"])
def test_parse_empty_word(cls):
    obj = parse(cls, "")
    assert validate(obj)
    assert encode(obj) == ""
    st_ = stats(obj)  # the leading virtual 0 starts no descent and no ascent
    if cls == "signed":
        assert st_["des_B"] == 0
    if cls == "decorated":
        assert st_["asc"] == 0


def test_parse_rejects_invalid():
    with pytest.raises(ValueError):
        parse("stirling", "1 2 1 2")
    with pytest.raises(ValueError):
        parse("matching", "(2,1)")
    with pytest.raises(ValueError):
        parse("nonsense", "1")
    for cls in ("matching", "stirling2"):
        for text in ("(1,2", "(1,2,3)"):
            with pytest.raises(ValueError,
                               match=fr"^malformed {cls} encoding: '\(1,2"):
                parse(cls, text)
