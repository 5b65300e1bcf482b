import random
import re
from collections import Counter

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from combi import bijections, families, objects, verify
from combi.poly import CapacityError, X
from combi.families import h_values, stat_distribution
from combi.objects import (CycleStirling, DecoratedPermutation,
                           InversionSequence, PerfectMatching, Permutation,
                           SignedPermutation, StirlingWord, class_count,
                           count_paired_excedance_involutions,
                           double_factorial, encode, generate, leaves, parse,
                           stats, validate)
from combi.objects import CLASS_NAMES, INT_STAT_NAMES, class_functions


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
    assert list(generate("permutation", 0)) == [Permutation(())]


@pytest.mark.parametrize("cls,n,s,message", [
    pytest.param("invseq", 3, None, "need a bound sequence s", id="invseq-no-s"),
    pytest.param("invseq", 3, (1, 2), "length n with entries >= 1",
                 id="invseq-short-s"),
    pytest.param("invseq", 2, (2, 0), "length n with entries >= 1",
                 id="invseq-zero-bound"),
    # a float bound used to give a float count, and True to count as 1
    pytest.param("invseq", 2, (1.5, 2), "that are ints",
                 id="invseq-float-bound"),
    pytest.param("invseq", 2, (True, 2), "that are ints",
                 id="invseq-bool-bound"),
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


@pytest.mark.parametrize("n", [2.5, True, 2.0, "2"],
                         ids=["float", "bool", "integral-float", "str"])
def test_sizes_that_are_not_ints_rejected(n):
    # a float used to act as its floor and True as 1
    for cls in CLASS_NAMES:
        s = (1,) * 2 if cls == "invseq" else None
        with pytest.raises(ValueError, match="^n must be an int, got "):
            generate(cls, n, s)
        with pytest.raises(ValueError, match="^n must be an int, got "):
            class_count(cls, n, s)


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


def _cycle_form_by_definition(cycles) -> bool:
    """The definition of a cycle form, checked value by value: non-empty
    tuple cycles of ints; both copies of each of 1..N in one cycle, with
    only larger values between them; each cycle led by its minimum; the
    minima increasing."""
    if any(type(c) is not tuple or not c for c in cycles):
        return False
    values = [v for c in cycles for v in c]
    if any(type(v) is not int for v in values):
        return False
    n = len(values) // 2
    if len(values) != 2 * n:
        return False
    for v in range(1, n + 1):
        homes = [c for c in cycles if v in c]
        if len(homes) != 1 or homes[0].count(v) != 2:
            return False
        first = homes[0].index(v)
        second = homes[0].index(v, first + 1)
        if any(w < v for w in homes[0][first + 1:second]):
            return False
    if any(c[0] != min(c) for c in cycles):
        return False
    return all(a[0] < b[0] for a, b in zip(cycles, cycles[1:]))


_CYCLE_FORMS = [list(generate("stirling2", n)) for n in range(5)]


@st.composite
def _edited_cycle_forms(draw):
    """A cycle form of n <= 4 with up to three edits: entries swapped,
    moved to another cycle, dropped, doubled or replaced by a non-int or
    an int out of range; a cycle rotated or joined to the end of another;
    an empty cycle inserted; the cycles reordered."""
    n = draw(st.integers(0, 4))
    cycles = [list(c) for c in draw(st.sampled_from(_CYCLE_FORMS[n])).cycles]
    for _ in range(draw(st.integers(0, 3))):
        places = [(i, j) for i, c in enumerate(cycles) for j in range(len(c))]
        edit = draw(st.sampled_from(("swap", "move", "drop", "double", "odd",
                                     "rotate", "join", "empty", "reorder")))
        if edit in ("swap", "move", "drop", "double", "odd", "rotate"):
            if not places:
                continue
            i, j = draw(st.sampled_from(places))
        if edit == "swap":
            k, m = draw(st.sampled_from(places))
            cycles[i][j], cycles[k][m] = cycles[k][m], cycles[i][j]
        elif edit == "move":
            k = draw(st.integers(0, len(cycles) - 1))
            v = cycles[i].pop(j)
            cycles[k].insert(draw(st.integers(0, len(cycles[k]))), v)
        elif edit == "drop":
            del cycles[i][j]
        elif edit == "double":
            cycles[i].insert(j, cycles[i][j])
        elif edit == "odd":
            cycles[i][j] = draw(st.sampled_from(
                (1.0, 2.0, True, "1", None, 0, -1, n + 1)))
        elif edit == "rotate":
            cycles[i] = cycles[i][1:] + cycles[i][:1]
        elif edit == "join":
            if len(cycles) > 1:
                i, k = draw(st.permutations(range(len(cycles))))[:2]
                cycles[i] += cycles[k]
                del cycles[k]
        elif edit == "empty":
            cycles.insert(draw(st.integers(0, len(cycles))), [])
        else:
            cycles = list(draw(st.permutations(cycles)))
    return tuple(map(tuple, cycles))


@given(_edited_cycle_forms())
@example(((1, 2, 2.0, 1),))  # a non-int entry
@example(((True, True),))
@example(((1, 2), (1, 2)))  # a value split across two cycles
@example(((1, 1, 2), (2,)))
@example(((2, 2), (1, 1)))  # minima out of order
@example(((1, 1), (3, 3), (2, 2)))
@example(((2, 2, 1, 1),))  # a Stirling word not led by its minimum
@example(((),))  # empty cycles
@example(((1, 1), ()))
@example(((), (1, 1)))
@example(((1, 2, 2, 1), (3, 3)))  # valid
def test_cycle_form_validator_matches_the_definition(cycles):
    assert validate(CycleStirling(cycles)) is _cycle_form_by_definition(cycles)


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


@pytest.mark.parametrize("obj", [
    Permutation((True,)), Permutation((1.0,)), Permutation((2, 1.0)),
    SignedPermutation((True,)), SignedPermutation((-1.0,)),
    StirlingWord((1.0, 1.0)), StirlingWord((True, 1)),
    PerfectMatching(((1, 2.0),)), PerfectMatching(((True, 2),)),
    InversionSequence((False,), (1,)), InversionSequence((0,), (1.0,)),
    CycleStirling(((True, True),)), CycleStirling(((1, 1.0),)),
    DecoratedPermutation(((1.0, False, False),)),
    DecoratedPermutation(((True, False, False),)),
    DecoratedPermutation(((1, 0, 0),)), DecoratedPermutation(((1, 1, False),)),
    DecoratedPermutation(((2, False, True), (1, False, 0))),
], ids=repr)
def test_entries_that_are_not_ints_are_invalid(obj):
    # each equals a valid object, but its encoding (True, 1.0, (1,2.0),
    # ...) does not parse, and the maps must not take it
    assert not validate(obj)
    if isinstance(obj, DecoratedPermutation):
        with pytest.raises(ValueError, match="^invalid decorated"):
            bijections.phi_map(obj)


@pytest.mark.parametrize("obj", [
    PerfectMatching(((1, 2, 3), (4,))), DecoratedPermutation(((1, False),)),
    PerfectMatching((1, 2)), DecoratedPermutation((1,)),
    CycleStirling((1, 1)), StirlingWord(None), Permutation(None),
    InversionSequence(1, (1,)), SignedPermutation(None),
    DecoratedPermutation(None), CycleStirling(((),)),
], ids=repr)
def test_shapes_parse_never_builds_are_invalid(obj):
    # a field that is not a tuple, or a block, cycle or entry that is not
    # a tuple of the right length, raised from unpacking or iterating
    assert validate(obj) is False
    if isinstance(obj, DecoratedPermutation):
        with pytest.raises(ValueError, match="^invalid decorated"):
            bijections.phi_map(obj)
    if isinstance(obj, SignedPermutation):
        with pytest.raises(ValueError, match="^invalid signed"):
            bijections.psi_map(obj)


@pytest.mark.parametrize("cls", CLASS_NAMES)
def test_every_small_object_parses_back(cls):
    for n in range(5):
        s = tuple(range(1, n + 1)) if cls == "invseq" else None
        for obj in generate(cls, n, s):
            assert parse(cls, encode(obj)) == obj


def _old_stirling_property(word) -> bool:
    """The validator's rule before its one-pass stack: each value twice,
    everything between its copies larger, found by scanning."""
    first, second = {}, {}
    for i, v in enumerate(word):
        if v not in first:
            first[v] = i
        elif v not in second:
            second[v] = i
        else:
            return False
    return len(second) == len(first) and all(
        word[i] > v for v in first for i in range(first[v] + 1, second[v]))


def _old_validate_decorated(entries) -> bool:
    """The validator's rule before its one pass: pop the largest entry,
    which must copy the hat of the entry after it, or be uncircled at the
    end."""
    if sorted(v for v, _, _ in entries) != list(range(1, len(entries) + 1)):
        return False
    work = list(entries)
    while work:
        i = work.index(max(work))
        if i == len(work) - 1 and work[i][2]:
            return False
        if i < len(work) - 1 and work[i][1] != work[i + 1][1]:
            return False
        work.pop(i)
    return True


def _perturbed(rng, seq):
    """seq with two entries swapped, one entry doubled or one dropped."""
    seq = list(seq)
    i, j = rng.randrange(len(seq)), rng.randrange(len(seq))
    how = rng.randrange(3)
    if how == 0:
        seq[i], seq[j] = seq[j], seq[i]
    elif how == 1:
        seq[j] = seq[i]
    else:
        del seq[i]
    return tuple(seq)


def _probes(rng, obj):
    """obj, and copies of it with one perturbation."""
    yield obj
    if isinstance(obj, StirlingWord):
        yield StirlingWord(_perturbed(rng, obj.word))
    elif isinstance(obj, CycleStirling):
        c = rng.randrange(len(obj.cycles))
        cycles = list(obj.cycles)
        cycles[c] = _perturbed(rng, cycles[c]) or (1,)
        yield CycleStirling(tuple(cycles))
    else:
        entries = obj.entries
        yield DecoratedPermutation(_perturbed(rng, entries))
        i = rng.randrange(len(entries))
        v, hat, circle = entries[i]
        flipped = rng.choice(((v, not hat, circle), (v, hat, not circle)))
        yield DecoratedPermutation(entries[:i] + (flipped,) + entries[i + 1:])


def test_one_pass_validators_agree_with_the_old_ones():
    rng = random.Random(5)
    probes = [probe for cls in ("stirling", "stirling2", "decorated")
              for n in range(1, 6) for obj in generate(cls, n)
              for probe in _probes(rng, obj)]
    new = [validate(probe) for probe in probes]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(objects, "_stirling_property", _old_stirling_property)
        mp.setattr(objects, "_validate_decorated", _old_validate_decorated)
        old = [validate(probe) for probe in probes]
    assert new == old
    assert 0.2 < sum(new) / len(new) < 0.8  # both kinds are probed


def test_validate_rejects_bad_matching():
    assert not validate(PerfectMatching(((1, 2), (3, 3))))
    assert not validate(PerfectMatching(((2, 4), (1, 3))))  # not standard form
    assert not validate(PerfectMatching(((2, 1),)))


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("cls", CLASS_NAMES)
def test_stats_is_the_int_schema_plus_the_set_valued_extras(cls):
    ints = class_functions(cls)[1]
    names = INT_STAT_NAMES[cls]
    extras = {"signed": ("bar_set", "nbar_set", "blocks"),
              "decorated": ("hat_value_set",)}.get(cls, ())
    for n in range(6):
        s = tuple(range(1, n + 1)) if cls == "invseq" else None
        for obj, leaf in zip(generate(cls, n, s), zip(*leaves(cls, n, s)),
                             strict=True):
            assert tuple(vars(obj).values()) == leaf
            values = ints(*leaf)
            assert type(values) is tuple
            assert all(type(v) is int for v in values)
            st_ = stats(obj)
            assert list(st_) == [*names, *extras]
            assert dict(zip(names, values)) == {k: st_[k] for k in names}


_TABLE_CASES = [(cls, n, None) for cls in CLASS_NAMES if cls != "invseq"
                for n in range(6)] + [
    ("invseq", n, s) for n in range(6)
    for s in (tuple(range(1, n + 1)), tuple(range(1, 2 * n, 2)))]


@pytest.mark.parametrize("cls,n,s", _TABLE_CASES, ids=[
    f"{cls}-{n}" + ("" if s is None else "-s" + "".join(map(str, s)))
    for cls, n, s in _TABLE_CASES])
def test_table_counts_the_stat_function_over_generated_objects(cls, n, s):
    ints = class_functions(cls)[1]
    want = Counter(ints(*vars(obj).values()) for obj in generate(cls, n, s))
    assert families._joint_table(cls, n, s) == want
    assert sum(want.values()) == class_count(cls, n, s)


_OBJECT_TYPES = (Permutation, SignedPermutation, PerfectMatching,
                 StirlingWord, CycleStirling, DecoratedPermutation,
                 InversionSequence)


def test_tables_build_no_object(monkeypatch):
    def refuse(self, *args, **kwargs):
        raise AssertionError(f"a table built a {type(self).__name__}")

    for kind in _OBJECT_TYPES:
        monkeypatch.setattr(kind, "__init__", refuse)
    with pytest.raises(AssertionError, match="built a Permutation"):
        next(generate("permutation", 2))
    for cls in CLASS_NAMES:
        s = (1, 2, 3, 4) if cls == "invseq" else None
        assert sum(families._joint_table(cls, 4, s).values()) == class_count(
            cls, 4, s)
    assert stat_distribution("stirling2", 3, (("cap", "x"),)).subs_num(
        "x", 1).const_value() == 15
    assert verify._fiber_histogram(3) == {8: 6}
    assert count_paired_excedance_involutions(1) == 2


def _matching_children_rebuilt(blocks, m):
    """Every child's head rebuilt from the parent's blocks: the reference
    for the incremental head of `objects._matching_children`."""
    top = 2 * m
    up = tuple([(a + 1, b + 1) for a, b in blocks])
    out = []
    p = 0
    for j in range(1, top):
        if p < len(blocks) and blocks[p][0] < j:
            p += 1
        head = tuple([blk if blk[1] < j else (blk[0], blk[1] + 1)
                      for blk in blocks[:p]])
        out.append(head + ((j, top),) + up[p:])
    return out


def test_matching_children_match_the_rebuilt_heads():
    nodes = [()]
    for m in range(1, 7):
        children = []
        for node in nodes:
            kids = objects._matching_children(node, m)
            assert kids == _matching_children_rebuilt(node, m), (node, m)
            children += kids
        nodes = children
    assert len(nodes) == double_factorial(6)


def test_stats_matching():
    assert stats(parse("matching", "(1,2)(3,4)")) == {"el": 2, "ol": 0}
    assert stats(parse("matching", "(1,3)(2,4)")) == {"el": 1, "ol": 1}
    assert stats(parse("matching", "(1,4)(2,3)")) == {"el": 1, "ol": 1}
    dist = stat_distribution("matching", 2, (("el", "x"),))
    assert dist == 2 * X + X ** 2


def test_stats_stirling_examples():
    assert stats(StirlingWord((4, 4, 2, 2, 3, 3, 1, 1)))["desi"] == 3
    assert stats(StirlingWord((1, 1, 3, 3, 2, 2)))["desi"] == 1
    st_ = stats(StirlingWord((2, 2, 1, 1, 3, 3)))
    assert st_["ap"] == 2
    assert st_["desi"] == 2
    assert stats(StirlingWord((1, 1, 2, 2)))["descents"] == 1
    assert stats(StirlingWord((2, 2, 1, 1)))["descents"] == 2


def test_stats_cycle_stirling_examples():
    st_ = stats(parse("stirling2", "(1 2 2 1)(3 3)"))
    assert st_ == {"cplat": 2, "casc": 1, "cap": 1, "cyc": 2, "fix": 1}
    st2 = stats(parse("stirling2", "(1 1)(2 2)"))
    assert st2["cap"] == 0 and st2["cyc"] == 2 and st2["fix"] == 2
    assert stats(parse("stirling2", "(1 1 3 3)(2 2)"))["fix"] == 1
    dist = stat_distribution("stirling2", 2, (("cap", "x"), ("cyc", "q")))
    from combi.poly import Q
    assert dist == Q ** 2 + 2 * Q * X


def test_stats_signed_worked_example():
    pi = parse("signed", "-3 -1 4 2 -6 7 -5")
    st_ = stats(pi)
    assert st_["blocks"] == ((-3, -1), (4, 2), (-6, 7, -5))
    assert st_["bar_set"] == {-6, -5, -3, -1, 7}
    assert st_["bar"] == 5
    assert st_["nbar_set"] == {2, 4}
    assert st_["rlmin"] == 3
    assert st_["des_B"] == 4


def test_stats_signed_identity():
    pi = SignedPermutation(tuple(range(1, 6)))
    st_ = stats(pi)
    assert st_["des_B"] == 0 and st_["rlmin"] == 5 and st_["bar"] == 0
    dist = stat_distribution("signed", 2, (("rlmin", "x"),))
    assert dist == 4 * X ** 2 + 4 * X


def test_stats_decorated():
    w = parse("decorated", "5hc 3h 1h 4 2")
    st_ = stats(w)
    assert st_["hat_value_set"] == {1, 3, 5}
    assert st_["hat"] == 3
    plain = DecoratedPermutation(tuple((v, False, False) for v in range(1, 6)))
    assert stats(plain)["asc"] == 5
    dist = stat_distribution("decorated", 2, (("asc", "x"),))
    assert dist == 4 * X + 4 * X ** 2


def test_stats_permutation():
    st_ = stats(Permutation((3, 2, 1)))
    assert st_["des_A"] == 2 and st_["exc"] == 1 and st_["anti_exc"] == 1
    dist = stat_distribution("permutation", 3, (("des_A", "x"),))
    assert dist == 1 + 4 * X + X ** 2
    der = stat_distribution("permutation", 3, (("exc", "x"),),
                            where=lambda s: s["exc"] + s["anti_exc"] == 3)
    assert der == X + X ** 2


def test_stats_inversion():
    assert stats(InversionSequence((1,), (2,)))["asc"] == 1
    assert stats(InversionSequence((0,), (2,)))["asc"] == 0
    assert stats(InversionSequence((0, 2), (1, 3)))["asc"] == 1
    assert stat_distribution("invseq", 1, (("asc", "x"),), s=(2,)) == 1 + X
    assert (stat_distribution("invseq", 3, (("asc", "x"),), s=(1, 3, 5))
            == 1 + 10 * X + 4 * X ** 2)


def test_paired_excedance_involutions():
    assert count_paired_excedance_involutions(0) == 1
    assert count_paired_excedance_involutions(1) == 2
    assert count_paired_excedance_involutions(2) == 28
    # n = 3 was refused before the one enumeration cap; n = 5 walks 19!!
    assert count_paired_excedance_involutions(3) == 1112 == h_values(3)[3]
    with pytest.raises(CapacityError, match="ENUM_CAP"):
        count_paired_excedance_involutions(5)
    with pytest.raises(ValueError, match=r"^n must be >= 0$"):
        count_paired_excedance_involutions(-1)


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


# Canonical text of each class, with two-digit integers in the permutation
# and signed words, the matchings and the bounds.
_CANONICAL = [(cls, encode(obj)) for cls, n, s in (
    ("matching", 5, None), ("stirling", 3, None), ("stirling2", 3, None),
    ("decorated", 3, None), ("invseq", 2, (3, 10)))
    for obj in generate(cls, n, s)]


@st.composite
def _canonical_text(draw):
    if draw(st.booleans()):
        return draw(st.sampled_from(_CANONICAL))
    word = draw(st.integers(0, 12).flatmap(
        lambda n: st.permutations(range(1, n + 1))))
    if draw(st.booleans()):
        return "permutation", encode(Permutation(tuple(word)))
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=len(word),
                          max_size=len(word)))
    return "signed", encode(SignedPermutation(
        tuple(v * e for v, e in zip(word, signs))))


def _respellings(digits: str, negative: bool):
    """Other spellings of the same integer that int() takes: non-ASCII
    digits, an underscore, a plus sign."""
    yield "".join(chr(0x0660 + int(c)) for c in digits)  # Arabic-Indic
    yield "".join(chr(0xFF10 + int(c)) for c in digits)  # fullwidth
    if len(digits) > 1:
        yield digits[0] + "_" + digits[1:]
    if not negative:
        yield "+" + digits


@given(_canonical_text(), st.data())
def test_parse_is_the_exact_inverse_of_encode(case, data):
    cls, text = case
    assert encode(parse(cls, text)) == text
    tokens = list(re.finditer(r"(-?)([0-9]+)", text))
    if not tokens:
        return
    tok = data.draw(st.sampled_from(tokens))
    for spelling in _respellings(tok[2], bool(tok[1])):
        assert int(tok[1] + spelling) == int(tok[0])
        bad = text[:tok.start(2)] + spelling + text[tok.end(2):]
        with pytest.raises(ValueError) as err:
            parse(cls, bad)
        assert str(err.value) == f"malformed {cls} encoding: {bad!r}"


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
    malformed = [(cls, text) for cls in ("matching", "stirling2")
                 for text in ("(1,2", "(1,2,3)")]
    malformed += [("permutation", "1 a"), ("signed", "1 -"),
                  ("stirling", "1 1.0"), ("decorated", "h"),
                  ("decorated", "1hh"), ("decorated", "1ch"),
                  ("decorated", "1 2x"), ("invseq", "0 1 | s = 1 q"),
                  ("invseq", "0 1 | t = 1 2"), ("invseq", "0 1 1 2")]
    for cls, text in malformed:
        with pytest.raises(ValueError) as err:
            parse(cls, text)
        assert str(err.value) == f"malformed {cls} encoding: {text!r}"


def test_parse_rejects_text_that_is_not_a_str():
    # None used to raise AttributeError from text.isascii()
    for text in (None, 3, b"1 2"):
        with pytest.raises(ValueError, match="^malformed signed encoding: "):
            parse("signed", text)


def test_generate_refuses_an_unknown_class_before_it_builds():
    # it used to raise KeyError: 'perm' from the class table
    with pytest.raises(ValueError, match="^unknown object class 'perm'$"):
        generate("perm", 2)


def test_parse_reads_leading_zeros_and_whitespace_runs():
    # encode writes one spelling; parse also reads these, by decision
    for cls, text, canonical in (("permutation", "01  2", "1 2"),
                                 ("matching", "(1,  02)", "(1,2)"),
                                 ("invseq", "00 1 | s = 1 2", "0 1 | s = 1 2")):
        assert encode(parse(cls, text)) == canonical
