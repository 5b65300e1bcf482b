"""The seven combinatorial object classes.

Generation, validation, statistics and canonical text encodings for:
permutations, signed permutations, perfect matchings, Stirling words,
cycle-form Stirling permutations of the second kind, decorated
permutations, and bounded inversion sequences.

Each class but the inversion sequences is one insertion tree, walked depth
first by `walk` holding one child list per level.  `leaves` streams the
bare word, block, cycle or entry tuple of each object (for inversion
sequences, e with its bounds s), `generate` wraps each in its class, and
the phi/psi certificates in `bijections` walk the decorated and signed trees.

Each class has an integer statistic schema: a fixed tuple of names
(`INT_STAT_NAMES`) and one function that takes a leaf and returns the
values in that order as a tuple of ints.  The statistic tables in
`families` count those tuples over `leaves`, building no object.  `stats`
hands an object's fields to the same function, zips the names with its
tuple and adds the set-valued statistics of signed (`bar_set`, `nbar_set`,
`blocks`) and decorated permutations (`hat_value_set`).  The statistics
are read off the finished leaf, never carried along the insertion tree.

Exhaustive routes first call `require_domain`, which raises `CapacityError`
past `ENUM_CAP` objects of the class at that size.  `generate` is uncapped.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from operator import gt, lt, mul

from .poly import CapacityError


# ---------------------------------------------------------------------------
# object types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Permutation:
    word: tuple[int, ...]


@dataclass(frozen=True)
class SignedPermutation:
    """Word of signed entries; magnitudes form a permutation of 1..n.

    A virtual entry 0 in front (position 0) is implied, never stored.
    """
    word: tuple[int, ...]


@dataclass(frozen=True)
class PerfectMatching:
    """Pairs (i, j) with i < j in standard form: first coordinates increase."""
    blocks: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class StirlingWord:
    """Word over {1,1,...,n,n}; entries between the two copies of i exceed i."""
    word: tuple[int, ...]


@dataclass(frozen=True)
class CycleStirling:
    """Cycle form: each cycle starts at its minimum, holds both copies of each
    of its values, reduces to a Stirling word; cycles sorted by minimum."""
    cycles: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class DecoratedPermutation:
    """Entries (value, hat, circle) built by max-insertion rules."""
    entries: tuple[tuple[int, bool, bool], ...]


@dataclass(frozen=True)
class InversionSequence:
    e: tuple[int, ...]
    s: tuple[int, ...]


# class name -> (object type, children function (for inversion sequences,
# the leaves of s), integer statistic function of a leaf, the names of its
# values in order, set-valued one or None).  The functions are named, not
# held, so that leaves, stats, the tables and the bijection certificates
# call whatever this module binds when they run.
_CLASSES = {
    "permutation": (Permutation, "_permutation_children", "int_stats_permutation",
                    ("des_A", "asc", "exc", "anti_exc", "rlmin"), None),
    "signed": (SignedPermutation, "_signed_children", "int_stats_signed",
               ("des_B", "rlmin", "bar"), "set_stats_signed"),
    "matching": (PerfectMatching, "_matching_children", "int_stats_matching",
                 ("el", "ol"), None),
    "stirling": (StirlingWord, "_stirling_children", "int_stats_stirling",
                 ("descents", "ap", "desi"), None),
    "stirling2": (CycleStirling, "_stirling2_children", "int_stats_stirling2",
                  ("cplat", "casc", "cap", "cyc", "fix"), None),
    "decorated": (DecoratedPermutation, "_decorated_children",
                  "int_stats_decorated", ("asc", "hat"), "set_stats_decorated"),
    "invseq": (InversionSequence, "_invseq_product", "int_stats_invseq",
               ("asc",), None),
}
CLASS_NAMES = tuple(_CLASSES)
INT_STAT_NAMES = {name: entry[3] for name, entry in _CLASSES.items()}
_STATS_BY_TYPE = {entry[0]: entry[2:] for entry in _CLASSES.values()}


def double_factorial(n: int) -> int:
    """(2n-1)!! -- the number of perfect matchings of [2n]."""
    out = 1
    for k in range(3, 2 * n, 2):
        out *= k
    return out


# ---------------------------------------------------------------------------
# generation: one insertion tree per class
# ---------------------------------------------------------------------------

def walk(children, n: int, root=()):
    """Every node of size n of the tree grown from `root`, depth first.  A
    node of size m - 1 has the children children(node, m), a list of nodes
    of size m.  The stack holds an iterator over one child list per level,
    so the nodes of size n are yielded straight from their list."""
    stack = [iter((root,))]
    while stack:
        if len(stack) > n:  # stack[-1] runs over nodes of size n
            yield from stack.pop()
        else:
            for node in stack[-1]:
                stack.append(iter(children(node, len(stack))))
                break
            else:
                stack.pop()


def _permutation_children(word, m):
    """m at each index."""
    return [word[:i] + (m,) + word[i:] for i in range(m)]


def _signed_children(word, m):
    """m, then -m, at each index."""
    return [word[:i] + (v,) + word[i:] for i in range(m) for v in (m, -m)]


def _matching_children(blocks, m):
    """The block (j, 2m) for j = 1, ..., 2m - 1, the points >= j moved up by
    one.  The blocks that start before j stay in front; as j passes a point
    it starts one of them or gives one back its old top."""
    top = 2 * m
    up = tuple([(a + 1, b + 1) for a, b in blocks])
    ends = {b: i for i, (_, b) in enumerate(blocks)}
    head = []
    out = [((1, top),) + up]
    for j in range(2, top):
        i = ends.get(j - 1)
        if i is None:
            head.append((j - 1, blocks[len(head)][1] + 1))
        else:
            head[i] = blocks[i]
        out.append((*head, (j, top), *up[len(head):]))
    return out


def _stirling_children(word, m):
    """The pair m m in each of the 2m - 1 gaps."""
    pair = (m, m)
    return [word[:i] + pair + word[i:] for i in range(2 * m - 1)]


def _stirling2_children(cycles, m):
    """The pair m m right after any entry of any cycle, then the new cycle
    (m m)."""
    pair = (m, m)
    out = [cycles[:c] + (cycle[:j] + pair + cycle[j:],) + cycles[c + 1:]
           for c, cycle in enumerate(cycles) for j in range(1, len(cycle) + 1)]
    out.append(cycles + (pair,))
    return out


def _decorated_children(word, m):
    """(r2) before an entry, m copies that entry's hat flag and may carry a
    circle; (r1) at the end, only m or m-hat."""
    out = [word[:i] + (e,) + word[i:]
           for i, (_, hat, _) in enumerate(word)
           for e in ((m, hat, False), (m, hat, True))]
    out += [word + (e,) for e in ((m, False, False), (m, True, False))]
    return out


def _invseq_product(s):
    # the shape comes from the bounds s, not from an insertion
    return itertools.product(*(range(si) for si in s))


def class_functions(class_name: str):
    """The children function (for inversion sequences, the generator) and
    the integer statistic function of the class, as bound now."""
    if class_name not in _CLASSES:
        raise ValueError(f"unknown object class {class_name!r}")
    _, tree, ints, _, _ = _CLASSES[class_name]
    return globals()[tree], globals()[ints]


def require_size(n, least: int = 0, name: str = "n") -> None:
    """Reject a size that is not an int (a bool or a float is not one) or
    is below `least`; `name` names it in the message."""
    if isinstance(n, bool) or not isinstance(n, int):
        raise ValueError(f"{name} must be an int, got {n!r}")
    if n < least:
        raise ValueError(f"{name} must be >= {least}")


def _check_size(class_name: str, n: int, s):
    """Reject a size the class cannot take: n must be an int >= 0, and an
    inversion sequence needs a bound sequence s of length n with entries
    >= 1, which no other class takes.  Returns s as a tuple for inversion
    sequences."""
    if class_name not in _CLASSES:
        raise ValueError(f"unknown object class {class_name!r}")
    require_size(n)
    if class_name != "invseq":
        if s is not None:
            raise ValueError("a bound sequence s applies to invseq, not "
                             f"{class_name}")
        return s
    if s is None:
        raise ValueError("inversion sequences need a bound sequence s")
    s = tuple(s)
    if len(s) != n or not all(type(si) is int and si >= 1 for si in s):
        raise ValueError("bound sequence must have length n with entries >= 1"
                         f" that are ints, got {s!r}")
    return s


def leaves(class_name: str, n: int, s=None):
    """Every leaf of the class at size n once, deterministically, as the
    argument columns of map(f, *leaves(...)) for the object type or a
    statistic function: the leaves, and for inversion sequences s repeated."""
    tree = class_functions(class_name)[0]
    s = _check_size(class_name, n, s)
    if class_name == "invseq":
        return tree(s), itertools.repeat(s)
    return (walk(tree, n),)


def generate(class_name: str, n: int, s=None):
    """Stream every object of the class exactly once, deterministically."""
    columns = leaves(class_name, n, s)  # refuses an unknown class first
    return map(_CLASSES[class_name][0], *columns)


def class_count(class_name: str, n: int, s=None) -> int:
    s = _check_size(class_name, n, s)
    if class_name == "permutation":
        return math.factorial(n)
    if class_name in ("signed", "decorated"):
        return 2 ** n * math.factorial(n)
    if class_name in ("matching", "stirling", "stirling2"):
        return double_factorial(n)
    return math.prod(s)


# The most objects an exhaustive route may walk: the 2^8 8! inversion
# sequences with bounds (2, 4, .., 16), the largest domain taken before.
ENUM_CAP = 2 ** 8 * math.factorial(8)


def require_domain(class_name: str, n: int, s=None) -> None:
    """CapacityError if class_count(class_name, n, s) exceeds ENUM_CAP."""
    count = class_count(class_name, n, s)
    if count > ENUM_CAP:
        raise CapacityError(f"{class_name} at n={n} has {count} objects, "
                            f"over the enumeration cap ENUM_CAP={ENUM_CAP}")


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

_INT = frozenset((int,))
_TUPLE = frozenset((tuple,))


def _ints(values) -> bool:
    """Every value is an int: a bool or a float equal to one is not."""
    return _INT.issuperset(map(type, values))


def _stirling_property(word) -> bool:
    """Everything strictly between the two copies of a value is larger, for
    a word of positive values each occurring at most twice.  A stack holds
    the values whose second copy is still to come: a first copy must top
    it, and a second copy must be its top."""
    stack = [0]
    for v in word:
        if v == stack[-1]:
            stack.pop()
        elif v > stack[-1]:
            stack.append(v)
        else:
            return False
    return len(stack) == 1


def _validate_decorated(entries) -> bool:
    """Values 1..n, each an int with bool hat and circle flags.  Inserted by
    increasing value, an entry with a smaller one to its right copies the
    hat of the nearest such (it went in right before it); one with none
    went in at the end and is uncircled.  Scanning from the right, a stack
    holds (value, hat) of the entries smaller than every entry between
    them and the scan."""
    stack = []
    for entry in reversed(entries):
        if type(entry) is not tuple or len(entry) != 3:
            return False
        v, hat, circle = entry
        if type(v) is not int or type(hat) is not bool or type(circle) is not bool:
            return False
        while stack and stack[-1][0] > v:
            stack.pop()
        if (stack[-1][1] != hat) if stack else circle:
            return False
        stack.append((v, hat))
    return sorted([v for v, _, _ in entries]) == list(range(1, len(entries) + 1))


def _validate_permutation(word) -> bool:
    return _ints(word) and sorted(word) == list(range(1, len(word) + 1))


def _validate_signed(word) -> bool:
    return (_ints(word)
            and sorted(map(abs, word)) == list(range(1, len(word) + 1)))


def _validate_matching(blocks) -> bool:
    if not all([type(blk) is tuple and len(blk) == 2 for blk in blocks]):
        return False
    pts = [p for blk in blocks for p in blk]
    if not _ints(pts) or sorted(pts) != list(range(1, 2 * len(blocks) + 1)):
        return False
    firsts = [a for a, _ in blocks]
    return all(a < b for a, b in blocks) and firsts == sorted(firsts)


def _validate_stirling(word) -> bool:
    pairs = [v for v in range(1, len(word) // 2 + 1) for _ in (0, 1)]
    return _ints(word) and sorted(word) == pairs and _stirling_property(word)


def _validate_stirling2(cycles) -> bool:
    """Non-empty tuple cycles whose int values hold each of 1..N twice,
    each starting at its minimum, the minima increasing, and each cycle a
    Stirling word."""
    if not (_TUPLE.issuperset(map(type, cycles)) and all(cycles)):
        return False
    values = list(itertools.chain.from_iterable(cycles))
    if not _ints(values):
        return False
    ordered = sorted(values)
    if not ordered[::2] == ordered[1::2] == list(range(1, len(values) // 2 + 1)):
        return False
    firsts = [c[0] for c in cycles]
    if firsts != list(map(min, cycles)) or not all(map(lt, firsts, firsts[1:])):
        return False
    return all(map(_stirling_property, cycles))


def _validate_invseq(e, s) -> bool:
    return (len(e) == len(s) and _ints(e) and _ints(s)
            and all(0 <= ei < si for ei, si in zip(e, s)))


# object type -> the name of the validator of its fields
_VALIDATE_BY_TYPE = {entry[0]: f"_validate_{name}"
                     for name, entry in _CLASSES.items()}


def validate(obj) -> bool:
    """True iff all structural invariants of the object's class hold.  Every
    field must be a tuple, every block, cycle and decorated entry a tuple
    of the right length, every entry an int, and a decorated entry's flags
    bools.  An object of any other type, a subclass too, is not valid."""
    check = _VALIDATE_BY_TYPE.get(type(obj))
    if check is None:
        return False
    fields = vars(obj).values()
    return _TUPLE.issuperset(map(type, fields)) and globals()[check](*fields)


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

def int_stats_permutation(w) -> tuple[int, ...]:
    """des_A, asc, exc, anti_exc, rlmin."""
    w1 = w[1:]
    places = range(1, len(w) + 1)
    rlmin = 0
    low = len(w) + 1
    for v in reversed(w):
        if v < low:
            low = v
            rlmin += 1
    return (sum(map(gt, w, w1)), sum(map(lt, w, w1)), sum(map(gt, w, places)),
            sum(map(lt, w, places)), rlmin)


def signed_blocks(word) -> tuple[tuple[int, ...], ...]:
    """Decompose into maximal segments each ending at a right-to-left
    minimum of the magnitudes."""
    ends = []
    low = len(word) + 1
    for i in range(len(word) - 1, -1, -1):
        if abs(word[i]) < low:
            low = abs(word[i])
            ends.append(i + 1)
    ends.reverse()
    return tuple([tuple(word[a:b]) for a, b in zip([0, *ends], ends)])


def int_stats_signed(w) -> tuple[int, ...]:
    """des_B (a virtual 0 in front), rlmin (the number of blocks), bar (the
    entries in blocks that end negatively)."""
    rlmin = bar = 0
    low = len(w) + 1
    negative = False
    # from the right, each right-to-left minimum of the magnitudes ends a
    # block, and the entries met until the next one belong to it
    for v in reversed(w):
        a = -v if v < 0 else v
        if a < low:
            low = a
            rlmin += 1
            negative = v < 0
        bar += negative
    return sum(map(gt, (0,) + w, w)), rlmin, bar


def set_stats_signed(w) -> dict:
    blocks = signed_blocks(w)
    bar_set = {v for blk in blocks if blk[-1] < 0 for v in blk}
    return {"bar_set": bar_set,
            "nbar_set": {v for v in w if v not in bar_set},
            "blocks": blocks}


def int_stats_matching(blocks) -> tuple[int, ...]:
    """el (blocks with an even top), ol (with an odd top)."""
    ol = sum([b & 1 for _, b in blocks])
    return len(blocks) - ol, ol


def int_stats_stirling(w) -> tuple[int, ...]:
    """descents (a virtual 0 at the end), ap (plateaus v v after a smaller
    entry, or at the front), desi, in one pass over adjacent pairs.

    desi counts the values m whose two copies precede every smaller value,
    i.e. the word restricted to 1..m starts with the pair m m.  Inserting
    the pair (n+1, n+1) at the front raises this count by one; any other
    insertion slot keeps it, which is exactly the descent-interval growth
    rule.  The first copy of m is then the least entry so far, so the
    second copy is an entry equal to the least entry before it."""
    if not w:
        return 0, 0, 0
    descents = ap = desi = 0
    up = True  # the entry before a is smaller (a virtual 0 before w[0])
    a = low = w[0]
    for b in w[1:]:
        if a == b:
            ap += up
            desi += b == low
            up = False
        elif a > b:
            descents += 1
            if b <= low:
                desi += b == low
                low = b
            up = False
        else:
            up = True
        a = b
    return descents + 1, ap, desi


def int_stats_stirling2(cycles) -> tuple[int, ...]:
    """cplat (plateaus inside a cycle), casc (ascents inside a cycle), cap
    (plateaus after an ascent inside a cycle), cyc, fix (cycles (m m))."""
    cplat = casc = cap = fix = 0
    for c in cycles:
        if len(c) == 2:
            fix += 1
            cplat += 1
            continue
        up = False  # the cycle's first entry has no entry before it
        a = c[0]
        for b in c[1:]:
            if a == b:
                cplat += 1
                cap += up
                up = False
            else:
                up = a < b
                casc += up
            a = b
    return cplat, casc, cap, len(cycles), fix


def int_stats_decorated(entries) -> tuple[int, ...]:
    """asc (a virtual 0 in front), hat."""
    asc = hat = prev = 0
    for v, h, _ in entries:
        asc += prev < v
        hat += h
        prev = v
    return asc, hat


def set_stats_decorated(entries) -> dict:
    return {"hat_value_set": {v for v, h, _ in entries if h}}


def int_stats_invseq(e, s) -> tuple[int, ...]:
    """asc: e_1 > 0, and each i with e_i / s_i < e_(i+1) / s_(i+1)."""
    if not e:
        return (0,)
    return (int(e[0] > 0) + sum(map(lt, map(mul, e, s[1:]), map(mul, e[1:], s))),)


def stats(obj) -> dict:
    """Every statistic of the object by name: the integer ones of its class
    in schema order, then the set-valued ones."""
    entry = _STATS_BY_TYPE.get(type(obj))
    if entry is None:
        raise TypeError(f"not a combinatorial object: {obj!r}")
    ints, names, sets = entry
    out = dict(zip(names, globals()[ints](*vars(obj).values())))
    if sets is not None:
        out.update(globals()[sets](*vars(obj).values()))
    return out


def count_paired_excedance_involutions(n: int) -> int:
    """Fixed-point-free involutions of [4n] in which positions 2i-1 and 2i
    are always both excedances or both anti-excedances."""
    require_size(n)
    require_domain("matching", 2 * n)
    odd = sum(1 << i for i in range(1, 4 * n, 2))  # positions 1, 3, 5, ...
    count = 0
    for blocks in leaves("matching", 2 * n)[0]:
        opened = sum(1 << a for a, _ in blocks)  # the excedances
        count += (opened & odd) << 1 == opened & ~odd
    return count


# ---------------------------------------------------------------------------
# canonical text encodings
# ---------------------------------------------------------------------------

def encode(obj) -> str:
    if isinstance(obj, (Permutation, SignedPermutation, StirlingWord)):
        return " ".join(map(str, obj.word))
    if isinstance(obj, PerfectMatching):
        return "".join(f"({a},{b})" for a, b in obj.blocks)
    if isinstance(obj, CycleStirling):
        return "".join(["(" + " ".join(map(str, c)) + ")" for c in obj.cycles])
    if isinstance(obj, DecoratedPermutation):
        return " ".join(f"{v}{'h' if h else ''}{'c' if c else ''}"
                        for v, h, c in obj.entries)
    if isinstance(obj, InversionSequence):
        return (" ".join(map(str, obj.e)) + " | s = "
                + " ".join(map(str, obj.s)))
    raise TypeError(f"not a combinatorial object: {obj!r}")


def _parse_ints(text: str) -> tuple[int, ...]:
    return tuple(map(int, text.split()))


_GROUP_SPLIT = re.compile(r"\)\s*\(")


def _parse_groups(text: str, parse_group) -> tuple:
    """Parse each group of '(...)(...)' with `parse_group`."""
    inner = text.strip()
    if not inner:
        return ()
    if inner[0] != "(" or inner[-1] != ")":
        raise ValueError("missing bracket")
    return tuple(map(parse_group, _GROUP_SPLIT.split(inner[1:-1])))


def _parse_pair(text: str) -> tuple[int, int]:
    a, b = text.split(",")
    return int(a), int(b)


def _parse_entry(tok: str) -> tuple[int, bool, bool]:
    """A decorated entry: an integer, then '', 'h', 'c' or 'hc'."""
    digits = tok.rstrip("hc")
    flags = tok[len(digits):]
    if flags not in ("", "h", "c", "hc"):
        raise ValueError(f"bad decoration {flags!r}")
    return int(digits), "h" in flags, "c" in flags


def _parse_invseq(text: str) -> InversionSequence:
    left, _, right = text.partition("|")
    key, eq, svals = right.partition("=")
    if key.strip() != "s" or not eq:
        raise ValueError("expected 'e | s = s'")
    return InversionSequence(_parse_ints(left), _parse_ints(svals))


# class name -> the object that text encodes; a ValueError means malformed
_PARSERS = {
    "permutation": lambda text: Permutation(_parse_ints(text)),
    "signed": lambda text: SignedPermutation(_parse_ints(text)),
    "stirling": lambda text: StirlingWord(_parse_ints(text)),
    "matching": lambda text: PerfectMatching(_parse_groups(text, _parse_pair)),
    "stirling2": lambda text: CycleStirling(_parse_groups(text, _parse_ints)),
    "decorated": lambda text: DecoratedPermutation(
        tuple(map(_parse_entry, text.split()))),
    "invseq": _parse_invseq,
}


def parse(class_name: str, text: str):
    """Inverse of encode; the result is validated.  Text that is not an
    encoding of the class at all (not a str, or a bad integer, bracket,
    decoration or bound-sequence part) is malformed.  An encoding is ASCII
    and spells each integer -?[0-9]+; int() would also take '+1', '1_0' and
    non-ASCII digits, so text that holds any of them is malformed.  Leading
    zeros and runs of whitespace are read, not rejected: "01  2" is the
    permutation 1 2.  Accepting canonical text only would cost one encode
    per call."""
    build = _PARSERS.get(class_name)
    if build is None:
        raise ValueError(f"unknown object class {class_name!r}")
    try:
        if (type(text) is not str or not text.isascii() or "+" in text
                or "_" in text):
            raise ValueError("not an encoding")
        obj = build(text)
    except ValueError:
        raise ValueError(f"malformed {class_name} encoding: {text!r}") from None
    if not validate(obj):
        raise ValueError(f"invalid {class_name} object: {text!r}")
    return obj
