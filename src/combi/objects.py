"""The seven combinatorial object classes.

Generation, validation, statistics and canonical text encodings for:
permutations, signed permutations, perfect matchings, Stirling words,
cycle-form Stirling permutations of the second kind, decorated
permutations, and bounded inversion sequences.

Generators stream lazily in a deterministic recursive order; exhaustive
verification never needs more than O(n) live state per stream.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

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


# class name -> (object type, generator, statistic function).  The functions
# are named, not held, so that generate and stats call whatever this module
# binds when they run.
_CLASSES = {
    "permutation": (Permutation, "_gen_permutations", "stats_permutation"),
    "signed": (SignedPermutation, "_gen_signed", "stats_signed"),
    "matching": (PerfectMatching, "_gen_matchings", "stats_matching"),
    "stirling": (StirlingWord, "_gen_stirling_words", "stats_stirling"),
    "stirling2": (CycleStirling, "_gen_cycle_stirling", "stats_cycle_stirling"),
    "decorated": (DecoratedPermutation, "_gen_decorated", "stats_decorated"),
    "invseq": (InversionSequence, "_gen_invseq", "stats_inversion"),
}
CLASS_NAMES = tuple(_CLASSES)
_STATS_BY_TYPE = {cls: stat for cls, _, stat in _CLASSES.values()}


def double_factorial(n: int) -> int:
    """(2n-1)!! -- the number of perfect matchings of [2n]."""
    out = 1
    for k in range(3, 2 * n, 2):
        out *= k
    return out


# ---------------------------------------------------------------------------
# generation
# ---------------------------------------------------------------------------

def _gen_permutations(n):
    for word in itertools.permutations(range(1, n + 1)):
        yield Permutation(word)


def _gen_signed(n):
    for word in itertools.permutations(range(1, n + 1)):
        for signs in itertools.product((1, -1), repeat=n):
            yield SignedPermutation(tuple(v * s for v, s in zip(word, signs)))


def _gen_matchings(n):
    def rec(free):
        if not free:
            yield ()
            return
        a = free[0]
        rest = free[1:]
        for idx in range(len(rest)):
            pair = ((a, rest[idx]),)
            for tail in rec(rest[:idx] + rest[idx + 1:]):
                yield pair + tail

    for blocks in rec(tuple(range(1, 2 * n + 1))):
        yield PerfectMatching(blocks)


def _gen_stirling_words(n):
    def rec(m):
        if m == 1:
            yield (1, 1)
            return
        pair = (m, m)
        for w in rec(m - 1):
            for gap in range(2 * m - 1):
                yield w[:gap] + pair + w[gap:]

    for w in rec(n):
        yield StirlingWord(w)


def _gen_cycle_stirling(n):
    # Insert the adjacent pair (m, m) right after any entry of any cycle,
    # or append the new cycle (m m); every object arises exactly once.
    def rec(m):
        if m == 1:
            yield ((1, 1),)
            return
        pair = (m, m)
        for cycs in rec(m - 1):
            for ci, cycle in enumerate(cycs):
                for j in range(1, len(cycle) + 1):
                    newc = cycle[:j] + pair + cycle[j:]
                    yield cycs[:ci] + (newc,) + cycs[ci + 1:]
            yield cycs + (pair,)

    for cycs in rec(n):
        yield CycleStirling(cycs)


def _gen_decorated(n):
    # (r1): only m or m-hat at the end; (r2): before an entry, the new
    # maximum copies that entry's hat flag and may carry a circle.
    def rec(m):
        if m == 1:
            yield ((1, False, False),)
            yield ((1, True, False),)
            return
        for v in rec(m - 1):
            for i in range(len(v)):
                h = v[i][1]
                yield v[:i] + ((m, h, False),) + v[i:]
                yield v[:i] + ((m, h, True),) + v[i:]
            yield v + ((m, False, False),)
            yield v + ((m, True, False),)

    for entries in rec(n):
        yield DecoratedPermutation(entries)


def _gen_invseq(s):
    for e in itertools.product(*(range(si) for si in s)):
        yield InversionSequence(e, tuple(s))


def class_functions(class_name: str):
    """The generator and the statistic function of the class, as bound now."""
    if class_name not in _CLASSES:
        raise ValueError(f"unknown object class {class_name!r}")
    _, gen, stat = _CLASSES[class_name]
    return globals()[gen], globals()[stat]


def _check_size(class_name: str, n: int, s, n_min: int):
    """Reject a size the class cannot take: an inversion sequence needs a
    bound sequence s of length n with entries >= 1, any other class needs
    n >= n_min.  Returns s as a tuple for inversion sequences."""
    if class_name not in _CLASSES:
        raise ValueError(f"unknown object class {class_name!r}")
    if class_name == "invseq":
        if s is None:
            raise ValueError("inversion sequences need a bound sequence s")
        s = tuple(s)
        if len(s) != n or any(si < 1 for si in s):
            raise ValueError("bound sequence must have length n with entries >= 1")
        return s
    if n < n_min:
        raise ValueError(f"n must be >= {n_min}")
    return s


def generate(class_name: str, n: int, s=None):
    """Stream every object of the class exactly once, deterministically."""
    gen = class_functions(class_name)[0]
    s = _check_size(class_name, n, s, 1)
    return gen(s) if class_name == "invseq" else gen(n)


def class_count(class_name: str, n: int, s=None) -> int:
    s = _check_size(class_name, n, s, 0)
    if class_name == "permutation":
        return math.factorial(n)
    if class_name in ("signed", "decorated"):
        return 2 ** n * math.factorial(n)
    if class_name in ("matching", "stirling", "stirling2"):
        return double_factorial(n)
    return math.prod(s)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def _stirling_property(word) -> bool:
    """Each distinct value occurs exactly twice and everything strictly
    between its two occurrences is larger."""
    first = {}
    second = {}
    for i, v in enumerate(word):
        if v not in first:
            first[v] = i
        elif v not in second:
            second[v] = i
        else:
            return False
    if len(second) != len(first):
        return False
    for v in first:
        for i in range(first[v] + 1, second[v]):
            if word[i] <= v:
                return False
    return True


def _validate_decorated(entries) -> bool:
    values = [v for v, _, _ in entries]
    if sorted(values) != list(range(1, len(values) + 1)):
        return False
    work = list(entries)
    while len(work) > 1:
        m_val = max(v for v, _, _ in work)
        i = next(j for j, (v, _, _) in enumerate(work) if v == m_val)
        if i == len(work) - 1:
            if work[i][2]:
                return False
        else:
            if work[i][1] != work[i + 1][1]:
                return False
        work.pop(i)
    if not work:
        return True  # the empty word, as for signed permutations
    v, _, circ = work[0]
    return v == 1 and not circ


def validate(obj) -> bool:
    """True iff all structural invariants of the object's class hold."""
    if isinstance(obj, Permutation):
        return sorted(obj.word) == list(range(1, len(obj.word) + 1))

    if isinstance(obj, SignedPermutation):
        if any(not isinstance(v, int) or v == 0 for v in obj.word):
            return False
        return sorted(abs(v) for v in obj.word) == list(range(1, len(obj.word) + 1))

    if isinstance(obj, PerfectMatching):
        pts = [p for blk in obj.blocks for p in blk]
        if sorted(pts) != list(range(1, 2 * len(obj.blocks) + 1)):
            return False
        firsts = [a for a, _ in obj.blocks]
        return all(a < b for a, b in obj.blocks) and firsts == sorted(firsts)

    if isinstance(obj, StirlingWord):
        word = obj.word
        n = len(word) // 2
        if sorted(word) != [v for v in range(1, n + 1) for _ in (0, 1)]:
            return False
        return _stirling_property(word)

    if isinstance(obj, CycleStirling):
        cycles = obj.cycles
        if any(not c for c in cycles):
            return False
        allv = [v for c in cycles for v in c]
        n = len(allv) // 2
        if sorted(allv) != [v for v in range(1, n + 1) for _ in (0, 1)]:
            return False
        mins = [c[0] for c in cycles]
        if mins != sorted(set(mins)) or any(c[0] != min(c) for c in cycles):
            return False
        return all(_stirling_property(c) for c in cycles)

    if isinstance(obj, DecoratedPermutation):
        return _validate_decorated(obj.entries)

    if isinstance(obj, InversionSequence):
        if len(obj.e) != len(obj.s):
            return False
        return all(0 <= e < s for e, s in zip(obj.e, obj.s))

    return False


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

def stats_permutation(p: Permutation) -> dict:
    w = p.word
    n = len(w)
    rlmin = 0
    cur = n + 1
    for v in reversed(w):
        if v < cur:
            cur = v
            rlmin += 1
    return {
        "des_A": sum(w[i] > w[i + 1] for i in range(n - 1)),
        "asc": sum(w[i] < w[i + 1] for i in range(n - 1)),
        "exc": sum(w[i] > i + 1 for i in range(n)),
        "anti_exc": sum(w[i] < i + 1 for i in range(n)),
        "rlmin": rlmin,
    }


def signed_blocks(word) -> tuple[tuple[int, ...], ...]:
    """Decompose into maximal segments each ending at a right-to-left
    minimum of the magnitudes."""
    n = len(word)
    is_min = [False] * n
    cur = n + 1
    for i in range(n - 1, -1, -1):
        if abs(word[i]) < cur:
            cur = abs(word[i])
            is_min[i] = True
    blocks = []
    start = 0
    for i in range(n):
        if is_min[i]:
            blocks.append(tuple(word[start:i + 1]))
            start = i + 1
    return tuple(blocks)


def stats_signed(sp: SignedPermutation) -> dict:
    w = sp.word
    des_b = int(0 > w[0]) + sum(w[i] > w[i + 1] for i in range(len(w) - 1))
    blocks = signed_blocks(w)
    bar_set = {v for blk in blocks if blk[-1] < 0 for v in blk}
    nbar_set = {v for v in w if v not in bar_set}
    return {
        "des_B": des_b,
        "rlmin": len(blocks),
        "bar": len(bar_set),
        "bar_set": bar_set,
        "nbar_set": nbar_set,
        "blocks": blocks,
    }


def stats_matching(m: PerfectMatching) -> dict:
    el = sum(b % 2 == 0 for _, b in m.blocks)
    return {"el": el, "ol": len(m.blocks) - el}


def stats_stirling(sw: StirlingWord) -> dict:
    w = sw.word
    n2 = len(w)
    descents = 0
    ap = 0
    first: dict[int, int] = {}
    second: dict[int, int] = {}
    for i in range(n2):
        v = w[i]
        if v in first:
            second[v] = i
        else:
            first[v] = i
        prev = w[i - 1] if i else 0
        nxt = w[i + 1] if i + 1 < n2 else 0
        if i + 1 < n2 and prev < v == w[i + 1]:
            ap += 1
        if v > nxt:
            descents += 1
    # desi: values m whose two copies precede every smaller value, i.e. the
    # word restricted to 1..m starts with the pair m m.  Inserting the pair
    # (n+1, n+1) at the front raises this count by one; any other insertion
    # slot keeps it, which is exactly the descent-interval growth rule.
    desi = 0
    run = n2 + 1
    for m in range(1, n2 // 2 + 1):
        if run > second[m]:
            desi += 1
        run = min(run, first[m])
    return {"descents": descents, "ap": ap, "desi": desi}


def stats_cycle_stirling(cs: CycleStirling) -> dict:
    cplat = casc = cap = fix = 0
    for c in cs.cycles:
        if len(c) == 2:
            fix += 1
        for i in range(len(c) - 1):
            if c[i] == c[i + 1]:
                cplat += 1
                if i >= 1 and c[i - 1] < c[i]:
                    cap += 1
            elif c[i] < c[i + 1]:
                casc += 1
    return {"cplat": cplat, "casc": casc, "cap": cap,
            "cyc": len(cs.cycles), "fix": fix}


def stats_decorated(dp: DecoratedPermutation) -> dict:
    vals = [v for v, _, _ in dp.entries]
    asc = 1 + sum(vals[i] < vals[i + 1] for i in range(len(vals) - 1))
    hats = [v for v, h, _ in dp.entries if h]
    return {"asc": asc, "hat": len(hats), "hat_value_set": set(hats)}


def stats_inversion(iv: InversionSequence) -> dict:
    e, s = iv.e, iv.s
    asc = int(len(e) > 0 and e[0] > 0)
    for i in range(len(e) - 1):
        if e[i] * s[i + 1] < e[i + 1] * s[i]:
            asc += 1
    return {"asc": asc}


def stats(obj) -> dict:
    name = _STATS_BY_TYPE.get(type(obj))
    if name is None:
        raise TypeError(f"not a combinatorial object: {obj!r}")
    return globals()[name](obj)


def reduce_word(word) -> tuple[int, ...]:
    """Order-isomorphic word over 1..k: the i-th smallest value becomes i."""
    ranks = {v: i + 1 for i, v in enumerate(sorted(set(word)))}
    return tuple(ranks[v] for v in word)


def count_paired_excedance_involutions(n: int) -> int:
    """Fixed-point-free involutions of [4n] in which positions 2i-1 and 2i
    are always both excedances or both anti-excedances."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return 1
    if n > 2:
        raise CapacityError(
            f"exhaustive search covers (4n-1)!! involutions; capped at n=2, got n={n}")
    count = 0
    for m in _gen_matchings(2 * n):
        exceeding = {a for a, _ in m.blocks}
        if all(((2 * i - 1) in exceeding) == ((2 * i) in exceeding)
               for i in range(1, 2 * n + 1)):
            count += 1
    return count


# ---------------------------------------------------------------------------
# canonical text encodings
# ---------------------------------------------------------------------------

def encode(obj) -> str:
    if isinstance(obj, (Permutation, SignedPermutation, StirlingWord)):
        return " ".join(str(v) for v in obj.word)
    if isinstance(obj, PerfectMatching):
        return "".join(f"({a},{b})" for a, b in obj.blocks)
    if isinstance(obj, CycleStirling):
        return "".join("(" + " ".join(str(v) for v in c) + ")" for c in obj.cycles)
    if isinstance(obj, DecoratedPermutation):
        return " ".join(f"{v}{'h' if h else ''}{'c' if c else ''}"
                        for v, h, c in obj.entries)
    if isinstance(obj, InversionSequence):
        return (" ".join(str(v) for v in obj.e) + " | s = "
                + " ".join(str(v) for v in obj.s))
    raise TypeError(f"not a combinatorial object: {obj!r}")


def _parse_ints(text: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in text.split())


def _parse_groups(text: str) -> list[str]:
    """Split '(...)(...)' into the inner strings."""
    text = text.strip()
    groups = []
    while text:
        if not text.startswith("("):
            raise ValueError(f"malformed group encoding: {text!r}")
        close = text.index(")")
        groups.append(text[1:close])
        text = text[close + 1:].strip()
    return groups


def parse(class_name: str, text: str):
    """Inverse of encode; the result is validated."""
    if class_name == "permutation":
        obj = Permutation(_parse_ints(text))
    elif class_name == "signed":
        obj = SignedPermutation(_parse_ints(text))
    elif class_name == "stirling":
        obj = StirlingWord(_parse_ints(text))
    elif class_name == "matching":
        blocks = []
        for g in _parse_groups(text):
            a, b = (int(t) for t in g.split(","))
            blocks.append((a, b))
        obj = PerfectMatching(tuple(blocks))
    elif class_name == "stirling2":
        obj = CycleStirling(tuple(_parse_ints(g) for g in _parse_groups(text)))
    elif class_name == "decorated":
        entries = []
        for tok in text.split():
            digits = tok.rstrip("hc")
            flags = tok[len(digits):]
            entries.append((int(digits), "h" in flags, "c" in flags))
        obj = DecoratedPermutation(tuple(entries))
    elif class_name == "invseq":
        left, _, right = text.partition("|")
        svals = right.split("=", 1)[1] if "=" in right else right
        obj = InversionSequence(_parse_ints(left), _parse_ints(svals))
    else:
        raise ValueError(f"unknown object class {class_name!r}")
    if not validate(obj):
        raise ValueError(f"invalid {class_name} object: {text!r}")
    return obj
