"""The seven combinatorial object classes.

Generation, validation, statistics and canonical text encodings for:
permutations, signed permutations, perfect matchings, Stirling words,
cycle-form Stirling permutations of the second kind, decorated
permutations, and bounded inversion sequences.

Each class but the inversion sequences is one insertion tree, walked depth
first by `walk` holding one child list per level: generate streams its
leaves, and the phi/psi certificates in `bijections` walk the decorated and
signed trees.
"""

from __future__ import annotations

import itertools
import math
import re
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


# class name -> (object type, children function (for inversion sequences, a
# generator of s), statistic function).  The functions are named, not held,
# so that generate, stats and the bijection certificates call whatever this
# module binds when they run.
_CLASSES = {
    "permutation": (Permutation, "_permutation_children", "stats_permutation"),
    "signed": (SignedPermutation, "_signed_children", "stats_signed"),
    "matching": (PerfectMatching, "_matching_children", "stats_matching"),
    "stirling": (StirlingWord, "_stirling_children", "stats_stirling"),
    "stirling2": (CycleStirling, "_stirling2_children", "stats_cycle_stirling"),
    "decorated": (DecoratedPermutation, "_decorated_children", "stats_decorated"),
    "invseq": (InversionSequence, "_invseq_product", "stats_inversion"),
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
    one.  The p blocks that start before j stay in front."""
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
    for e in itertools.product(*(range(si) for si in s)):
        yield InversionSequence(e, tuple(s))


def class_functions(class_name: str):
    """The children function (for inversion sequences, the generator) and
    the statistic function of the class, as bound now."""
    if class_name not in _CLASSES:
        raise ValueError(f"unknown object class {class_name!r}")
    _, tree, stat = _CLASSES[class_name]
    return globals()[tree], globals()[stat]


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
    tree = class_functions(class_name)[0]
    s = _check_size(class_name, n, s, 1)
    if class_name == "invseq":
        return tree(s)
    return map(_CLASSES[class_name][0], walk(tree, n))


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
    des_b = sum(a > b for a, b in zip((0,) + w, w))  # a virtual 0 in front
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
    asc = sum(a < b for a, b in zip([0] + vals, vals))  # a virtual 0 in front
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
    for m in generate("matching", 2 * n):
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


def _parse_groups(class_name: str, text: str, parse_group) -> tuple:
    """Parse each group of '(...)(...)' with `parse_group`; a missing
    bracket or a group it rejects makes the text malformed."""
    inner = text.strip()
    if not inner:
        return ()
    try:
        if inner[0] != "(" or inner[-1] != ")":
            raise ValueError
        return tuple(parse_group(g) for g in re.split(r"\)\s*\(", inner[1:-1]))
    except ValueError:
        raise ValueError(f"malformed {class_name} encoding: {text!r}") from None


def _parse_pair(text: str) -> tuple[int, int]:
    a, b = (int(t) for t in text.split(","))
    return a, b


def parse(class_name: str, text: str):
    """Inverse of encode; the result is validated."""
    if class_name == "permutation":
        obj = Permutation(_parse_ints(text))
    elif class_name == "signed":
        obj = SignedPermutation(_parse_ints(text))
    elif class_name == "stirling":
        obj = StirlingWord(_parse_ints(text))
    elif class_name == "matching":
        obj = PerfectMatching(_parse_groups(class_name, text, _parse_pair))
    elif class_name == "stirling2":
        obj = CycleStirling(_parse_groups(class_name, text, _parse_ints))
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
