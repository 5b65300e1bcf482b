"""Guard map: which registry checks catch a wrong result of each function.

    python3 tools/guard_map.py

From the root of a checkout (the package is read from `src`), sweeps every
public function defined in `combi.bijections`, `families`, `grammar`,
`objects`, `poly`, `sturm` and `series`.  A first run of
`verify.run_all(6)`, with every one of them wrapped in a counter and
`verify.run_check` rebound so that no check runs in a forked child, finds
the functions the registry reaches.  Then each reached function in turn
is replaced by a mutant that moves its result: an int by 1 (a bool is
negated), a polynomial by x^3, a series by x*z, and every element of a
list or tuple (a named tuple's fields included), every value of a
mapping, every field of a dataclass, every item of an iterator and every
result of a returned function by the same rule.  A move runs none of the
poly kernels, which may be the mutant.  The mutant is bound wherever a
combi module binds the function, names taken by `from .x import y`
included.  A check catches it when `run_all(6)` reports
it failed; a route that raises fails its check.

Prints function -> the checks that catch it, and exits 1 when a function
the registry leaves unreached or uncaught is not on FRONT_END or ABSORBED,
or when one on either is caught after all.  A function whose results hold
nothing to move (None, a str, a context manager) is listed and not judged.
"""

from __future__ import annotations

import dataclasses
import inspect
import sys
import time
from collections.abc import Iterator, Mapping
from pathlib import Path
from types import FunctionType

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from combi import (bijections, families, grammar, objects, poly,  # noqa: E402
                   series, sturm, verify)
from combi.poly import X, ExactPoly, poly_sum  # noqa: E402
from combi.series import TruncatedSeries, _series  # noqa: E402

MODULES = (bijections, families, grammar, objects, poly, sturm, series)
MAX_N = 6

# Functions only the command-line front end, the benchmark or library
# callers need, so no check can catch them; each with the reason.
FRONT_END = {
    "bijections.encode_triple": "`combi bijection` prints it",
    "bijections.map_steps": "`combi bijection --input --steps` prints it",
    "bijections.phi_map": "`combi bijection --input` and the stream "
                          "benchmark; ROADMAP item 3 adds their registry "
                          "checks",
    "bijections.psi_map": "`combi bijection --input` and the stream "
                          "benchmark; ROADMAP item 3 adds their registry "
                          "checks",
    "objects.class_count": "the input to the enumeration cap, which "
                           "tests/test_enum_cap.py pins",
    "objects.stats": "`combi enumerate --stats` prints it",
    "objects.set_stats_signed": "`combi enumerate --stats` prints it",
    "objects.set_stats_decorated": "`combi enumerate --stats` prints it",
    "objects.encode": "`combi enumerate` and `combi bijection` print it",
    "objects.parse": "`combi bijection --input` reads it",
    "objects.validate": "`parse` and `combi bijection --input` refuse "
                        "what it rejects",
    "objects.generate": "`combi enumerate` streams it",
    "series.max_order": "the series-order cap that COMBI_MAX_ORDER sets, "
                        "which tests/test_cli.py pins",
    "sturm.sturm_real_roots": "the dispatcher between the two counters that "
                              "`R-real-rooted` calls; the `algebra` "
                              "benchmark and library callers use it",
}

# Functions whose wrong result another walk of the registry absorbs, so
# no check fails; each with what absorbs it and the test that catches it.
ABSORBED = {
    "bijections.peel": "the image walk absorbs it; "
                       "`test_moved_peel_shows_in_the_walk` catches it",
}

# The tables of functions no check may catch, by name.
EXEMPT = {"FRONT_END": FRONT_END, "ABSORBED": ABSORBED}

X3 = X ** 3  # built once, before any kernel is replaced


def swept():
    """(qualified name, function) of every public function of MODULES."""
    return [(f"{mod.__name__.split('.')[-1]}.{name}", fn)
            for mod in MODULES
            for name, fn in inspect.getmembers(mod, inspect.isfunction)
            if not name.startswith("_") and fn.__module__ == mod.__name__]


def moved(value):
    """The value with every part the module docstring names moved, or the
    value itself when it holds nothing to move."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    # `+`, `*` and `**` run through the poly kernels, one of which may be
    # the mutant, so a move adds with the poly_sum held here since import:
    # rebinding the module global does not reach it
    if isinstance(value, ExactPoly):
        return poly_sum((value, X3))
    if isinstance(value, TruncatedSeries):
        # x*z has EGF entry 1 equal to x
        return _series(poly_sum((e, X)) if n == 1 else e
                       for n, e in enumerate(value._egf))
    if isinstance(value, FunctionType):
        return lambda *args, **kwargs: moved(value(*args, **kwargs))
    if isinstance(value, Iterator):
        return map(moved, value)
    if isinstance(value, (list, tuple)):
        items = [moved(v) for v in value]
        if all(a is b for a, b in zip(items, value)):
            return value
        if hasattr(value, "_fields"):  # a named tuple: one argument per field
            return type(value)._make(items)
        return type(value)(items)
    if isinstance(value, Mapping):
        items = {k: moved(v) for k, v in value.items()}
        if all(items[k] is v for k, v in value.items()):
            return value
        return items
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        fields = {f.name: getattr(value, f.name)
                  for f in dataclasses.fields(value) if f.init}
        changes = {k: moved(v) for k, v in fields.items()}
        if all(changes[k] is v for k, v in fields.items()):
            return value
        return dataclasses.replace(value, **changes)
    return value


def bind_everywhere(fn, replacement):
    """Bind `replacement` wherever a combi module binds `fn`; returns the
    (module, name) pairs, for `restore`."""
    bound = [(mod, name) for mod_name, mod in list(sys.modules.items())
             if mod is not None and mod_name.split(".")[0] == "combi"
             for name, value in list(vars(mod).items()) if value is fn]
    for mod, name in bound:
        setattr(mod, name, replacement)
    return bound


def restore(bound, fn):
    for mod, name in bound:
        setattr(mod, name, fn)


def reach(functions):
    """{name: (calls, whether some result had something to move)} over one
    in-process run_all(MAX_N), and the reports of that run."""
    seen = {name: [0, False] for name, _ in functions}
    bindings = []

    def counter(name, fn):
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            seen[name][0] += 1
            seen[name][1] = seen[name][1] or moved(result) is not result
            return result
        return counted

    run_check = verify.run_check
    try:
        for name, fn in functions:
            bindings.append((bind_everywhere(fn, counter(name, fn)), fn))
        # a run_check other than the module's own keeps every check here
        verify.run_check = lambda *args: run_check(*args)
        reports = verify.run_all(MAX_N)
    finally:
        verify.run_check = run_check
        for bound, fn in bindings:
            restore(bound, fn)
    return {name: tuple(v) for name, v in seen.items()}, reports


def catchers(fn):
    """The checks that fail with fn replaced by its mutant."""
    bound = bind_everywhere(
        fn, lambda *args, **kwargs: moved(fn(*args, **kwargs)))
    try:
        return sorted({rep.id for rep in verify.run_all(MAX_N)
                       if rep.status == "fail"})
    finally:
        restore(bound, fn)


def main() -> int:
    start = time.perf_counter()
    functions = swept()
    seen, reports = reach(functions)
    bad = [rep.id for rep in reports if rep.status != "pass"]
    if bad:
        print(f"the registry fails without a mutant: {sorted(set(bad))}")
        return 1
    problems = []
    width = max(len(name) for name, _ in functions)
    for name, fn in functions:
        calls, movable = seen[name]
        if not calls:
            verdict, caught = "unreached", False
        elif not movable:
            print(f"{name:<{width}}  (no value to move)")
            continue
        else:
            found = catchers(fn)
            verdict, caught = " ".join(found) or "uncaught", bool(found)
        listed = [table for table in EXEMPT if name in EXEMPT[table]]
        for table in listed:
            verdict += f"; {table}: {EXEMPT[table][name]}"
            if caught:
                problems.append(f"{name} is on {table} but a check "
                                "catches it")
        if not (listed or caught):
            problems.append(f"{name} is {verdict} and not on "
                            f"{' or '.join(EXEMPT)}")
        print(f"{name:<{width}}  {verdict}")
    problems += [f"{name} is on {table} but is not swept"
                 for table, names in EXEMPT.items()
                 for name in sorted(set(names) - dict(functions).keys())]
    print(f"\n{len(functions)} functions swept at max_n={MAX_N} in "
          f"{time.perf_counter() - start:.0f} s")
    for problem in problems:
        print(f"FAIL: {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
