"""Spans and counters recorded from outside the combi package.

`install` replaces public functions of combi with timing wrappers.  A
wrapper is installed in every combi module that binds the function, not
only where it is defined: `families` binds `generate` and `stats` at
import, `verify` binds `sturm_real_roots`, while `grammar` looks
`generate` up in `objects` at call time.  Operators are wrapped on the
class (`ExactPoly.__mul__`, `TruncatedSeries.__mul__`, ...).

Every call opens a frame.  Its duration minus the time covered by wrapped
calls nested inside it is its self time, summed per layer (the combi
module) and per function.  Metric keys such as `verify.check_s.eq-1-3`
sum the inclusive time of the outermost call carrying that key, so a
recursive or nested call is not counted twice.  Generators are timed
inside each `next`, so time spent by their consumer is not theirs.

Calls made once per object or per polynomial product are aggregated only.
The other calls are also kept in `spans` as records (name, start, end,
parent index), written out when the run ends.
"""

from __future__ import annotations

import math
import sys
import time
from collections import defaultdict
from fractions import Fraction

MAX_SPANS = 200_000

LAYERS = ("cli", "verify", "families", "objects", "bijections", "grammar",
          "series", "sturm", "poly")

# families entry points that stream a class; every other public function
# of families is a recurrence or closed form, except `series_families`.
ENUM_ROUTES = {"stat_distribution", "invseq_distribution", "b_poly",
               "cap_sign_sum", "decorated_asc_by_hat", "signed_desb_by_bar"}

POLY_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
            "__mul__", "__rmul__", "__pow__", "diff", "subs_num",
            "coefficient_of")
SERIES_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
              "__mul__", "__rmul__")


class Tracer:
    def __init__(self):
        self.stack = []
        self.self_by_layer = defaultdict(float)
        self.self_by_name = defaultdict(float)
        self.inclusive = defaultdict(float)
        self.depth = defaultdict(int)
        self.counts = defaultdict(int)
        self.max_coeff_bits = 0
        # objects yielded by the largest enumeration of each (class, n, s)
        self.enumerated = defaultdict(int)
        self.spans = []
        self.spans_dropped = 0
        self.wrapped = {}

    # -- frames --------------------------------------------------------
    #
    # A frame covers [t_in, t_out]: the call itself, [start, end], plus the
    # tracer's own bookkeeping around it.  The parent subtracts the whole
    # covered interval from its self time, and inclusive times subtract the
    # bookkeeping of every traced call beneath, so the tracer's cost lands
    # in no layer.

    def _enter(self, name, layer, keys, args, kwargs, record):
        t_in = time.perf_counter()
        keys = keys(args, kwargs) if keys else ()
        outer = [k for k in keys if not self.depth[k]]
        for k in keys:
            self.depth[k] += 1
        parent = self.stack[-1][3] if self.stack else -1
        span = parent
        if record:
            if len(self.spans) < MAX_SPANS:
                span = len(self.spans)
                self.spans.append([name, 0.0, 0.0, parent])
            else:
                self.spans_dropped += 1
        # name, layer, keys, span, outer, recorded, child, overhead, t_in, start
        frame = [name, layer, keys, span, outer, span != parent, 0.0, 0.0, t_in,
                 0.0]
        self.stack.append(frame)
        frame[9] = time.perf_counter()
        return frame

    def _exit(self, frame, after=None, result=None, args=None):
        end = time.perf_counter()
        name, layer, keys, span, outer, recorded, child, overhead, t_in, start = frame
        self.stack.pop()
        dur = end - start
        self.self_by_layer[layer] += dur - child
        self.self_by_name[name] += dur - child
        self.counts[name] += 1
        for k in keys:
            self.depth[k] -= 1
        for k in outer:
            self.inclusive[k] += dur - overhead
        if recorded:
            self.spans[span][1] = start
            self.spans[span][2] = end
        if after is not None:
            after(result, args)
        if self.stack:
            parent = self.stack[-1]
            covered = time.perf_counter() - t_in
            parent[6] += covered
            parent[7] += covered - dur + overhead

    # -- wrappers ------------------------------------------------------

    def wrap(self, fn, name, layer, keys=None, record=True, after=None):
        """Time `fn`; `keys(args, kwargs)` names the metric keys the call
        adds its inclusive time to, `after(result, args)` counts work."""
        tracer = self

        def wrapper(*args, **kwargs):
            frame = tracer._enter(name, layer, keys, args, kwargs, record)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._exit(frame)
                raise
            tracer._exit(frame, after, result, args)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def wrap_generator(self, fn, name, layer, keys=None, on_done=None):
        """Time each `next` of the iterator `fn` returns; `on_done(args,
        kwargs, items)` runs when the iterator is exhausted or closed."""
        tracer = self

        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)

            def walk():
                items = 0
                try:
                    while True:
                        frame = tracer._enter(name, layer, keys, args, kwargs,
                                              False)
                        try:
                            item = next(it)
                        except StopIteration:
                            tracer._exit(frame)
                            return
                        except BaseException:
                            tracer._exit(frame)
                            raise
                        tracer._exit(frame)
                        items += 1
                        yield item
                finally:
                    if on_done is not None:
                        on_done(args, kwargs, items)

            return walk()

        wrapper.__wrapped__ = fn
        return wrapper

    # -- results -------------------------------------------------------

    def summary(self, check_ids, class_names) -> dict:
        c, inc = self.counts, self.inclusive
        streamed = c["objects.streamed"]
        unique = sum(self.enumerated.values())
        out = {f"verify.check_s.{cid}": inc[f"verify.check_s.{cid}"]
               for cid in check_ids}
        out.update({
            "objects.streamed": streamed,
            "objects.unique": unique,
            "objects.unique_ratio": unique / streamed if streamed else 0.0,
            "objects.stats_calls": c["objects.stats"],
        })
        for kind in ("generate", "stats", "encode", "parse"):
            for cls in class_names:
                key = f"objects.{kind}_s.{cls}"
                out[key] = inc[key]
        for key in ("bijections.verify_bijection_s.phi",
                    "bijections.verify_bijection_s.psi",
                    "bijections.phi_map_s", "bijections.psi_map_s",
                    "families.enum_s", "families.recurrence_s",
                    "poly.mul_s", "series.families_s", "grammar.derive_s",
                    "sturm.real_roots_s"):
            out[key] = inc[key]
        out["bijections.domain_objects"] = c["bijections.domain_objects"]
        out["cli.emit_s"] = self.self_by_name["cli.emit_jsonl"]
        out["poly.mul_calls"] = c["poly.mul"]
        out["poly.terms"] = c["poly.terms"]
        out["poly.max_coeff_bits"] = self.max_coeff_bits
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self.self_by_layer[layer]
        return out


def _bits(c) -> int:
    if isinstance(c, Fraction):
        return max(abs(c.numerator).bit_length(), c.denominator.bit_length())
    return abs(c).bit_length()


def _replace_everywhere(orig, wrapper) -> int:
    """Rebind every combi module global that refers to `orig`."""
    n = 0
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "combi" or mod_name.startswith("combi.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, attr, wrapper)
                n += 1
    return n


def _public_functions(mod):
    return [(name, fn) for name, fn in vars(mod).items()
            if callable(fn) and not isinstance(fn, type)
            and not name.startswith("_")
            and getattr(fn, "__module__", None) == mod.__name__]


def install(tracer: Tracer) -> None:
    """Wrap combi's public functions and operators with `tracer`."""
    from combi import (bijections, cli, families, grammar, objects, poly,
                       series, sturm, verify)

    class_of = {objects.Permutation: "permutation",
                objects.SignedPermutation: "signed",
                objects.PerfectMatching: "matching",
                objects.StirlingWord: "stirling",
                objects.CycleStirling: "stirling2",
                objects.DecoratedPermutation: "decorated",
                objects.InversionSequence: "invseq"}

    def put(mod, name, wrapper):
        orig = getattr(mod, name)
        tracer.wrapped[f"{mod.__name__}.{name}"] = _replace_everywhere(orig, wrapper)

    # objects: the per-object boundary
    # Every enumeration of one (class, n, s) yields the same objects, each
    # once, and different arguments yield disjoint sets, so the distinct
    # objects streamed are the largest enumeration of each argument triple.
    def on_enumerated(a, k, items):
        s = a[2] if len(a) > 2 else k.get("s")
        key = (a[0], a[1], None if s is None else tuple(s))
        tracer.counts["objects.streamed"] += items
        tracer.enumerated[key] = max(tracer.enumerated[key], items)

    put(objects, "generate", tracer.wrap_generator(
        objects.generate, "objects.generate", "objects",
        keys=lambda a, k: (f"objects.generate_s.{a[0]}",),
        on_done=on_enumerated))
    for fname in ("stats", "encode"):
        put(objects, fname, tracer.wrap(
            getattr(objects, fname), f"objects.{fname}", "objects",
            keys=lambda a, k, f=fname: (
                f"objects.{f}_s.{class_of.get(type(a[0]), 'other')}",),
            record=False))
    put(objects, "parse", tracer.wrap(
        objects.parse, "objects.parse", "objects",
        keys=lambda a, k: (f"objects.parse_s.{a[0]}",), record=False))
    put(objects, "validate", tracer.wrap(
        objects.validate, "objects.validate", "objects", record=False))

    # bijections
    def on_certified(rep, args):
        n = args[1]
        tracer.counts["bijections.domain_objects"] += 2 ** n * math.factorial(n)

    put(bijections, "verify_bijection", tracer.wrap(
        bijections.verify_bijection, "bijections.verify_bijection", "bijections",
        keys=lambda a, k: (f"bijections.verify_bijection_s.{a[0]}",),
        after=on_certified))
    for fname in ("phi_map", "psi_map"):
        put(bijections, fname, tracer.wrap(
            getattr(bijections, fname), f"bijections.{fname}", "bijections",
            keys=lambda a, k, f=fname: (f"bijections.{f}_s",), record=False))
    put(bijections, "encode_triple", tracer.wrap(
        bijections.encode_triple, "bijections.encode_triple", "bijections",
        record=False))

    # families: enumeration routes, recurrences, series families
    def family_keys(name):
        if name in ENUM_ROUTES or name.endswith("_enum"):
            return lambda a, k: ("families.enum_s",)
        if name == "series_families":
            return lambda a, k: ("series.families_s",)
        if name == "p_poly":
            def p_keys(a, k):
                route = a[1] if len(a) > 1 else k.get("route", "recurrence")
                return {"enumeration": ("families.enum_s",),
                        "series": ()}.get(route, ("families.recurrence_s",))
            return p_keys
        return lambda a, k: ("families.recurrence_s",)

    for name, fn in _public_functions(families):
        put(families, name, tracer.wrap(fn, f"families.{name}", "families",
                                        keys=family_keys(name)))

    # grammar, series, sturm, verify, cli
    for name, fn in _public_functions(grammar):
        keys = (lambda a, k: ("grammar.derive_s",)) if name == "derive" else None
        put(grammar, name, tracer.wrap(fn, f"grammar.{name}", "grammar", keys=keys))
    for name, fn in _public_functions(series):
        put(series, name, tracer.wrap(fn, f"series.{name}", "series"))
    put(sturm, "sturm_real_roots", tracer.wrap(
        sturm.sturm_real_roots, "sturm.sturm_real_roots", "sturm",
        keys=lambda a, k: ("sturm.real_roots_s",)))
    put(verify, "run_check", tracer.wrap(
        verify.run_check, "verify.run_check", "verify",
        keys=lambda a, k: (f"verify.check_s.{a[0]}",)))
    put(verify, "run_all", tracer.wrap(verify.run_all, "verify.run_all", "verify"))
    put(cli, "main", tracer.wrap(cli.main, "cli.main", "cli"))
    put(cli, "emit_jsonl", tracer.wrap_generator(
        cli.emit_jsonl, "cli.emit_jsonl", "cli"))
    put(poly, "divexact", tracer.wrap(poly.divexact, "poly.divexact", "poly"))
    put(poly, "poly_reverse", tracer.wrap(poly.poly_reverse, "poly.poly_reverse",
                                          "poly"))

    # operators, wrapped on the class
    def on_product(result, args):
        if result is NotImplemented:
            return
        tracer.counts["poly.terms"] += len(result.items())
        bits = max((_bits(c) for _, c in result.items()), default=0)
        if bits > tracer.max_coeff_bits:
            tracer.max_coeff_bits = bits

    for op in POLY_OPS:
        is_mul = op in ("__mul__", "__rmul__")
        setattr(poly.ExactPoly, op, tracer.wrap(
            getattr(poly.ExactPoly, op), "poly.mul" if is_mul else f"poly.{op}",
            "poly", keys=(lambda a, k: ("poly.mul_s",)) if is_mul else None,
            record=False, after=on_product if is_mul else None))
    for op in SERIES_OPS:
        setattr(series.TruncatedSeries, op, tracer.wrap(
            getattr(series.TruncatedSeries, op), f"series.{op}", "series",
            record=False))
