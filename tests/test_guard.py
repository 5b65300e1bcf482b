"""Every integer statistic is load-bearing: raised by one in its class's
statistic function, each of the 21 fields of `objects.INT_STAT_NAMES`
makes some registry check fail.  `tools/guard_map.py` sweeps the same
kind of mutant over every public function of the lower layers; its
`moved` is tested here too.  The input guards `objects.require_size` and
`objects.require_domain` are load-bearing as well: with either one bound
to a stand-in that accepts everything, calls it refused return.  And only
`poly`'s kernels merge term maps: with `poly_sum` and `poly_dot` bound to
a stand-in that raises, `+`, the grammar derivative and `to_xyq` raise."""

import importlib.util
import sys
from collections import Counter, namedtuple
from pathlib import Path

import pytest

from combi import bijections, families, grammar, objects, poly, series, verify
from combi.poly import CapacityError, ExactPoly, Q, X, Y

FIELDS = [(class_name, i, name)
          for class_name, names in objects.INT_STAT_NAMES.items()
          for i, name in enumerate(names)]


@pytest.mark.parametrize("class_name,i,name", FIELDS,
                         ids=[f"{c}-{name}" for c, _, name in FIELDS])
def test_raised_statistic_fails_a_check(class_name, i, name, monkeypatch):
    ints = objects.class_functions(class_name)[1]

    def raised(*leaf):
        values = list(ints(*leaf))
        values[i] += 1
        return tuple(values)

    monkeypatch.setattr(objects, ints.__name__, raised)
    failed = [rep.id for rep in verify.run_all(5) if rep.status == "fail"]
    assert failed, f"no check reads {class_name} {name}"


def _guard_map(monkeypatch):
    """tools/guard_map.py as a module."""
    monkeypatch.setattr(sys, "path", list(sys.path))  # the tool prepends src
    path = Path(__file__).resolve().parents[1] / "tools" / "guard_map.py"
    spec = importlib.util.spec_from_file_location("guard_map", path)
    guard_map = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(guard_map)
    return guard_map


def test_guard_map_moves_a_named_tuple_field_by_field(monkeypatch):
    # rebuilding it as type(value)(items) raised a TypeError
    Pair = namedtuple("Pair", "counts flag")
    got = _guard_map(monkeypatch).moved(Pair(Counter({2: 3}), False))
    assert type(got) is Pair
    assert got.counts == {2: 4} and got.flag is True


def test_moved_subtree_tally_fails_every_certificate(monkeypatch):
    # a failed-edge flag in the tally, once moved, sent every certificate to
    # the image walk, which passed it; a tally that only counts cannot hide
    moved = _guard_map(monkeypatch).moved
    tally = bijections.subtree_tally
    monkeypatch.setattr(bijections, "subtree_tally",
                        lambda *args: moved(tally(*args)))
    reports = verify.run_all(6, ("phi-bijection", "psi-bijection"))
    assert len(reports) == 12
    assert all(rep.status == "fail" for rep in reports)


@pytest.mark.parametrize("map_id", ["phi", "psi"])
def test_moved_peel_shows_in_the_walk(monkeypatch, map_id):
    # with peel's result moved every edge fails, and the image walk
    # certifies the map again: the report passes as before, equal and with
    # the same repr, and only its walk tells which walk made it
    moved = _guard_map(monkeypatch).moved
    whole = bijections.verify_bijection(map_id, 5)
    peel = bijections.peel
    monkeypatch.setattr(bijections, "peel", lambda *args: moved(peel(*args)))
    rep = bijections.verify_bijection(map_id, 5)
    assert rep.all_ok and rep == whole and repr(rep) == repr(whole)
    assert (whole.walk, rep.walk) == ("edges", "images")



# With the guard bound to an accept-everything stand-in wherever a combi
# module binds it, each of these calls runs on and returns: the guard, not
# something after it, refuses the input.
SIZE_GUARDED = {
    "n_poly": lambda: families.n_poly(-1),
    "run_check": lambda: verify.run_check("A-via-invseq", True),
    "derive": lambda: grammar.derive(grammar.CYCLE_GRAMMAR,
                                     ExactPoly.var("a"), -1),
    "series_family": lambda: families.series_family("P", True),
}

# the same under a cap of one object, for the exhaustive routes
DOMAIN_GUARDED = {
    "stat_distribution": lambda: families.stat_distribution(
        "permutation", 3, (("asc", "x"),)),
    "verify_bijection": lambda: bijections.verify_bijection("psi", 2),
    "fiber_histogram": lambda: verify._fiber_histogram(2),
}


def _runs_without(monkeypatch, guard, call, error):
    with pytest.raises(error):
        call()
    guard_map = _guard_map(monkeypatch)
    bound = guard_map.bind_everywhere(guard, lambda *args, **kwargs: None)
    try:
        call()
    finally:
        guard_map.restore(bound, guard)


@pytest.mark.parametrize("name", SIZE_GUARDED)
def test_size_guard_is_load_bearing(monkeypatch, name):
    _runs_without(monkeypatch, objects.require_size, SIZE_GUARDED[name],
                  ValueError)


@pytest.mark.parametrize("name", DOMAIN_GUARDED)
def test_domain_guard_is_load_bearing(monkeypatch, name):
    monkeypatch.setattr(objects, "ENUM_CAP", 1)
    _runs_without(monkeypatch, objects.require_domain, DOMAIN_GUARDED[name],
                  CapacityError)


class Merged(Exception):
    """Raised by the stand-in for a kernel that merges term maps."""


def _merge(*args, **kwargs):
    raise Merged


# `+` and to_xyq merged term maps by hand, so neither raised
MERGING = {
    "add": lambda: X + 1,
    "derive": lambda: grammar.derive(grammar.CYCLE_GRAMMAR,
                                     ExactPoly.var("a")),
    "to_xyq": lambda: grammar.to_xyq(ExactPoly.monomial(1, {"b": 2})),
}


@pytest.mark.parametrize("name", MERGING)
def test_only_the_kernels_merge_term_maps(monkeypatch, name):
    guard_map = _guard_map(monkeypatch)
    kernels = (poly.poly_sum, poly.poly_dot)
    bound = [guard_map.bind_everywhere(fn, _merge) for fn in kernels]
    try:
        with pytest.raises(Merged):
            MERGING[name]()
    finally:
        for b, fn in zip(bound, kernels):
            guard_map.restore(b, fn)


KERNELS = ("divexact", "poly_apply", "poly_dot", "poly_reverse", "poly_sum")


@pytest.mark.parametrize("name", KERNELS)
def test_moved_runs_no_kernel(monkeypatch, name):
    # a move through `+` and `**` recursed into a mutant poly_sum or
    # poly_dot until RecursionError
    guard_map = _guard_map(monkeypatch)
    s = series.TruncatedSeries([1, Y, Q], 2)
    want_poly = sorted((X + X ** 3).items())
    want_series = [sorted(e.items()) for e in (ExactPoly.one(), X + Y, 2 * Q)]
    fn = getattr(poly, name)
    bound = guard_map.bind_everywhere(
        fn, lambda *args, **kwargs: guard_map.moved(fn(*args, **kwargs)))
    try:
        got_poly = guard_map.moved(X)
        got_series = guard_map.moved(s)
    finally:
        guard_map.restore(bound, fn)
    assert sorted(got_poly.items()) == want_poly
    assert [sorted(series.egf_coefficient(got_series, n).items())
            for n in range(3)] == want_series
