"""The one enumeration cap: every exhaustive route asks
`objects.require_domain` before it builds an object."""

import pytest

from combi import bijections, families as F, grammar, objects, verify
from combi.objects import ENUM_CAP, class_count, generate, require_domain
from combi.poly import CapacityError


def _first_refused(class_name, bounds=None):
    """The least n whose class_count exceeds ENUM_CAP; `bounds(n)` gives an
    inversion sequence's bound sequence."""
    n = 0
    while class_count(class_name, n, bounds and bounds(n)) <= ENUM_CAP:
        n += 1
    return n


def _evens(n):
    return tuple(2 * i for i in range(1, n + 1))


def _route(check_id, label):
    """The function of the registry route `label` of the check."""
    route, = (r for r in verify.REGISTRY[check_id].routes if r.label == label)
    return route.fn


# (route, its class, the bound sequence of size n for inversion sequences):
# registry routes keyed by the table they read, then entry points that no
# registry route is
ROUTES = {
    "invseq_distribution": (_route("A-via-invseq", "inversion sequences"),
                            "invseq", lambda n: tuple(range(1, n + 1))),
    "a_poly_enum": (_route("eq-1-3", "2^n x A_n by enumeration"),
                    "permutation", None),
    "d_poly_enum": (_route("S2-equals-d2z", "2^n d_n by enumeration"),
                    "permutation", None),
    "n_poly_enum": (_route("N-el-enum", "matching enumeration"), "matching",
                    None),
    "m_poly_enum": (_route("M-ol-enum", "matching enumeration"), "matching",
                    None),
    "ap_poly_enum": (_route("ap-equals-el", "ascent plateaus"), "stirling",
                     None),
    "c_poly_enum": (_route("C-descents", "descent enumeration"), "stirling",
                    None),
    "desi_poly_enum": (_route("desi-equals-cyc", "descent intervals"),
                       "stirling", None),
    "cplat_poly_enum": (_route("cplat-casc-C", "cycle plateaus"), "stirling2",
                        None),
    "casc_poly_enum": (_route("cplat-casc-C", "x * cycle ascents"),
                       "stirling2", None),
    "q_poly_enum": (_route("Q-recurrence-enum", "enumeration"), "stirling2",
                    None),
    "r_poly_enum": (_route("R-recurrence-enum", "enumeration"), "stirling2",
                    None),
    "y_poly_enum": (_route("Y-cyclic", "one-cycle enumeration"), "stirling2",
                    None),
    "cyc_poly_enum": (_route("desi-equals-cyc", "cycle count"), "stirling2",
                      None),
    "rlmin_poly_enum": (_route("rlmin-closed-form", "enumeration"), "signed",
                        None),
    "cap_sign_sum": (_route("h-series-vs-enum", "signed enumeration"),
                     "stirling2", None),
    "p_poly-enumeration": (_route("P-three-routes", "enumeration"),
                           "stirling2", None),
    "b_poly-invseq": (_route("B-via-invseq", "inversion sequences"), "invseq",
                      _evens),
    "b_poly-signed": (_route("B-via-invseq", "signed permutations"), "signed",
                      None),
    "stat_distribution": (lambda n: F.stat_distribution(
        "decorated", n, (("asc", "x"), ("hat", "q"))), "decorated", None),
    "lemma1_sides": (grammar.lemma1_sides, "stirling2", None),
    "certificate_roots-phi": (lambda n: bijections.certificate_roots("phi", n),
                              "decorated", None),
    "certificate_roots-psi": (lambda n: bijections.certificate_roots("psi", n),
                              "signed", None),
    "verify_bijection-phi": (lambda n: bijections.verify_bijection("phi", n),
                             "decorated", None),
    "verify_bijection-psi": (lambda n: bijections.verify_bijection("psi", n),
                             "signed", None),
    "paired-involutions": (
        lambda n: objects.count_paired_excedance_involutions(n // 2),
        "matching", None),
    "fiber-histogram": (verify._fiber_histogram, "decorated", None),
}


@pytest.fixture
def no_objects(monkeypatch):
    """Building any object fails the test."""
    def refuse(*args, **kwargs):
        raise AssertionError("an object was built")
    monkeypatch.setattr(objects, "generate", refuse)
    monkeypatch.setattr(objects, "walk", refuse)


def test_every_enumeration_route_is_listed(no_objects):
    # every class is over the cap at n = 11, so each enumeration route of
    # the registry is refused there before it builds an object
    routes = [(check.id, route) for check in verify.CHECKS
              for route in check.routes if route.kind == "enumeration"]
    for check_id, route in routes:
        with F.memoised(), pytest.raises(CapacityError) as exc:
            route.fn(11)
        assert f"ENUM_CAP={ENUM_CAP}" in str(exc.value), (check_id, route.label)


@pytest.mark.parametrize("route", ROUTES)
def test_route_refuses_first_n_above_cap(route, no_objects):
    fn, class_name, bounds = ROUTES[route]
    n = _first_refused(class_name, bounds)
    if route == "paired-involutions":  # [4m]: the matchings of 2m blocks
        n += n % 2
    with F.memoised(), pytest.raises(CapacityError) as exc:
        fn(n)
    message = str(exc.value)
    assert class_name in message and str(ENUM_CAP) in message
    assert f"n={n} " in message
    assert str(class_count(class_name, n, bounds and bounds(n))) in message


def test_bound_sequence_over_cap_refused(no_objects):
    with pytest.raises(CapacityError, match=str(ENUM_CAP + 1)):
        F.stat_distribution("invseq", 1, (("asc", "x"),), s=(ENUM_CAP + 1,))
    require_domain("invseq", 1, (ENUM_CAP,))


@pytest.mark.parametrize("s", [(9,), "junk"], ids=["tuple", "str"])
def test_bound_sequence_outside_invseq_refused(s, no_objects):
    # it was ignored, and a memo keyed on it walked and kept a second table
    match = "^a bound sequence s applies to invseq, not permutation$"
    for fn in (generate, class_count, require_domain, objects.leaves):
        with pytest.raises(ValueError, match=match):
            fn("permutation", 4, s)
    with F.memoised(), pytest.raises(ValueError, match=match):
        F.stat_distribution("permutation", 4, (("asc", "x"),), s=s)


# The largest n each hand-set cap accepted before this one replaced them:
# the phi/psi domain cap (2^n n! <= 700,000), the enumeration of P, those
# of B over inversion sequences and signed permutations, lemma1_sides and
# the paired-involution count.
@pytest.mark.parametrize("class_name,n,bounds", [
    ("decorated", 7, None), ("signed", 7, None), ("stirling2", 7, None),
    ("invseq", 8, _evens), ("signed", 6, None), ("stirling2", 8, None),
    ("matching", 4, None)])
def test_old_caps_largest_n_still_accepted(class_name, n, bounds, no_objects):
    require_domain(class_name, n, bounds and bounds(n))


def test_cap_is_the_largest_domain_taken_before():
    assert ENUM_CAP == 10_321_920 == class_count("invseq", 8, _evens(8))


def test_small_cap_skips_with_the_cap_in_detail(monkeypatch):
    monkeypatch.setattr(objects, "ENUM_CAP", 200)
    rep = verify.run_check("N-el-enum", 5)
    assert rep.status == "skipped-capacity"
    assert "ENUM_CAP=200" in rep.detail and "945" in rep.detail
    assert verify.run_check("N-el-enum", 4).status == "pass"  # 105 objects


def test_generate_is_not_capped(monkeypatch):
    monkeypatch.setattr(objects, "ENUM_CAP", 0)
    stream = objects.generate("matching", 9)  # 34,459,425 objects
    assert objects.validate(next(stream))
