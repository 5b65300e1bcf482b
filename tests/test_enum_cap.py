"""The one enumeration cap: every exhaustive route asks
`objects.require_domain` before it builds an object."""

import pytest

from combi import bijections, families as F, grammar, objects, verify
from combi.objects import ENUM_CAP, class_count, require_domain
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


# (route, its class, the bound sequence of size n for inversion sequences)
ROUTES = {
    "stat_distribution": (lambda n: F.stat_distribution(
        "decorated", n, (("asc", "x"), ("hat", "q"))), "decorated", None),
    "invseq_distribution": (lambda n: F.invseq_distribution(_evens(n)),
                            "invseq", _evens),
    "a_poly_enum": (F.a_poly_enum, "permutation", None),
    "d_poly_enum": (F.d_poly_enum, "permutation", None),
    "n_poly_enum": (F.n_poly_enum, "matching", None),
    "m_poly_enum": (F.m_poly_enum, "matching", None),
    "ap_poly_enum": (F.ap_poly_enum, "stirling", None),
    "c_poly_enum": (F.c_poly_enum, "stirling", None),
    "desi_poly_enum": (F.desi_poly_enum, "stirling", None),
    "cplat_poly_enum": (F.cplat_poly_enum, "stirling2", None),
    "casc_poly_enum": (F.casc_poly_enum, "stirling2", None),
    "q_poly_enum": (F.q_poly_enum, "stirling2", None),
    "r_poly_enum": (F.r_poly_enum, "stirling2", None),
    "y_poly_enum": (F.y_poly_enum, "stirling2", None),
    "cyc_poly_enum": (F.cyc_poly_enum, "stirling2", None),
    "rlmin_poly_enum": (F.rlmin_poly_enum, "signed", None),
    "cap_sign_sum": (F.cap_sign_sum, "stirling2", None),
    "p_poly-enumeration": (lambda n: F.p_poly(n, "enumeration"), "stirling2",
                           None),
    "b_poly-invseq": (lambda n: F.b_poly(n, "invseq"), "invseq", _evens),
    "b_poly-signed": (lambda n: F.b_poly(n, "signed"), "signed", None),
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


def test_every_enumeration_route_is_listed():
    enum_routes = {name for name in vars(F) if name.endswith("_enum")}
    assert enum_routes <= set(ROUTES)


@pytest.fixture
def no_objects(monkeypatch):
    """Building any object fails the test."""
    def refuse(*args, **kwargs):
        raise AssertionError("an object was built")
    monkeypatch.setattr(objects, "generate", refuse)
    monkeypatch.setattr(objects, "walk", refuse)


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
        F.invseq_distribution((ENUM_CAP + 1,))
    require_domain("invseq", 1, (ENUM_CAP,))


# The largest n each hand-set cap accepted before this one replaced them:
# the phi/psi domain cap (2^n n! <= 700,000), p_poly's enumeration route,
# b_poly's inversion-sequence and signed routes, lemma1_sides and the
# paired-involution count.
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
