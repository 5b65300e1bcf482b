import pytest

from combi.poly import CapacityError, ExactPoly, Q, X, Y
from combi.series import egf_coefficient
from combi import objects
from combi.objects import generate, stats
from combi import cli, verify
from combi import families as F


def _dist(class_name, n, *pairs, **kwargs):
    return F.stat_distribution(class_name, n, pairs, **kwargs)


def _derangements_by_exc(n):
    return _dist("permutation", n, ("exc", "x"),
                 where=lambda st: st["exc"] + st["anti_exc"] == n)


def test_n_triangle():
    assert F.n_poly(0) == 1
    assert F.n_poly(1) == X
    assert F.n_poly(2) == 2 * X + X ** 2
    assert F.n_poly(3) == 4 * X + 10 * X ** 2 + X ** 3
    assert [sum(F.n_row(n)) for n in range(1, 11)] == [
        F.double_factorial(n) for n in range(1, 11)]


def test_c_triangle():
    assert F.c_poly(1) == X
    assert F.c_poly(2) == X + 2 * X ** 2
    assert F.c_poly(4) == _dist("stirling", 4, ("descents", "x"))
    assert [sum(F.c_row(n)) for n in range(1, 8)] == [
        F.double_factorial(n) for n in range(1, 8)]


def test_m_poly():
    assert F.m_poly(0) == 1
    assert F.m_poly(1) == 1
    assert F.m_poly(2) == 1 + 2 * X
    assert F.m_poly(3) == 1 + 10 * X + 4 * X ** 2
    for n in range(1, 5):
        assert F.m_poly(n) == _dist("matching", n, ("ol", "x"))


def test_a_poly():
    assert [F.a_poly(n) for n in range(3)] == [ExactPoly.one(), ExactPoly.one(),
                                               1 + X]
    assert F.a_poly(3) == 1 + 4 * X + X ** 2
    assert F.a_poly(4) == 1 + 11 * X + 11 * X ** 2 + X ** 3
    for n in range(1, 6):
        assert F.a_poly(n) == _dist("permutation", n, ("des_A", "x"))
        # coefficients match the Eulerian-number recurrence
        assert F.a_poly(n).univariate_coeffs("x") == list(F.eulerian_row(n))


def test_q_poly():
    assert F.q_poly(0) == 1
    assert F.q_poly(1) == Q
    assert F.q_poly(2) == Q ** 2 + 2 * Q * X
    for n in range(1, 6):
        assert F.q_poly(n) == _dist("stirling2", n, ("cap", "x"), ("cyc", "q"))
        assert F.q_poly(n).subs_num("q", 1) == F.m_poly(n)
        assert F.q_poly(n).subs_num("x", 1) == F.l_closed(n)
    assert F.q_poly(2).subs_num("q", 1) == 1 + 2 * X


def test_p_poly_routes():
    assert F.p_poly(0) == 1
    assert F.p_poly(1) == Q * Y
    assert F.p_poly(2) == Q ** 2 * Y ** 2 + 2 * Q * X
    want3 = Q ** 3 * Y ** 3 + 6 * Q ** 2 * X * Y + 4 * Q * X ** 2 + 4 * Q * X
    assert F.p_poly(3) == want3
    assert F.p_poly(3).coefficient_of("y", 0) == 4 * Q * X * (1 + X)
    for n in range(6):
        rec = F.p_poly(n, "recurrence")
        assert rec == F.p_poly(n, "convolution")
        assert rec == F.p_poly(n, "series")
        if n:
            assert rec == _dist("stirling2", n, ("cap", "x"), ("fix", "y"),
                                ("cyc", "q"))
    for route in ("wrong", "enumeration"):
        with pytest.raises(ValueError):
            F.p_poly(2, route)
    with pytest.raises(CapacityError):  # 17!! objects; n = 8 now runs
        _dist("stirling2", 9, ("cap", "x"), ("fix", "y"), ("cyc", "q"))


def test_r_poly():
    assert F.r_poly(0) == 1
    assert F.r_poly(1) == 0
    assert F.r_poly(2) == 2 * Q * X
    assert F.r_poly(3) == 4 * Q * X * (1 + X)
    assert F.r_poly(4, with_q=False) == 8 * X + 44 * X ** 2 + 8 * X ** 3
    for n in range(1, 6):
        assert F.r_poly(n) == _dist("stirling2", n, ("cap", "x"), ("cyc", "q"),
                                    where=lambda st: st["fix"] == 0)
    # q_n = R_n(1, 1)
    qs = F.q_seq(8)
    for n in range(8):
        assert F.r_poly(n).subs_num("x", 1).subs_num("q", 1) == qs[n]


def test_r_poly_at_q_one_is_the_bivariate_one_at_q_one():
    # with_q=False runs its own recurrence at q = 1; no registry check
    # compares it with the bivariate one directly
    for n in range(21):
        assert F.r_poly(n, with_q=False) == F.r_poly(n).subs_num("q", 1), n


def test_r_nk_matches_p_coefficients():
    for n in range(7):
        p = F.p_poly(n)
        for k in range(n + 1):
            assert p.coefficient_of("y", k) == F.r_nk_poly(n, k)


@pytest.mark.parametrize("n,k,message", [
    (2, 5, r"^k must be an int in 0\.\.2, got 5$"),
    (2, -1, r"^k must be an int in 0\.\.2, got -1$"),
    (2, True, r"^k must be an int in 0\.\.2, got True$"),
    (2, 1.0, r"^k must be an int in 0\.\.2, got 1\.0$"),
    (-1, 0, r"^n must be >= 0$"),
    ("2", 0, r"^n must be an int, got '2'$"),
], ids=["k-above-n", "k-negative", "k-bool", "k-float", "n-negative", "n-str"])
def test_r_nk_rejects_bad_sizes(n, k, message):
    # (2, 5) used to say "n must be >= 0", (2, -1) that k is negative
    with pytest.raises(ValueError, match=message):
        F.r_nk_poly(n, k)


def test_l_poly():
    assert F.l_closed(0) == 1
    assert F.l_closed(3) == Q * (Q + 2) * (Q + 4)
    for n in range(1, 5):
        assert _dist("stirling", n, ("desi", "q")) == F.l_closed(n)
        assert _dist("stirling2", n, ("cyc", "q")) == F.l_closed(n)


def test_q_seq():
    assert F.q_seq(6) == [1, 0, 2, 8, 60, 544, 6040]


def test_h_values():
    assert F.h_values(4) == [1, 2, 28, 1112, 87568]


def test_d_poly():
    assert F.d_poly(0) == 1
    assert F.d_poly(1) == 0
    assert F.d_poly(2) == X
    assert F.d_poly(3) == X + X ** 2
    for n in range(1, 6):
        assert F.d_poly(n) == _derangements_by_exc(n)


def test_b_poly():
    assert F.b_poly(0) == 1
    assert F.b_poly(1) == 1 + X
    assert F.b_poly(2) == 1 + 6 * X + X ** 2
    for n in range(1, 5):
        evens = range(2, 2 * n + 1, 2)
        assert (_dist("invseq", n, ("asc", "x"), s=evens)
                == _dist("signed", n, ("des_B", "x")) == F.b_poly(n))
    with pytest.raises(CapacityError):
        _dist("invseq", 9, ("asc", "x"), s=range(2, 19, 2))
    with pytest.raises(TypeError):  # Brenti's recurrence is its one route
        F.b_poly(2, "signed")


def _type_b_triangle(n):
    """B(n,k) = (2k+1) B(n-1,k) + (2n-2k+1) B(n-1,k-1), B(0,0) = 1."""
    row = [1]
    for m in range(1, n + 1):
        row = [(2 * k + 1) * (row[k] if k < m else 0)
               + (2 * m - 2 * k + 1) * (row[k - 1] if k else 0)
               for k in range(m + 1)]
    return row


@pytest.mark.parametrize("n", range(9, 13))
def test_b_poly_recurrence_beyond_enumeration(n):
    assert F.b_poly(n).univariate_coeffs("x") == _type_b_triangle(n)


def test_y_poly():
    assert F.y_poly(1) == 1
    assert F.y_poly(2) == 2 * X
    for n in range(2, 6):
        assert _dist("stirling2", n, ("cap", "x"),
                     where=lambda st: st["cyc"] == 1) == F.y_poly(n)
    with pytest.raises(ValueError):
        F.y_poly(0)


def test_rlmin_closed_form():
    for n in range(1, 5):
        assert _dist("signed", n, ("rlmin", "x")) == F.rlmin_closed_form(n)
    assert F.rlmin_closed_form(2) == 4 * X * (X + 1)


def test_rlmin_closed_form_empty_word():
    # the one signed permutation of [0] has no right-to-left minima
    assert F.rlmin_closed_form(0) == 1


@pytest.mark.parametrize("n", [2.5, True], ids=["float", "bool"])
def test_sizes_that_are_not_ints_rejected(n):
    # stat_distribution("permutation", 2.5, ...) used to give 1 + x, and
    # a_poly(2.5) raised a TypeError from range()
    for fn in (F.a_poly, F.b_poly, F.q_poly, F.p_poly, F.r_poly, F.c_poly,
               F.n_poly, F.l_closed, F.q_seq, F.n_row, F.c_row, F.y_poly,
               lambda n: F.stat_distribution("permutation", n, (("asc", "x"),))):
        with pytest.raises(ValueError, match="^n must be an int, got "):
            fn(n)


def test_n_series_to_order_ten():
    s = F.series_family("N", 10)
    for n in range(11):
        assert egf_coefficient(s, n) == F.n_poly(n)


# each family's n![z^n] by a route that reads no series; A(x,z) collects
# x*A_n(x) for n >= 1, and sqrtsec holds (-1)^k h_k at z^(2k)
_SERIES_ENTRY = {
    "N": F.n_poly,
    "M": F.m_poly,
    "A": lambda n: X * F.a_poly(n) if n else ExactPoly.one(),
    "Q": F.q_poly,
    "P": F.p_poly,
    "d": _derangements_by_exc,
    "S": lambda n: F.r_poly(n, with_q=False),
    "sqrtsec": lambda n: 0 if n % 2 else (-1) ** (n // 2) * (
        1, 2, 28, 1112)[n // 2],
    "pm": F.double_factorial,
    "qn": lambda n: F.q_seq(n)[n],
}


def test_series_entry_table_covers_every_family():
    assert sorted(_SERIES_ENTRY) == sorted(F.SERIES_IDS)
    assert len(F.SERIES_IDS) == 10


@pytest.mark.parametrize("name", sorted(_SERIES_ENTRY))
def test_series_family(name):
    s = F.series_family(name, 6)
    assert s.order == 6
    for n in range(7):
        assert egf_coefficient(s, n) == _SERIES_ENTRY[name](n), n


def test_series_squares():
    assert (F.series_family("N", 6) * F.series_family("N", 6)
            == F.series_family("A", 6).scale_argument(2))
    assert (F.series_family("S", 6) * F.series_family("S", 6)
            == F.series_family("d", 6).scale_argument(2))


@pytest.mark.parametrize("name", sorted(_SERIES_ENTRY))
def test_series_family_entries_are_integer_polynomials(monkeypatch, name):
    # every n![z^n] of the order-16 build is an integer polynomial: the
    # EGF-normalised steps keep the build's sums and products on ints
    monkeypatch.delenv("COMBI_MAX_ORDER", raising=False)
    s = F.series_family(name, 16)
    for n in range(17):
        entry = egf_coefficient(s, n)
        assert isinstance(entry, ExactPoly)
        assert all(type(c) is int for _, c in entry.items()), n


@pytest.mark.parametrize("order", [2.5, True], ids=["float", "bool"])
def test_series_order_that_is_not_an_int_rejected(order):
    # True used to hit the memoised order-1 families, 2.5 a raw TypeError
    F.series_family("N", 1)
    with pytest.raises(ValueError, match="^order must be an int, got "):
        F.series_family("N", order)


def test_series_capacity():
    with pytest.raises(CapacityError):
        F.series_family("N", 99)
    # the cap is checked before the name
    with pytest.raises(CapacityError):
        F.series_family("nope", 99)


class _Built(Exception):
    """A series builder ran that the call should not need."""


def _refuse(order):
    raise _Built(order)


@pytest.mark.parametrize("name", ["nope", "p", "", "Nq"])
def test_series_unknown_name_rejected(monkeypatch, name):
    for known in F.SERIES_IDS:
        monkeypatch.setitem(F._SERIES_BUILDERS, known, _refuse)
    with F.memoised(), pytest.raises(ValueError) as err:
        F.series_family(name, 4)
    assert str(err.value) == (
        f"unknown series {name!r}; choose from ('M', 'N', 'A', 'Q', 'P', "
        "'d', 'S', 'sqrtsec', 'pm', 'qn')")


@pytest.mark.parametrize("call, needs", [
    (lambda: F.p_poly(16, "series"), {"P", "Q", "M"}),
    (lambda: F.d_poly(6), {"d"}),
    (lambda: F.h_values(4), {"sqrtsec"}),
    (lambda: cli.main(["series", "--id", "A", "--order", "10"]), {"A"}),
], ids=["p16-series", "d6", "h4", "cli-series-A"])
def test_series_request_builds_only_what_it_reads(monkeypatch, capsys, call,
                                                  needs):
    monkeypatch.delenv("COMBI_MAX_ORDER", raising=False)
    want = call()
    capsys.readouterr()
    for name in set(F.SERIES_IDS) - needs:
        monkeypatch.setitem(F._SERIES_BUILDERS, name, _refuse)
    assert call() == want
    with F.memoised():
        assert call() == want
    assert capsys.readouterr().err == ""


def test_cap_sign_sum():
    signed_sum = verify.REGISTRY["h-series-vs-enum"].routes[0].fn
    assert [signed_sum(n) for n in range(1, 5)] == [0, -2, 0, 28]
    # the projection of R_n against the sum taken object by object
    for n in range(1, 6):
        direct = sum((-1) ** st["cap"] for st in map(stats, generate("stirling2", n))
                     if st["fix"] == 0)
        assert signed_sum(n) == direct


def test_statistic_outside_the_schema_names_it():
    # used to be a raw KeyError
    with pytest.raises(ValueError, match=r"\('el', 'ol'\)"):
        F.stat_distribution("matching", 3, (("nope", "x"),))
    with pytest.raises(ValueError, match="unknown object class"):
        F.stat_distribution("nope", 3, (("el", "x"),))


@pytest.mark.parametrize("pairs", [(("cap", "x"), ("cyc", "x")),
                                   (("cap", "z"),)],
                         ids=["repeated-variable", "variable-outside-alphabet"])
def test_bad_variable_refused_before_the_walk(monkeypatch, pairs):
    # a repeated x used to return the cyc distribution alone, and z raised
    # only after the whole table was walked
    def refuse(*args, **kwargs):
        raise AssertionError("the table was walked")
    monkeypatch.setattr(F, "_joint_table", refuse)
    with pytest.raises(ValueError, match="^variables must be distinct "):
        F.stat_distribution("stirling2", 3, pairs)


def test_split_distributions():
    joint = F.stat_distribution("decorated", 2, (("asc", "x"), ("hat", "q")))
    dist = {k: joint.coefficient_of("q", k) for k in range(3)}
    assert dist[0] == 2 * X + X ** 2   # N_0 * N_2
    assert dist[1] == 2 * X ** 2       # 2 * N_1 * N_1
    assert dist[2] == 2 * X + X ** 2   # N_2 * N_0
    total = ExactPoly.zero()
    for p in dist.values():
        total = total + p
    assert total == 4 * X + 4 * X ** 2


def test_joint_table_memoised_and_read_only():
    with F.memoised():
        table = F._joint_table("matching", 3)
        with F.memoised():  # an inner block shares the outer memo
            assert F._joint_table("matching", 3) is table
    assert F._joint_table("matching", 3) is not table  # the run has ended
    assert objects.INT_STAT_NAMES["matching"] == ("el", "ol")
    assert dict(table) == {(3, 0): 1, (2, 1): 10, (1, 2): 4}
    with pytest.raises(TypeError):
        table[(3, 0)] = 2


@pytest.mark.parametrize("fn", [F.a_poly, F.q_poly, F.p_poly, F.b_poly,
                                F.h_values, F.q_seq, F.rlmin_closed_form,
                                F.l_closed])
def test_negative_n_rejected(fn):
    with pytest.raises(ValueError):
        fn(-2)
