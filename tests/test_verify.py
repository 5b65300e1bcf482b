import itertools

import pytest

from combi import families, objects, verify
from combi.poly import ExactPoly, X

EXPECTED_IDS = [
    "A-via-invseq", "B-via-invseq", "M-via-invseq", "N-el-enum", "M-ol-enum",
    "M-reverse-N", "eq-1-3", "eq-1-4", "eq-1-3-refined-k", "eq-1-4-refined-k",
    "N2-equals-A2z", "phi-bijection", "psi-bijection", "C-descents",
    "ap-equals-el", "cplat-casc-C", "Q-recurrence-enum", "Q-gf",
    "cyc-closed-form", "desi-equals-cyc", "Y-cyclic", "P-three-routes",
    "P-gf", "grammar-lemma1", "grammar-lemma2", "R-recurrence-enum",
    "R-binomial-shift", "qn-egf", "S2-equals-d2z", "R-palindromic",
    "R-real-rooted", "h-series-vs-enum", "h-involutions",
    "rlmin-closed-form", "fiber-2n",
]


def test_registry_table():
    assert [c.id for c in verify.CHECKS] == EXPECTED_IDS
    assert len(verify.REGISTRY) == len(verify.CHECKS) >= 22
    for check in verify.CHECKS:
        assert len(check.routes) >= 2
        assert check.description
        assert check.ns == tuple(sorted(check.ns))


def test_routes_are_named_functions():
    for check in verify.CHECKS:
        assert all(isinstance(r, verify.Route) and callable(r.fn)
                   for r in check.routes)
        labels = [r.label for r in check.routes]
        assert len(set(labels)) == len(labels), check.id


def test_run_check_pass():
    rep = verify.run_check("eq-1-3", 4)
    assert rep.status == "pass"
    assert rep.lhs is None and rep.rhs is None
    assert rep.id == "eq-1-3" and rep.n == 4


def test_run_check_unknown_id():
    with pytest.raises(ValueError):
        verify.run_check("definitely-not-registered", 3)


def test_run_check_capacity_skip():
    rep = verify.run_check("phi-bijection", 12)
    assert rep.status == "skipped-capacity"
    rep2 = verify.run_check("R-real-rooted", 1)
    assert rep2.status == "skipped-capacity"


def test_plan_override_semantics():
    default = verify.plan()
    assert default == verify.plan({})
    capped = dict(verify.plan({"eq-1-3": 3}))
    assert capped["eq-1-3"] == (0, 1, 2, 3)
    assert dict(default)["eq-1-3"] == tuple(range(0, 9))


def test_run_all_determinism():
    overrides = {c.id: min(c.max_n, 3) for c in verify.CHECKS}
    a = verify.run_all(overrides)
    b = verify.run_all(overrides)
    strip = lambda reps: [(r.id, r.n, r.status, r.lhs, r.rhs) for r in reps]
    assert strip(a) == strip(b)
    assert all(r.status == "pass" for r in a)


# ---------------------------------------------------------------------------
# mutation testing: a single wrong recurrence coefficient must be caught
# ---------------------------------------------------------------------------

def _mutant_n_row(n):
    # 2k coefficient degraded to k
    row = [0, 1]
    for m in range(1, n):
        new = [0] * (m + 2)
        for k in range(1, m + 2):
            old_k = row[k] if k <= m else 0
            new[k] = k * old_k + (2 * m - 2 * k + 3) * row[k - 1]
        row = new
    return tuple(row)


def test_mutant_n_recurrence_caught(monkeypatch):
    monkeypatch.setattr(families, "n_row", _mutant_n_row)
    rep = verify.run_check("eq-1-3", 3)
    assert rep.status == "fail"
    assert rep.lhs and rep.rhs and rep.lhs != rep.rhs


def _mutant_c_row(n):
    # 2n-k coefficient degraded to 2n+k
    row = [0, 1]
    for m in range(2, n + 1):
        new = [0] * (m + 1)
        for k in range(1, m + 1):
            old_k = row[k] if k < len(row) else 0
            new[k] = k * old_k + (2 * m + k) * row[k - 1]
        row = new
    return tuple(row)


def test_mutant_c_recurrence_caught(monkeypatch):
    monkeypatch.setattr(families, "c_row", _mutant_c_row)
    assert verify.run_check("C-descents", 3).status == "fail"


def _mutant_q_poly(n, with_q=True):
    from combi.poly import ONE, Q
    p = ONE
    for m in range(n):
        # drift: q + 2nx becomes q + (2n+1)x
        p = (Q + (2 * m + 1) * X) * p + 2 * X * (1 - X) * p.diff("x")
    return p if with_q else p.subs_num("q", 1)


def test_mutant_q_recurrence_caught(monkeypatch):
    monkeypatch.setattr(families, "q_poly", _mutant_q_poly)
    assert verify.run_check("Q-recurrence-enum", 3).status == "fail"


def _mutant_a_poly(n):
    p = ExactPoly.one()
    for m in range(n):
        p = (1 + (m + 1) * X) * p + X * (1 - X) * p.diff("x")
    return p


def test_mutant_a_recurrence_caught(monkeypatch):
    monkeypatch.setattr(families, "a_poly", _mutant_a_poly)
    assert verify.run_check("eq-1-3", 3).status == "fail"


@pytest.mark.parametrize("attr, mutant, disagreeing", [
    ("a_poly", _mutant_a_poly, 1),
    ("n_row", _mutant_n_row, 2),
], ids=["a_poly", "n_row"])
def test_failing_report_names_disagreeing_routes(monkeypatch, attr, mutant,
                                                 disagreeing):
    monkeypatch.setattr(families, attr, mutant)
    rep = verify.run_check("eq-1-3", 3)
    routes = verify.REGISTRY["eq-1-3"].routes
    assert rep.status == "fail"
    assert rep.lhs == f"{routes[0].label}: {routes[0].fn(3).render()}"
    assert rep.rhs.startswith(f"{routes[disagreeing].label}: ")


def test_bijection_report_compared_whole(monkeypatch):
    from combi import bijections

    def broken(map_id, n):
        return bijections.BijectionReport(n, True, True, True, ("w", "t"))

    monkeypatch.setattr(bijections, "verify_bijection", broken)
    rep = verify.run_check("phi-bijection", 2)
    assert rep.status == "fail"
    assert rep.lhs.startswith("certificate: BijectionReport(n=2")
    assert rep.rhs.startswith("all checks hold: BijectionReport(n=2")


def _mutant_r_poly(n, with_q=True):
    from combi.poly import ONE, Q
    if n == 0:
        p = ONE
    elif n == 1:
        p = ExactPoly.zero()
    else:
        prev, cur = ExactPoly.zero(), 2 * Q * X
        for m in range(2, n):
            prev, cur = cur, (2 * m * X * cur + 2 * X * (1 - X) * cur.diff("x")
                              + (2 * m + 2) * X * Q * prev)
        p = cur
    return p if with_q else p.subs_num("q", 1)


def test_mutant_r_recurrence_caught(monkeypatch):
    monkeypatch.setattr(families, "r_poly", _mutant_r_poly)
    assert verify.run_check("R-recurrence-enum", 4).status == "fail"


# ---------------------------------------------------------------------------
# enumeration tables are memoised: a mutant planted after a check has run
# once in the process must still reach its verdict
# ---------------------------------------------------------------------------

_STATS_STIRLING = objects.stats_stirling
_GEN_CYCLE_STIRLING = objects._gen_cycle_stirling


def _mutant_stats_stirling(sw):
    st = _STATS_STIRLING(sw)
    return {**st, "descents": st["descents"] + 1}


def _mutant_gen_cycle_stirling(n):
    return itertools.islice(_GEN_CYCLE_STIRLING(n), 1, None)


@pytest.mark.parametrize("check_id, attr, mutant", [
    ("C-descents", "stats_stirling", _mutant_stats_stirling),
    ("Q-recurrence-enum", "_gen_cycle_stirling", _mutant_gen_cycle_stirling),
], ids=["C-descents", "Q-recurrence-enum"])
def test_mutant_after_warm_up_caught(monkeypatch, check_id, attr, mutant):
    assert verify.run_check(check_id, 3).status == "pass"
    monkeypatch.setattr(objects, attr, mutant)
    assert verify.run_check(check_id, 3).status == "fail"
