import itertools
import os
import threading

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


@pytest.mark.parametrize("check_id, attr", [
    ("Y-cyclic", "y_poly"),
    ("S2-equals-d2z", "d_poly_enum"),
])
def test_registered_family_route_caught(monkeypatch, check_id, attr):
    original = getattr(families, attr)
    monkeypatch.setattr(families, attr, lambda n: original(n) + X ** (n + 1))
    assert verify.run_check(check_id, 3).status == "fail"


# ---------------------------------------------------------------------------
# enumeration tables are memoised: a mutant planted after a check has run
# once in the process must still reach its verdict
# ---------------------------------------------------------------------------

_STATS_STIRLING = objects.stats_stirling
_STIRLING2_CHILDREN = objects._stirling2_children
_DECORATED_CHILDREN = objects._decorated_children
_WALK = objects.walk


def _mutant_stats_stirling(sw):
    st = _STATS_STIRLING(sw)
    return {**st, "descents": st["descents"] + 1}


def _mutant_stirling2_children(cycles, m):
    """Drops one object: the first child of (1 2 2 1)."""
    kids = _STIRLING2_CHILDREN(cycles, m)
    return kids[1:] if m == 3 and cycles == ((1, 2, 2, 1),) else kids


def _mutant_decorated_children(word, m):
    """Drops the first circled child of every node; the certificate walks
    the same tree as the enumeration, so both must see it."""
    kids = _DECORATED_CHILDREN(word, m)
    for i, kid in enumerate(kids):
        if any(v == m and circle for v, _, circle in kid):
            return kids[:i] + kids[i + 1:]
    return kids


def _mutant_walk(children, n, root=()):
    """Drops the first node of size n."""
    return itertools.islice(_WALK(children, n, root), 1, None)


@pytest.mark.parametrize("check_id, attr, mutant", [
    ("C-descents", "stats_stirling", _mutant_stats_stirling),
    ("Q-recurrence-enum", "_stirling2_children", _mutant_stirling2_children),
    ("phi-bijection", "_decorated_children", _mutant_decorated_children),
    ("eq-1-3-refined-k", "_decorated_children", _mutant_decorated_children),
    ("C-descents", "walk", _mutant_walk),
    ("phi-bijection", "walk", _mutant_walk),
], ids=["C-descents", "Q-recurrence-enum", "phi-bijection",
        "eq-1-3-refined-k", "C-descents-walk", "phi-bijection-walk"])
def test_mutant_after_warm_up_caught(monkeypatch, check_id, attr, mutant):
    assert verify.run_check(check_id, 3).status == "pass"
    monkeypatch.setattr(objects, attr, mutant)
    assert verify.run_check(check_id, 3).status == "fail"


# ---------------------------------------------------------------------------
# run_all on two processes: a forked child runs the table checks while this
# process runs the bijection certificates; each path is forced through the
# CPU count
# ---------------------------------------------------------------------------

def _strip(reports):
    return [(r.id, r.n, r.status, r.lhs, r.rhs) for r in reports]


def _small_plan(max_n=4):
    return {c.id: min(c.max_n, max_n) for c in verify.CHECKS}


@pytest.fixture
def forks(monkeypatch):
    """Counts the processes run_all forks; the CPU count stays as it is."""
    calls = []
    fork = verify.os.fork

    def counting_fork():
        calls.append(None)
        return fork()

    monkeypatch.setattr(verify.os, "fork", counting_fork)
    return calls


def _cpus(monkeypatch, count):
    monkeypatch.setattr(verify, "_cpu_count", lambda: count)


def _no_children_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_shards_split_bijections_from_tables():
    units = [(pos, cid, n) for pos, (cid, n) in enumerate(
        (cid, n) for cid, ns in verify.plan() for n in ns)]
    walks, tables = verify._shards(units)
    assert {cid for _, cid, _ in walks} == {"phi-bijection", "psi-bijection"}
    assert sorted(walks + tables) == units
    assert verify._shards([]) == [[]]


def test_empty_plan_runs_nothing(monkeypatch, forks):
    _cpus(monkeypatch, 2)
    assert verify.run_all({c.id: -1 for c in verify.CHECKS}) == []
    assert not forks


def test_parallel_and_serial_agree(monkeypatch, forks):
    _cpus(monkeypatch, 1)
    serial = verify.run_all(_small_plan())
    assert not forks
    _cpus(monkeypatch, 2)
    parallel = verify.run_all(_small_plan())
    assert len(forks) == 1
    assert _strip(parallel) == _strip(serial)
    assert [(r.id, r.n) for r in parallel] == [
        (cid, n) for cid, ns in verify.plan(_small_plan()) for n in ns]
    assert all(r.status == "pass" for r in parallel)
    _no_children_left()


def test_other_thread_keeps_run_all_serial(monkeypatch, forks):
    _cpus(monkeypatch, 2)
    release = threading.Event()
    thread = threading.Thread(target=release.wait, args=(60,))
    thread.start()
    try:
        reports = verify.run_all(_small_plan(2))
    finally:
        release.set()
        thread.join(60)
    assert not thread.is_alive()
    assert not forks
    assert all(r.status == "pass" for r in reports)


def test_mutant_planted_in_parent_fails_in_child(monkeypatch, forks):
    _cpus(monkeypatch, 2)
    monkeypatch.setattr(families, "n_row", _mutant_n_row)
    reports = verify.run_all(_small_plan())
    assert len(forks) == 1
    failed = {r.id for r in reports if r.status == "fail"}
    assert {"eq-1-3", "N-el-enum", "M-via-invseq"} <= failed
    assert not failed & {"phi-bijection", "psi-bijection"}


def _raising(message):
    def fn(*args, **kwargs):
        raise ValueError(message)
    return fn


# A-via-invseq (a_poly) comes before phi-bijection in the plan, C-descents
# (c_poly) after psi-bijection.
@pytest.mark.parametrize("table_attr, expected", [
    (None, "certificate"),
    ("a_poly", "table"),
    ("c_poly", "certificate"),
], ids=["certificate-only", "table-first", "certificate-first"])
def test_earliest_unit_error_is_raised(monkeypatch, table_attr, expected):
    from combi import bijections
    monkeypatch.setattr(bijections, "verify_bijection", _raising("certificate"))
    if table_attr is not None:
        monkeypatch.setattr(families, table_attr, _raising("table"))
    for cpus in (1, 2):
        _cpus(monkeypatch, cpus)
        with pytest.raises(ValueError, match=f"^{expected}$"):
            verify.run_all(_small_plan(3))
        _no_children_left()


def test_interrupt_stops_the_child(monkeypatch, forks):
    from combi import bijections

    def interrupt(map_id, n):
        raise KeyboardInterrupt

    _cpus(monkeypatch, 2)
    monkeypatch.setattr(bijections, "verify_bijection", interrupt)
    with pytest.raises(KeyboardInterrupt):
        verify.run_all()
    assert len(forks) == 1
    _no_children_left()


def test_bad_max_order_error_same_on_both_paths(monkeypatch, capsys):
    from combi.cli import main
    monkeypatch.setenv("COMBI_MAX_ORDER", "abc")
    outputs = []
    for cpus in (1, 2):
        _cpus(monkeypatch, cpus)
        assert main(["verify", "--all", "--max-n", "2"]) == 2
        outputs.append(capsys.readouterr())
        _no_children_left()
    assert outputs[0] == outputs[1]
    assert outputs[0].out == ""
    assert outputs[0].err == ("error: COMBI_MAX_ORDER must be a nonnegative "
                              "integer, got 'abc'\n")


def test_child_dying_without_result_raises(monkeypatch, forks):
    parent = os.getpid()

    def die(n):
        assert os.getpid() != parent, "a table route ran in the parent"
        os._exit(3)

    _cpus(monkeypatch, 2)
    monkeypatch.setattr(families, "a_poly", die)
    with pytest.raises(RuntimeError, match="exited with status 3"):
        verify.run_all(_small_plan(2))
    assert len(forks) == 1
    _no_children_left()


def test_cli_reports_lost_child(monkeypatch, capsys, forks):
    from combi.cli import main

    def die(n):
        os._exit(3)

    _cpus(monkeypatch, 2)
    monkeypatch.setattr(families, "a_poly", die)
    code = main(["verify", "--all", "--max-n", "2"])
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert err.startswith("error: table-check process ")
    assert "exited with status 3" in err and "Traceback" not in err
    assert len(forks) == 1
    _no_children_left()


def test_rebound_run_check_runs_in_process(monkeypatch, forks):
    calls = []

    def counting(check_id, n):
        calls.append((check_id, n))
        return verify.VerifyReport(check_id, n, "pass")

    _cpus(monkeypatch, 2)
    monkeypatch.setattr(verify, "run_check", counting)
    reports = verify.run_all()
    assert not forks
    assert len(calls) == len(reports) == 254
    assert calls == [(cid, n) for cid, ns in verify.plan() for n in ns]
