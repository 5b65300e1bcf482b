import itertools
import os
import re
import sys
import threading
from collections import Counter

import pytest

from combi import families, objects, series, verify
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


@pytest.mark.parametrize("n", ["3", 3.0, True, -1],
                         ids=["str", "float", "bool", "negative"])
def test_run_check_rejects_a_size_that_is_not_one(n):
    # "3" used to raise a raw TypeError, 3.0 a ValueError inside a route
    with pytest.raises(ValueError, match="^n must be "):
        verify.run_check("eq-1-3", n)


def test_ids_given_as_a_str_rejected():
    # "eq-1-3" used to be read as the ids 'e', 'q', ...
    for call in (verify.plan, verify.run_all):
        with pytest.raises(ValueError, match=r"^ids must be a tuple such as "
                                             r"\('eq-1-3',\), not a str$"):
            call(3, "eq-1-3")


def test_plan_override_semantics():
    default = verify.plan()
    assert default == verify.plan(None, None)
    assert [cid for cid, _ in default] == EXPECTED_IDS
    assert all(ns == c.ns for (_, ns), c in zip(default, verify.CHECKS))
    capped = dict(verify.plan(3))
    assert capped["eq-1-3"] == (0, 1, 2, 3)
    assert capped["N2-equals-A2z"] == ()
    assert dict(default)["eq-1-3"] == tuple(range(0, 9))
    assert verify.plan(3, ("eq-1-3",)) == [("eq-1-3", (0, 1, 2, 3))]
    assert verify.plan(ids=("psi-bijection", "A-via-invseq")) == [
        ("psi-bijection", tuple(range(1, 7))), ("A-via-invseq", tuple(range(7)))]
    with pytest.raises(ValueError, match="unknown check id 'nope'"):
        verify.plan(ids=("nope",))


@pytest.mark.parametrize("max_n", ["3", 2.5, True],
                         ids=["str", "float", "bool"])
def test_max_n_that_is_not_an_int_rejected(max_n):
    # "3" used to raise a raw TypeError; 2.5 and True ran
    with pytest.raises(ValueError, match="^max_n must be an int, got "):
        verify.plan(max_n)
    with pytest.raises(ValueError, match="^max_n must be an int, got "):
        verify.run_all(max_n)


def test_run_all_determinism():
    a = verify.run_all(3)
    b = verify.run_all(3)
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


def test_mutant_poly_reverse_caught(monkeypatch):
    # a reversal about n + 1 shifts x^n S_n(1/x) by x, away from R_n
    reverse = verify.poly_reverse
    monkeypatch.setattr(verify, "poly_reverse", lambda p, n: reverse(p, n + 1))
    rep = verify.run_check("R-palindromic", 4)
    assert rep.status == "fail"
    assert rep.lhs.startswith("R_n: ")
    assert rep.rhs.startswith("x^n S_n(1/x): ")


@pytest.mark.parametrize("check_id, attr", [
    ("Y-cyclic", "y_poly"),
    ("S2-equals-d2z", "stat_distribution"),
])
def test_registered_family_route_caught(monkeypatch, check_id, attr):
    original = getattr(families, attr)
    monkeypatch.setattr(families, attr,
                        lambda *args, **kw: original(*args, **kw) + X ** 9)
    assert verify.run_check(check_id, 3).status == "fail"


# ---------------------------------------------------------------------------
# the recurrence kernel: a check that computes a side with poly.poly_apply
# keeps a side that does not, so a wrong kernel cannot agree with itself
# ---------------------------------------------------------------------------

# a property check whose every route reads r_poly: the degree and two
# root counts of R_n/x
KERNEL_ONLY = {"R-real-rooted"}


class _KernelCalled(Exception):
    pass


def _kernel_free(fn, ns):
    """True when fn returns at every n in ns, False when it calls the
    kernel at one of them."""
    try:
        for n in ns:
            fn(n)
    except _KernelCalled:
        return False
    return True


def test_kernel_checks_keep_a_route_without_the_kernel(monkeypatch):
    def raising(terms):
        raise _KernelCalled

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "combi" and hasattr(module, "poly_apply"):
            monkeypatch.setattr(module, "poly_apply", raising)
    monkeypatch.delenv("COMBI_MAX_ORDER", raising=False)
    kernel_checks = set()
    for check in verify.CHECKS:
        # A_0, R_0, R_1 and R_2 take no step, so the smallest n alone may
        # miss the kernel
        free = [_kernel_free(route.fn, check.ns[:4]) for route in check.routes]
        if all(free):
            continue
        kernel_checks.add(check.id)
        if check.id in KERNEL_ONLY:
            assert not any(free), check.id
        else:
            assert any(free), f"{check.id}: every route calls the kernel"
    assert KERNEL_ONLY <= kernel_checks
    assert {"A-via-invseq", "B-via-invseq", "Q-gf", "P-three-routes",
            "R-binomial-shift", "qn-egf"} <= kernel_checks


# ---------------------------------------------------------------------------
# enumeration tables and EGFs are memoised within a run: a mutant planted
# after a check has run once in the process must still reach its verdict
# ---------------------------------------------------------------------------

_INT_STATS_STIRLING = objects.int_stats_stirling
_STIRLING2_CHILDREN = objects._stirling2_children
_DECORATED_CHILDREN = objects._decorated_children
_WALK = objects.walk
_SERIES_SQRT = families.series_sqrt
_SERIES_LOG = series.series_log


def _mutant_int_stats_stirling(sw):
    descents, ap, desi = _INT_STATS_STIRLING(sw)
    return descents + 1, ap, desi


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


def _mutant_series_sqrt(s):
    """A fourth root in place of the square root."""
    return _SERIES_SQRT(_SERIES_SQRT(s))


def _mutant_series_log(s):
    """The logarithm doubled; series_pow_symbolic calls it by name inside
    the series module, so no key of the EGF memo could name it."""
    return _SERIES_LOG(s) * 2


@pytest.mark.parametrize("check_id, module, attr, mutant", [
    ("C-descents", objects, "int_stats_stirling", _mutant_int_stats_stirling),
    ("Q-recurrence-enum", objects, "_stirling2_children",
     _mutant_stirling2_children),
    ("phi-bijection", objects, "_decorated_children",
     _mutant_decorated_children),
    ("eq-1-3-refined-k", objects, "_decorated_children",
     _mutant_decorated_children),
    ("C-descents", objects, "walk", _mutant_walk),
    ("phi-bijection", objects, "walk", _mutant_walk),
    ("Q-gf", families, "series_sqrt", _mutant_series_sqrt),
    ("Q-gf", series, "series_log", _mutant_series_log),
], ids=["C-descents", "Q-recurrence-enum", "phi-bijection",
        "eq-1-3-refined-k", "C-descents-walk", "phi-bijection-walk",
        "Q-gf-series_sqrt", "Q-gf-series_log"])
def test_mutant_after_warm_up_caught(monkeypatch, check_id, module, attr,
                                     mutant):
    assert verify.run_check(check_id, 3).status == "pass"
    monkeypatch.setattr(module, attr, mutant)
    assert verify.run_check(check_id, 3).status == "fail"


_POLY_DOT = series.poly_dot
_SERIES_MUL = series.TruncatedSeries.__mul__


def _mutant_binomial_step(a, b, m, start=0):
    """The plain Cauchy step: the binomial weights of the EGF entries
    dropped."""
    return _POLY_DOT([(1, a[k], b[m - k]) for k in range(start, m + 1)])


def _mutant_poly_dot(terms):
    """Every weight read as 1."""
    return _POLY_DOT([(1, p, r) for _, p, r in terms])


def _mutant_series_mul(self, other):
    """Doubles every product."""
    return _SERIES_MUL(_SERIES_MUL(self, other), 2)


@pytest.mark.parametrize("module, attr, mutant", [
    (series, "_binomial_step", _mutant_binomial_step),
    (series, "poly_dot", _mutant_poly_dot),
    (series.TruncatedSeries, "__mul__", _mutant_series_mul),
], ids=["_binomial_step", "poly_dot", "__mul__"])
def test_series_kernel_mutant_after_warm_up_caught(monkeypatch, module, attr,
                                                   mutant):
    # the public series functions call the kernel by name
    families.series_family("qn", 12)
    assert verify.run_check("qn-egf", 4).status == "pass"
    monkeypatch.setattr(module, attr, mutant)
    assert verify.run_check("qn-egf", 4).status == "fail"


# ---------------------------------------------------------------------------
# run_all on one process or two: a forked child runs the table checks while
# this process runs the bijection certificates; each path is forced through
# the CPU count
# ---------------------------------------------------------------------------

def _strip(reports):
    return [(r.id, r.n, r.status, r.lhs, r.rhs) for r in reports]


def _no_route_raised(stripped):
    """A mutant must fail a check by what it computes: a route that raised
    (a stale signature's TypeError, say) fails it for the wrong reason."""
    assert not [r for r in stripped if ": raised " in f"{r[3]} {r[4]}"]


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


def test_empty_plan_runs_nothing(monkeypatch, forks):
    _cpus(monkeypatch, 2)
    assert verify.run_all(-1) == []
    assert not forks


def test_parallel_and_serial_agree(monkeypatch, forks):
    _cpus(monkeypatch, 1)
    serial = verify.run_all(4)
    assert not forks
    _cpus(monkeypatch, 2)
    parallel = verify.run_all(4)
    assert len(forks) == 1
    assert _strip(parallel) == _strip(serial)
    assert [(r.id, r.n) for r in parallel] == [
        (cid, n) for cid, ns in verify.plan(4) for n in ns]
    assert all(r.status == "pass" for r in parallel)
    _no_children_left()


def test_other_thread_keeps_run_all_serial(monkeypatch, forks):
    _cpus(monkeypatch, 2)
    release = threading.Event()
    thread = threading.Thread(target=release.wait, args=(60,))
    thread.start()
    try:
        reports = verify.run_all(2)
    finally:
        release.set()
        thread.join(60)
    assert not thread.is_alive()
    assert not forks
    assert all(r.status == "pass" for r in reports)


def test_mutant_planted_in_parent_fails_in_child(monkeypatch, forks):
    _cpus(monkeypatch, 2)
    monkeypatch.setattr(families, "n_row", _mutant_n_row)
    reports = verify.run_all(4)
    assert len(forks) == 1
    failed = {r.id for r in reports if r.status == "fail"}
    assert {"eq-1-3", "N-el-enum", "M-via-invseq"} <= failed
    assert not failed & {"phi-bijection", "psi-bijection"}


def _raising(message, error=ValueError):
    def fn(*args, **kwargs):
        raise error(message)
    return fn


def _serial_reports(max_n, ids=None):
    return _strip([verify.run_check(cid, n)
                   for cid, ns in verify.plan(max_n, ids) for n in ns])


# A-via-invseq (a_poly) comes before phi-bijection in the plan, C-descents
# (c_poly) after psi-bijection; a route that raises fails its check alone.
@pytest.mark.parametrize("table_attr", [None, "a_poly", "c_poly"],
                         ids=["certificate-only", "table-first",
                              "certificate-first"])
def test_raising_route_fails_the_same_on_both_paths(monkeypatch, table_attr):
    from combi import bijections
    monkeypatch.setattr(bijections, "verify_bijection", _raising("certificate"))
    if table_attr is not None:
        monkeypatch.setattr(families, table_attr, _raising("table"))
    paths = []
    for cpus in (1, 2):
        _cpus(monkeypatch, cpus)
        paths.append(_strip(verify.run_all(3)))
        _no_children_left()
    assert paths[0] == paths[1] == _serial_reports(3)
    raised = "certificate: raised ValueError: certificate"
    assert [r for r in paths[0] if r[0] == "phi-bijection"] == [
        ("phi-bijection", n, "fail", raised, raised) for n in (1, 2, 3)]
    got = {r[:3]: r[3:] for r in paths[0]}
    raised = "recurrence: raised ValueError: table"
    if table_attr == "a_poly":
        assert got["A-via-invseq", 2, "fail"] == (raised, raised)
    if table_attr == "c_poly":
        assert got["cplat-casc-C", 2, "fail"] == ("cycle plateaus: x + 2*x^2",
                                                  raised)


def test_raising_subtree_fails_its_certificate_as_run_check_does(monkeypatch):
    # one subtree of phi at n = 5 raises in whichever process tallies it;
    # the certificate is redone whole, and raises there as in run_check
    from combi import bijections
    tally = bijections.subtree_tally
    bad_root = bijections.certificate_roots("phi", 5)[7]

    def raising(map_id, n, root):
        if (map_id, n, root) == ("phi", 5, bad_root):
            raise ValueError("subtree")
        return tally(map_id, n, root)

    monkeypatch.setattr(bijections, "subtree_tally", raising)
    paths = []
    for cpus in (1, 2):
        _cpus(monkeypatch, cpus)
        paths.append(_strip(verify.run_all(5, ("phi-bijection",))))
        _no_children_left()
    raised = "certificate: raised ValueError: subtree"
    assert paths[0] == paths[1] == _serial_reports(5, ("phi-bijection",)) == [
        *(("phi-bijection", n, "pass", None, None) for n in range(1, 5)),
        ("phi-bijection", 5, "fail", raised, raised)]


def _verify_all_cli(monkeypatch, capsys, cpus):
    from combi.cli import main
    _cpus(monkeypatch, cpus)
    code = main(["verify", "--all", "--max-n", "4"])
    out, err = capsys.readouterr()
    _no_children_left()
    return code, re.sub(r"\(\d+ ms\)", "", out), err


def test_cli_route_raising_value_error_is_a_fail(monkeypatch, capsys):
    # x^3 in N_0 puts an exponent out of range for poly_reverse
    n_poly = families.n_poly
    monkeypatch.setattr(families, "n_poly", lambda n: n_poly(n) + X ** 3)
    runs = [_verify_all_cli(monkeypatch, capsys, cpus) for cpus in (1, 2)]
    assert runs[0] == runs[1]
    code, out, err = runs[0]
    assert (code, err) == (1, "")
    assert "FAIL M-reverse-N n=0 \n" in out
    assert ("  rhs: reversal of recurrence: raised ValueError: exponent 3 "
            "outside [0, 0]\n") in out


def test_cli_route_raising_index_error_is_a_fail(monkeypatch, capsys):
    monkeypatch.setattr(verify, "egf_coefficient",
                        _raising("no such entry", IndexError))
    runs = [_verify_all_cli(monkeypatch, capsys, cpus) for cpus in (1, 2)]
    assert runs[0] == runs[1]
    code, out, err = runs[0]
    assert (code, err) == (1, "")
    assert "FAIL M-reverse-N n=0 \n" in out
    assert "  lhs: egf: raised IndexError: no such entry\n" in out


def test_interrupt_stops_the_child(monkeypatch, forks):
    # this process is interrupted at its first subtree; the child, which
    # would tally subtrees and run the table checks, must be killed
    from combi import bijections

    parent = os.getpid()
    tally = bijections.subtree_tally

    def interrupt(map_id, n, root):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        return tally(map_id, n, root)

    _cpus(monkeypatch, 2)
    monkeypatch.setattr(bijections, "subtree_tally", interrupt)
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

    # at max_n 4 each map has a walk, so run_all forks; the child dies at
    # its first table check
    _cpus(monkeypatch, 2)
    monkeypatch.setattr(families, "a_poly", die)
    with pytest.raises(RuntimeError, match="exited with status 3"):
        verify.run_all(4)
    assert len(forks) == 1
    _no_children_left()


def test_cli_reports_lost_child(monkeypatch, capsys, forks):
    from combi.cli import main

    def die(n):
        os._exit(3)

    _cpus(monkeypatch, 2)
    monkeypatch.setattr(families, "a_poly", die)
    code = main(["verify", "--all", "--max-n", "4"])
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


def test_rebound_verify_bijection_combines_the_shared_tallies(monkeypatch,
                                                            forks):
    # the certificate is still shared above the cut, and its tallies reach
    # the rebound function in this process; each n at or below the cut is
    # certified whole by run_check, in the child
    from combi import bijections
    parent = os.getpid()
    read, write = os.pipe()
    calls = []

    def wrong(map_id, n, tallies=None):
        if os.getpid() == parent:
            calls.append((map_id, n, len(tallies)))
        else:
            os.write(write, f"{n} {tallies}\n".encode())
        return bijections.BijectionReport(n, True, False, True, ("w", "t"))

    _cpus(monkeypatch, 2)
    monkeypatch.setattr(bijections, "verify_bijection", wrong)
    try:
        reports = verify.run_all(5, ("phi-bijection", "M-ol-enum"))
    finally:
        os.close(write)
        with os.fdopen(read) as fh:
            in_child = fh.read().split("\n")[:-1]
    assert len(forks) == 1
    assert [(r.id, r.n, r.status) for r in reports] == [
        *(("phi-bijection", n, "fail") for n in range(1, 6)),
        *(("M-ol-enum", n, "pass") for n in range(1, 6))]
    level = bijections.SPLIT_LEVEL
    assert calls == [("phi", n, 48) for n in range(level + 1, 6)]
    assert in_child == [f"{n} None" for n in range(1, level + 1)]
    _no_children_left()


# ---------------------------------------------------------------------------
# certificate subtrees shared between the two processes: one token per
# subtree, drained by this process at once and by the child after its table
# checks; the reports must be those of a serial run
# ---------------------------------------------------------------------------

_SHARED_IDS = ("phi-bijection", "psi-bijection", "M-ol-enum")


def _counted_run_all():
    """run_all(), the (map, n) of each subtree_tally call in whichever
    process made it, and the walk of each certificate report made here."""
    from combi import bijections
    tally, certify = bijections.subtree_tally, bijections.verify_bijection
    read, write = os.pipe()
    walks = []

    def counting(map_id, n, root):
        os.write(write, f"{map_id} {n}\n".encode())  # one atomic write
        return tally(map_id, n, root)

    def recording(*args):
        rep = certify(*args)
        walks.append(rep.walk)
        return rep

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bijections, "subtree_tally", counting)
        mp.setattr(bijections, "verify_bijection", recording)
        try:
            reports = verify.run_all()
        finally:
            os.close(write)
            with os.fdopen(read) as fh:
                calls = Counter(tuple(line.split()) for line in fh)
    return reports, calls, walks


def test_full_plan_same_on_one_and_two_cpus(monkeypatch, forks):
    # each map is walked once above the cut, to its deepest n, in 48
    # subtrees; each n at or below the cut runs whole in run_check, which
    # walks from the root alone, in the child when there is one
    from combi import bijections
    level = bijections.SPLIT_LEVEL
    subtrees = Counter({("phi", "7"): 48, ("psi", "6"): 48})
    subtrees.update((map_id, str(n)) for map_id in ("phi", "psi")
                    for n in range(1, level + 1))
    _cpus(monkeypatch, 1)
    serial, calls, walks = _counted_run_all()
    assert not forks
    assert calls == subtrees
    assert walks == ["edges"] * 13
    _cpus(monkeypatch, 2)
    shared, calls, walks = _counted_run_all()
    assert len(forks) == 1
    assert calls == subtrees
    # this process certifies only the n above the cut: phi 4..7, psi 4..6
    assert walks == ["edges"] * (13 - 2 * level)
    assert _strip(shared) == _strip(serial)
    assert all(r.status == "pass" for r in shared)
    _no_children_left()


def test_certificate_alone_uses_both_cpus(monkeypatch, forks):
    # a plan of one certificate still forks: the child only drains the pipe
    _cpus(monkeypatch, 1)
    serial = verify.run_all(5, ("phi-bijection",))
    assert not forks
    _cpus(monkeypatch, 2)
    shared = verify.run_all(5, ("phi-bijection",))
    assert len(forks) == 1
    assert _strip(shared) == _strip(serial) == _strip(
        [verify.run_check("phi-bijection", n) for n in range(1, 6)])
    assert all(r.status == "pass" for r in shared)
    _no_children_left()


def _moved_index(insert):
    def moved(state, m, *rest):
        s1, s2, iset = insert(state, m, *rest)
        if m == 3 and iset >> 3 & 1:
            iset ^= 1 << 3 | 1
        return s1, s2, iset
    return moved


def _always_straight(insert):
    def always_straight(state, m, slot, first, straight):
        return insert(state, m, slot, first, True)
    return always_straight


def _one_link(insert):
    # an appended block whose upper point keeps a link to itself
    def one_link(state, m, *rest):
        child = list(insert(state, m, *rest))
        f = 0 if len(child[0]) > len(state[0]) else 1  # the matching that grew
        if child[f][-2] == len(child[f]) - 1:  # an appended block
            child[f] = child[f][:-1] + (len(child[f]) - 1,)
        return tuple(child)
    return one_link


def _moved_weight(insert, at=5):
    # at the edges into size `at`, a split of the block of the same p among
    # the other marking's, where there is one: the marked and unmarked
    # blocks, so the weight, move
    def moved(state, m, slot, first, straight):
        if m == at and slot is not None:
            f, a = slot
            partners = state[0] if f else state[1]
            starts = [[b for b, t in enumerate(partners)
                       if b < t and t & 1 == odd] for odd in (0, 1)]
            p = starts[partners[a] & 1].index(a)
            other = starts[not partners[a] & 1]
            if p < len(other):
                slot = f, other[p]
        return insert(state, m, slot, first, straight)
    return moved


def _dropped_bit(insert):
    # at the edges into size 5, the first matching takes m unrecorded
    def dropped(state, m, *rest):
        s1, s2, iset = insert(state, m, *rest)
        return s1, s2, iset & ~(1 << 5) if m == 5 else iset
    return dropped


# The first three fail an edge above the subtree roots, which leaves no walk
# a token to fork for; the last two fail below them.
@pytest.mark.parametrize("mutate, walked", [
    (_moved_index, False), (_always_straight, False), (_one_link, False),
    (_moved_weight, True), (_dropped_bit, True),
], ids=["moved-index", "always-straight", "one-link", "weights",
        "dropped-bit"])
def test_mutant_certificates_same_on_one_and_two_cpus(monkeypatch, forks,
                                                      mutate, walked):
    from combi import bijections
    monkeypatch.setattr(bijections, "_insert", mutate(bijections._insert))
    _cpus(monkeypatch, 1)
    serial = verify.run_all(5, _SHARED_IDS)
    _cpus(monkeypatch, 2)
    shared = verify.run_all(5, _SHARED_IDS)
    assert len(forks) == walked
    assert _strip(shared) == _strip(serial)
    _no_route_raised(_strip(shared))
    failed = {(r.id, r.n) for r in shared if r.status == "fail"}
    assert {("phi-bijection", 5), ("psi-bijection", 5)} <= failed
    _no_children_left()


def test_rule_mutant_reaches_the_subtrees_the_child_drains(monkeypatch, forks):
    # This process holds its first subtree below the split until the child
    # has run the mutant inside a subtree, so the child must take one.
    from combi import bijections
    import select

    parent = os.getpid()
    read, write = os.pipe()
    insert = bijections._insert
    tally = bijections.subtree_tally
    signalled, waited = [], []

    def moved(state, m, *rest):
        s1, s2, iset = insert(state, m, *rest)
        if m > bijections.SPLIT_LEVEL and os.getpid() != parent and not signalled:
            signalled.append(os.write(write, b"x"))
        if m == 4 and iset >> 4 & 1:
            iset ^= 1 << 4 | 1
        return s1, s2, iset

    def holding(map_id, n, root):
        if os.getpid() == parent and n > bijections.SPLIT_LEVEL and not waited:
            waited.append(select.select([read], [], [], 60)[0])
        return tally(map_id, n, root)

    monkeypatch.setattr(bijections, "_insert", moved)
    _cpus(monkeypatch, 1)
    serial = verify.run_all(5, _SHARED_IDS)
    monkeypatch.setattr(bijections, "subtree_tally", holding)
    _cpus(monkeypatch, 2)
    try:
        shared = verify.run_all(5, _SHARED_IDS)
    finally:
        os.close(write)
    try:
        assert waited == [[read]] and os.read(read, 2) == b"x"
    finally:
        os.close(read)
    assert len(forks) == 1
    assert _strip(shared) == _strip(serial)
    failed = {(r.id, r.n) for r in shared if r.status == "fail"}
    assert failed == {("phi-bijection", 4), ("phi-bijection", 5),
                      ("psi-bijection", 4), ("psi-bijection", 5)}
    _no_children_left()


def test_failed_walk_redoes_each_of_its_n_whole(monkeypatch, forks):
    # the edges into size 6 fail below the cut, in one walk per map to its
    # deepest n: every n of the walk is redone whole, as run_check does it,
    # so n <= 5 still passes
    from combi import bijections
    monkeypatch.setattr(bijections, "_insert",
                        _moved_weight(bijections._insert, 6))
    ids = ("phi-bijection", "psi-bijection")
    paths = []
    for cpus in (1, 2):
        _cpus(monkeypatch, cpus)
        paths.append(_strip(verify.run_all(None, ids)))
        _no_children_left()
    assert len(forks) == 1
    assert paths[0] == paths[1] == _serial_reports(None, ids)
    _no_route_raised(paths[0])
    assert {r[:2] for r in paths[0] if r[2] == "fail"} == {
        ("phi-bijection", 6), ("phi-bijection", 7), ("psi-bijection", 6)}
    assert len(paths[0]) == 13


@pytest.mark.parametrize("map_id", ["phi", "psi"])
def test_image_walk_names_a_node_the_rule_cannot_grow(monkeypatch, map_id):
    # the edges into size 3 split the wrong block, and one node of size 3
    # is left without a 2nd unmarked block for its children to split:
    # verify_bijection raised the rule's ValueError instead of reporting
    from combi import bijections
    monkeypatch.setattr(bijections, "_insert",
                        _moved_weight(bijections._insert, 3))
    rep = bijections.verify_bijection(map_id, 4)
    assert not rep.all_ok and rep.walk == "images"
    assert rep.counterexample == ("3 2 1", "no 2-th unmarked block")


def test_raising_roots_redo_each_n_of_the_walk_whole(monkeypatch, forks):
    # the always-straight split where 2 is inserted: two siblings above the
    # subtree roots share a state, so certificate_roots raises and no walk
    # has a token.  Every n is certified whole, as run_check does it (the
    # image walk finds the collision), and nothing is left to fork for.
    from combi import bijections
    insert = bijections._insert

    def straight_at_2(state, m, slot, first, straight):
        return insert(state, m, slot, first, straight or m == 2)

    monkeypatch.setattr(bijections, "_insert", straight_at_2)
    paths = []
    for cpus in (1, 2):
        _cpus(monkeypatch, cpus)
        paths.append(_strip(verify.run_all(5, _SHARED_IDS)))
        _no_children_left()
    assert not forks
    assert paths[0] == paths[1] == _serial_reports(5, _SHARED_IDS)
    _no_route_raised(paths[0])
    failed = {r[:2] for r in paths[0] if r[2] == "fail"}
    assert {(cid, n) for cid in _SHARED_IDS[:2] for n in (4, 5)} <= failed


@pytest.mark.parametrize("weighs_wrong", [False, True])
def test_shared_certificate_sums_its_subtrees_in_walk_order(monkeypatch,
                                                            weighs_wrong):
    # the tallies arrive in any order, with no subtree index; the report is
    # the serial one, and takes the time of every subtree.  A subtree whose
    # edge fails raises, and comes as None, as _run_units tallies it.
    from combi import bijections
    if weighs_wrong:  # below the subtree roots
        monkeypatch.setattr(bijections, "_insert",
                            _moved_weight(bijections._insert, 4))
    roots = bijections.certificate_roots("psi", 4)
    assert len(roots) == 48

    def tally(root):
        try:
            return bijections.subtree_tally("psi", 4, root)
        except bijections._Unpeeled:
            return None

    tallies = [(tally(root), 1000.0) for root in reversed(roots)]
    assert any(t is None for t, _ in tallies) == weighs_wrong
    [(pos, rep)] = verify._walk_reports("psi-bijection", 4, [(9, 4)], tallies)
    assert pos == 9
    assert rep.status == ("fail" if weighs_wrong else "pass")
    assert 48_000.0 <= rep.runtime_ms < 48_100.0
    assert _strip([rep]) == _strip([verify.run_check("psi-bijection", 4)])


def test_capacity_skip_carries_its_reason(monkeypatch, capsys):
    from combi.cli import main
    from combi.poly import CapacityError

    def capped(n):
        raise CapacityError(f"a_poly capped below n={n}")

    monkeypatch.setattr(families, "a_poly", capped)
    rep = verify.run_check("A-via-invseq", 2)
    assert rep.status == "skipped-capacity"
    assert rep.detail == "a_poly capped below n=2"
    assert verify.run_check("A-via-invseq", 99).detail == (
        "n=99 is outside A-via-invseq's n values 0..6")
    assert verify.run_check("ap-equals-el", 2).detail is None
    assert main(["verify", "--id", "A-via-invseq", "--max-n", "1",
                 "--format", "json"]) == 0
    import json
    assert [r["detail"] for r in json.loads(capsys.readouterr().out)] == [
        "a_poly capped below n=0", "a_poly capped below n=1"]
