"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL
line with its runtime.  All polynomial comparisons are exact."""

import time

from combi import families, verify
from combi.bijections import encode_triple, phi_map, psi_map, verify_bijection
from combi.objects import double_factorial, encode, generate, parse
from combi.poly import Q, Y


def _report(num, ok, t0, detail=""):
    elapsed = time.perf_counter() - t0
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} ({elapsed:.1f}s)"
    if detail:
        line += f" [{detail}]"
    print(line)
    assert ok, line


def _all_pass(check_id, ns):
    bad = []
    for n in ns:
        rep = verify.run_check(check_id, n)
        if rep.status != "pass":
            bad.append((n, rep.status, rep.lhs, rep.rhs))
    return bad


def test_criterion_01_n_table():
    t0 = time.perf_counter()
    renders = [families.n_poly(n).render() for n in range(4)]
    ok = renders == ["1", "x", "2*x + x^2", "4*x + 10*x^2 + x^3"]
    sums = [sum(families.n_row(n)) for n in range(1, 11)]
    ok = ok and sums == [double_factorial(n) for n in range(1, 11)]
    ok = ok and (time.perf_counter() - t0) < 1.0
    _report(1, ok, t0)


def test_criterion_02_type_a_expansion():
    t0 = time.perf_counter()
    bad = _all_pass("eq-1-3", range(0, 9))
    ok = not bad and (time.perf_counter() - t0) < 60
    _report(2, ok, t0, str(bad[:1]))


def test_criterion_03_type_b_expansion():
    t0 = time.perf_counter()
    bad = _all_pass("eq-1-4", range(1, 7))
    ok = not bad and (time.perf_counter() - t0) < 60
    _report(3, ok, t0, str(bad[:1]))


def test_criterion_04_phi_bijection():
    t0 = time.perf_counter()
    flags = [verify_bijection("phi", n).all_ok for n in range(1, 8)]
    base = {
        "1": "[] [(1,2)] {}",
        "1h": "[(1,2)] [] {1}",
        "1 2": "[] [(1,2)(3,4)] {}",
        "2 1": "[] [(1,3)(2,4)] {}",
        "2c 1": "[] [(1,4)(2,3)] {}",
        "1h 2": "[(1,2)] [(1,2)] {1}",
        "1 2h": "[(1,2)] [(1,2)] {2}",
        "1h 2h": "[(1,2)(3,4)] [] {1,2}",
        "2h 1h": "[(1,3)(2,4)] [] {1,2}",
        "2hc 1h": "[(1,4)(2,3)] [] {1,2}",
    }
    base_ok = all(encode_triple(phi_map(parse("decorated", enc))) == want
                  for enc, want in base.items())
    worked = encode_triple(phi_map(parse("decorated", "3h 1h 4 2 6hc 5h")))
    worked_ok = worked == "[(1,3)(2,4)(5,8)(6,7)] [(1,3)(2,4)] {1,3,5,6}"
    ok = all(flags) and base_ok and worked_ok
    ok = ok and (time.perf_counter() - t0) < 120
    _report(4, ok, t0, f"exhaustive={all(flags)} base={base_ok} worked={worked}")


def test_criterion_05_psi_bijection_properties():
    t0 = time.perf_counter()
    flags = [verify_bijection("psi", n).all_ok for n in range(1, 7)]
    ok = all(flags) and (time.perf_counter() - t0) < 60
    _report("5 (exhaustive)", ok, t0)


def test_criterion_05_psi_worked_example():
    # The worked example, derived by hand from the base-case images in
    # test_bijections.py.  Inserting -3 into "-1 2" sees the same state as
    # inserting -2 into "-1": predecessor 0, bar successor -1, a descent,
    # p = 1, a negative entry and t1 = (1,2).  So the base case "-2 -1" ->
    # [(1,4)(2,3)] fixes the first two blocks, and no later insertion of
    # this example touches points 1..4.  The later insertions act only on t2
    # and on points 5..10 of t1, as PSI_CHAIN lists step by step.
    #
    # The triple once recorded here, with (1,3)(2,4) in front, is not the
    # image of the worked example: a search of all 645,120 signed
    # permutations of [7] finds exactly one preimage, "3 -1 4 2 -6 7 -5"
    # (the sign of 3 flipped, des_B = 4 as well).  It is kept as the image
    # of that word.
    t0 = time.perf_counter()
    cases = {
        "-3 -1 4 2 -6 7 -5":
            "[(1,4)(2,3)(5,8)(6,9)(7,10)] [(1,3)(2,4)] {1,3,5,6,7}",
        "3 -1 4 2 -6 7 -5":
            "[(1,3)(2,4)(5,8)(6,9)(7,10)] [(1,3)(2,4)] {1,3,5,6,7}",
    }
    got = {enc: encode_triple(psi_map(parse("signed", enc))) for enc in cases}
    _report("5 (worked example)", got == cases, t0, f"got {got}")


def test_criterion_06_ascent_plateau_identity():
    t0 = time.perf_counter()
    bad = _all_pass("ap-equals-el", range(1, 8))
    ok = not bad and (time.perf_counter() - t0) < 60
    _report(6, ok, t0, str(bad[:1]))


def test_criterion_07_cycle_stirling_validity():
    t0 = time.perf_counter()
    got2 = {encode(o) for o in generate("stirling2", 2)}
    got3 = {encode(o) for o in generate("stirling2", 3)}
    ok = got2 == {"(1 1)(2 2)", "(1 1 2 2)", "(1 2 2 1)"}
    ok = ok and got3 == {
        "(1 1)(2 2)(3 3)", "(1 1)(2 2 3 3)", "(1 1)(2 3 3 2)",
        "(1 1 3 3)(2 2)", "(1 3 3 1)(2 2)", "(1 1 2 2)(3 3)",
        "(1 1 2 2 3 3)", "(1 1 2 3 3 2)", "(1 1 3 3 2 2)",
        "(1 3 3 1 2 2)", "(1 2 2 1)(3 3)", "(1 2 2 1 3 3)",
        "(1 2 2 3 3 1)", "(1 2 3 3 2 1)", "(1 3 3 2 2 1)",
    }
    for n in range(1, 9):
        count = sum(1 for _ in generate("stirling2", n))
        ok = ok and count == double_factorial(n)
    _report(7, ok, t0)


def test_criterion_08_q_polynomial_routes():
    t0 = time.perf_counter()
    bad = _all_pass("Q-recurrence-enum", range(1, 8))
    bad += _all_pass("Q-gf", range(0, 9))
    for n in range(9):
        if families.q_poly(n).subs_num("q", 1) != families.m_poly(n):
            bad.append(("Q(x,1)", n))
        if families.q_poly(n).subs_num("x", 1) != families.l_closed(n):
            bad.append(("Q(1,q)", n))
    _report(8, not bad, t0, str(bad[:1]))


def test_criterion_09_p_polynomial_routes():
    t0 = time.perf_counter()
    bad = _all_pass("P-three-routes", range(0, 8))
    bad += _all_pass("P-gf", range(0, 9))
    initials_ok = families.p_poly(0) == 1 and families.p_poly(1) == Q * Y
    _report(9, not bad and initials_ok, t0, str(bad[:1]))


def test_criterion_10_grammar_lemmas():
    t0 = time.perf_counter()
    bad = _all_pass("grammar-lemma1", range(1, 7))
    bad += _all_pass("grammar-lemma2", range(1, 11))
    _report(10, not bad, t0, str(bad[:1]))


def test_criterion_11_derangement_suite():
    t0 = time.perf_counter()
    bad = _all_pass("R-recurrence-enum", range(1, 8))
    bad += _all_pass("R-binomial-shift", range(0, 9))
    bad += _all_pass("qn-egf", range(0, 13))
    bad += _all_pass("S2-equals-d2z", range(0, 9))
    _report(11, not bad, t0, str(bad[:1]))


def test_criterion_12_real_rootedness():
    t0 = time.perf_counter()
    bad = _all_pass("R-palindromic", range(2, 11))
    bad += _all_pass("R-real-rooted", range(2, 11))
    ok = not bad and (time.perf_counter() - t0) < 30
    _report(12, ok, t0, str(bad[:1]))


def test_criterion_13_h_sequence():
    t0 = time.perf_counter()
    ok = families.h_values(4) == [1, 2, 28, 1112, 87568]
    bad = _all_pass("h-series-vs-enum", range(1, 8))
    bad += _all_pass("h-involutions", range(0, 3))
    ok = ok and not bad and (time.perf_counter() - t0) < 120
    _report(13, ok, t0, str(bad[:1]))


def test_criterion_14_full_suite_and_mutation(monkeypatch):
    t0 = time.perf_counter()
    reports = verify.run_all()
    failures = [r for r in reports if r.status == "fail"]
    ok = not failures and len(reports) >= 22
    ok = ok and (time.perf_counter() - t0) < 600

    # a single-coefficient mutation must be caught with witness polynomials
    def mutant_n_row(n):
        row = [0, 1]
        for m in range(1, n):
            new = [0] * (m + 2)
            for k in range(1, m + 2):
                old_k = row[k] if k <= m else 0
                new[k] = k * old_k + (2 * m - 2 * k + 3) * row[k - 1]
            row = new
        return tuple(row)

    with monkeypatch.context() as mp:
        mp.setattr(families, "n_row", mutant_n_row)
        mutated = verify.run_check("eq-1-3", 3)
    ok = ok and mutated.status == "fail" and mutated.lhs and mutated.rhs
    _report(14, ok, t0,
            f"reports={len(reports)} failures={len(failures)} "
            f"mutant={mutated.status}")
