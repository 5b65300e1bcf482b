import json

import pytest

from combi import objects
from combi.cli import FAMILIES, emit_jsonl, main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_poly_text(capsys):
    code, out, _ = run(capsys, "poly", "--family", "N", "--n", "3",
                       "--format", "text")
    assert code == 0
    assert out.strip() == "4*x + 10*x^2 + x^3"


def test_poly_csv_triangle(capsys):
    code, out, _ = run(capsys, "poly", "--family", "N", "--n", "3",
                       "--format", "csv")
    assert code == 0
    assert out.splitlines() == ["0,1", "0,2,1", "0,4,10,1"]


def test_poly_json(capsys):
    code, out, _ = run(capsys, "poly", "--family", "Q", "--n", "2",
                       "--format", "json")
    assert code == 0
    assert json.loads(out) == {"family": "Q", "n": 2, "text": "q^2 + 2*x*q"}
    code, out, _ = run(capsys, "poly", "--family", "h", "--n", "2",
                       "--format", "json")
    assert json.loads(out) == {"family": "h", "n": 2, "value": 28}


def test_poly_csv_multivariate_rejected(capsys):
    code, _, err = run(capsys, "poly", "--family", "P", "--n", "3",
                       "--format", "csv")
    assert code == 2
    assert "univariate" in err


def test_poly_bad_family(capsys):
    code, _, _ = run(capsys, "poly", "--family", "Z", "--n", "1")
    assert code == 2


@pytest.mark.parametrize("family", FAMILIES)
def test_poly_negative_n(capsys, family):
    code, out, err = run(capsys, "poly", "--family", family, "--n", "-2")
    assert code == 2
    assert out == ""
    assert "Traceback" not in err


def test_enumerate_stirling2_stats(capsys):
    code, out, _ = run(capsys, "enumerate", "--class", "stirling2", "--n", "2",
                       "--stats", "--format", "jsonl")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 3
    expected = ('{"object":"(1 2 2 1)","stats":'
                '{"cplat":1,"casc":1,"cap":1,"cyc":1,"fix":0}}')
    assert expected in lines
    objs = {json.loads(line)["object"] for line in lines}
    assert objs == {"(1 1)(2 2)", "(1 1 2 2)", "(1 2 2 1)"}


def test_enumerate_worked_stats_line(capsys):
    code, out, _ = run(capsys, "enumerate", "--class", "stirling2", "--n", "3",
                       "--stats")
    want = ('{"object":"(1 2 2 1)(3 3)","stats":'
            '{"cplat":2,"casc":1,"cap":1,"cyc":2,"fix":1}}')
    assert want in out.splitlines()


def test_enumerate_roundtrip(capsys):
    for cls, n, s in (("permutation", 3, None), ("signed", 2, None),
                      ("matching", 3, None), ("stirling", 3, None),
                      ("stirling2", 3, None), ("decorated", 3, None)):
        code, out, _ = run(capsys, "enumerate", "--class", cls, "--n", str(n))
        assert code == 0
        for line in out.strip().splitlines():
            enc = json.loads(line)["object"]
            assert objects.encode(objects.parse(cls, enc)) == enc


def test_enumerate_invseq(capsys):
    code, out, _ = run(capsys, "enumerate", "--class", "invseq", "--n", "3",
                       "--s", "1,3,5", "--stats")
    assert code == 0
    assert len(out.strip().splitlines()) == 15
    code, _, err = run(capsys, "enumerate", "--class", "invseq", "--n", "3")
    assert code == 2
    assert "--s" in err


def test_bijection_input(capsys):
    code, out, _ = run(capsys, "bijection", "--map", "phi", "--input",
                       "3h 1h 4 2 6hc 5h")
    assert code == 0
    assert out.strip() == "[(1,3)(2,4)(5,8)(6,7)] [(1,3)(2,4)] {1,3,5,6}"
    code, out, _ = run(capsys, "bijection", "--map", "psi", "--input", "2 -1")
    assert out.strip() == "[(1,3)(2,4)] [] {1,2}"


def test_bijection_check(capsys):
    code, out, _ = run(capsys, "bijection", "--map", "psi", "--check",
                       "--n", "3")
    assert code == 0
    assert "injective=True" in out
    code, _, _ = run(capsys, "bijection", "--map", "phi", "--check")
    assert code == 2


def test_verify_single(capsys):
    code, out, _ = run(capsys, "verify", "--id", "eq-1-3", "--max-n", "4")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 5
    assert all(line.startswith("PASS eq-1-3") for line in lines)


def test_verify_json(capsys):
    code, out, _ = run(capsys, "verify", "--id", "ap-equals-el",
                       "--max-n", "3", "--format", "json")
    assert code == 0
    reports = json.loads(out)
    assert [r["status"] for r in reports] == ["pass"] * 3


def test_verify_unknown_id(capsys):
    code, _, err = run(capsys, "verify", "--id", "nope")
    assert code == 2
    assert "unknown check id" in err


def test_verify_fail_exit_code(capsys, monkeypatch):
    from combi import families as fam

    def broken(n):
        return fam._from_coeffs([0, 1] + [0] * n)

    monkeypatch.setattr(fam, "n_poly", broken)
    code, out, _ = run(capsys, "verify", "--id", "N-el-enum", "--max-n", "3")
    assert code == 1
    assert "FAIL" in out
    assert "lhs" in out


def test_grammar_command(capsys):
    code, out, _ = run(capsys, "grammar", "--lemma", "1", "--n", "2")
    assert code == 0
    assert "PASS" in out
    code, out, _ = run(capsys, "grammar", "--lemma", "2", "--n", "4")
    assert code == 0


def test_series_command(capsys):
    code, out, _ = run(capsys, "series", "--id", "qn", "--order", "5")
    assert code == 0
    assert out.splitlines()[4] == "4: 60"
    code, _, _ = run(capsys, "series", "--id", "N", "--order", "99")
    assert code == 2


def test_series_negative_order(capsys):
    code, _, err = run(capsys, "series", "--id", "N", "--order", "-1")
    assert code == 2
    assert "order must be >= 0" in err


def test_usage_errors(capsys):
    assert run(capsys, "poly", "--family", "N")[0] == 2  # missing --n
    assert run(capsys)[0] == 2  # missing subcommand


def test_emit_jsonl_empty():
    assert list(emit_jsonl(iter([]))) == []


def test_emit_jsonl_matching():
    m = objects.parse("matching", "(1,3)(2,4)")
    line, = emit_jsonl([(m, objects.stats(m))])
    assert line == '{"object":"(1,3)(2,4)","stats":{"el":1,"ol":1}}'
