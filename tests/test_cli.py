import contextlib
import io
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from combi import objects, verify
from combi.cli import FAMILIES, emit_jsonl, main

SERIES_IDS = ("A", "M", "N", "P", "Q", "S", "d", "pm", "qn", "sqrtsec")


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


@pytest.mark.parametrize("family", ["N", "C"])
def test_poly_csv_n0(capsys, family):
    code, out, _ = run(capsys, "poly", "--family", family, "--n", "0",
                       "--format", "csv")
    assert code == 0
    assert out == "1\n"


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


@pytest.mark.parametrize("map_id", ["phi", "psi"])
def test_bijection_empty_input(capsys, map_id):
    code, out, err = run(capsys, "bijection", "--map", map_id, "--input", "")
    assert code == 0
    assert out == "[] [] {}\n"
    assert "Traceback" not in err


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


@pytest.mark.parametrize("argv, smallest", [
    (("--id", "eq-1-3", "--max-n", "-1"), 0),
    (("--id", "phi-bijection", "--max-n", "0"), 1),
    (("--id", "N2-equals-A2z", "--max-n", "7"), 8),
    (("--all", "--max-n", "-1"), 0),
])
def test_verify_empty_plan_is_usage_error(capsys, argv, smallest):
    code, out, err = run(capsys, "verify", *argv)
    assert code == 2
    assert out == ""
    assert f"smallest n is {smallest}" in err


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


@pytest.mark.parametrize("series_id", SERIES_IDS)
def test_series_order_zero(capsys, series_id):
    code, out, _ = run(capsys, "series", "--id", series_id, "--order", "0")
    assert code == 0
    assert out == "0: 1\n"


def test_series_negative_order(capsys):
    code, _, err = run(capsys, "series", "--id", "N", "--order", "-1")
    assert code == 2
    assert "order must be >= 0" in err


@pytest.mark.parametrize("value", ["abc", "-3", "1.5", ""])
def test_bad_max_order_is_usage_error(capsys, monkeypatch, value):
    monkeypatch.setenv("COMBI_MAX_ORDER", value)
    code, out, err = run(capsys, "series", "--id", "qn", "--order", "3")
    assert code == 2
    assert out == ""
    assert err == ("error: COMBI_MAX_ORDER must be a nonnegative integer, "
                   f"got {value!r}\n")


def test_max_order_raises_cap(capsys, monkeypatch):
    monkeypatch.setenv("COMBI_MAX_ORDER", "18")
    code, out, _ = run(capsys, "series", "--id", "qn", "--order", "18")
    assert code == 0
    assert out.splitlines()[-1].startswith("18: ")


def test_usage_errors(capsys):
    assert run(capsys, "poly", "--family", "N")[0] == 2  # missing --n
    assert run(capsys)[0] == 2  # missing subcommand


def test_emit_jsonl_empty():
    assert list(emit_jsonl(iter([]))) == []


def test_emit_jsonl_matching():
    m = objects.parse("matching", "(1,3)(2,4)")
    line, = emit_jsonl([(m, objects.stats(m))])
    assert line == '{"object":"(1,3)(2,4)","stats":{"el":1,"ol":1}}'


# ---------------------------------------------------------------------------
# argv fuzzing: every command line ends in exit 0, 1 or 2, never a traceback
# ---------------------------------------------------------------------------

def _opt(flag, values):
    return values.map(lambda v: [flag, str(v)])


_N = st.integers(-2, 4)
_INPUT = st.text(alphabet="0123456789hc-(), ", max_size=12)
_S_LIST = st.lists(st.integers(-1, 4), max_size=4).map(
    lambda vs: ",".join(map(str, vs)))

_ARGV = st.one_of(
    st.tuples(st.just(["verify"]), _opt("--id", st.sampled_from(
        [c.id for c in verify.CHECKS])), _opt("--max-n", st.integers(-2, 3))),
    st.tuples(st.just(["poly"]), _opt("--family", st.sampled_from(FAMILIES)),
              _opt("--n", _N),
              _opt("--format", st.sampled_from(["text", "csv", "json"]))),
    st.tuples(st.just(["enumerate"]),
              _opt("--class", st.sampled_from(objects.CLASS_NAMES)),
              _opt("--n", _N), st.just([]) | _opt("--s", _S_LIST),
              st.sampled_from([[], ["--stats"]])),
    st.tuples(st.just(["bijection"]),
              _opt("--map", st.sampled_from(["phi", "psi"])),
              _opt("--input", _INPUT) | st.just(["--check"])
              | _opt("--n", _N).map(lambda a: ["--check"] + a)),
    st.tuples(st.just(["series"]), _opt("--id", st.sampled_from(SERIES_IDS)),
              _opt("--order", st.integers(-1, 6))),
    st.tuples(st.just(["grammar"]), _opt("--lemma", st.sampled_from([1, 2])),
              _opt("--n", _N)),
).map(lambda parts: [arg for part in parts for arg in part])


@settings(deadline=None, max_examples=150)
@given(_ARGV)
@example(["bijection", "--map", "phi", "--input", ""])
@example(["series", "--id", "qn", "--order", "0"])
def test_cli_argv_fuzz(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue(), argv
