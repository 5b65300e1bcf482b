import contextlib
import hashlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from combi import objects, verify
from combi.cli import FAMILIES, emit_jsonl, main

SERIES_IDS = ("A", "M", "N", "P", "Q", "S", "d", "pm", "qn", "sqrtsec")
ROOT = Path(__file__).resolve().parent.parent


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


def test_poly_csv_takes_the_one_variable(capsys):
    # L_3 = 8q + 6q^2 + q^3 is univariate in q, not in x
    code, out, _ = run(capsys, "poly", "--family", "L", "--n", "3",
                       "--format", "csv")
    assert (code, out) == (0, "0,8,6,1\n")
    code, out, err = run(capsys, "poly", "--family", "Q", "--n", "2",
                         "--format", "csv")
    assert (code, out) == (2, "")
    assert err == "error: csv output needs a univariate family\n"


def test_poly_type_b_past_the_enumeration_cap(capsys):
    # the inversion-sequence route stops at n = 8; Brenti's recurrence does not
    code, out, _ = run(capsys, "poly", "--family", "B", "--n", "9",
                       "--format", "csv")
    assert (code, out) == (0, "1,19673,1756340,21707972,69413294,69413294,"
                              "21707972,1756340,19673,1\n")


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
    assert err.startswith("error: n must be >= ")
    if family in ("N", "M", "C"):  # --n 0 is valid for these
        assert err == "error: n must be >= 0\n"


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
    assert run(capsys, "enumerate", "--class", "invseq", "--n", "3") == (
        2, "", "error: inversion sequences need a bound sequence s\n")


@pytest.mark.parametrize("cls", ["permutation", "matching"])
def test_enumerate_s_needs_invseq(capsys, cls):
    # a bound sequence for another class is refused, not ignored
    assert run(capsys, "enumerate", "--class", cls, "--n", "2",
               "--s", "1,2") == (
        2, "", f"error: a bound sequence s applies to invseq, not {cls}\n")


@pytest.mark.parametrize("bounds", ["1,a", "1,2.5", "x", "+1,1_0", "1,\u0663",
                                    "1,-1"])
def test_enumerate_bad_bound_sequence(capsys, bounds):
    code, out, err = run(capsys, "enumerate", "--class", "invseq", "--n", "2",
                         "--s", bounds)
    assert (code, out) == (2, "")
    assert err == (f"error: bad bound sequence --s {bounds!r}: expected "
                   "positive integers\n")


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


def test_bijection_malformed_input(capsys):
    code, out, err = run(capsys, "bijection", "--map", "phi", "--input", "h")
    assert (code, out) == (2, "")
    assert err == "error: malformed decorated encoding: 'h'\n"


def test_bijection_check(capsys):
    code, out, _ = run(capsys, "bijection", "--map", "psi", "--check",
                       "--n", "3")
    assert code == 0
    assert "injective=True" in out
    code, _, _ = run(capsys, "bijection", "--map", "phi", "--check")
    assert code == 2


@pytest.mark.parametrize("argv, err", [
    (("--input", "1h", "--n", "3"), "--n applies to --check, not --input"),
    (("--check", "--n", "3", "--steps"),
     "--steps applies to --input, not --check"),
], ids=["input-n", "check-steps"])
def test_bijection_rejects_flags_its_mode_ignores(capsys, argv, err):
    assert run(capsys, "bijection", "--map", "phi", *argv) == (
        2, "", f"error: {err}\n")


@pytest.mark.parametrize("map_id", ["phi", "psi"])
def test_bijection_check_n0(capsys, map_id):
    code, out, err = run(capsys, "bijection", "--map", map_id, "--check",
                         "--n", "0")
    assert code == 0
    assert out == ("n=0 injective=True image_complete=True "
                   "weight_preserving=True\n")
    assert err == ""


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
    (("--all", "--max-n", "-1", "--format", "summary"), 0),
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


@pytest.mark.parametrize("check_id", ["psi-bijection", "eq-1-3"])
def test_verify_id_matches_all(capsys, check_id):
    def tuples(*argv):
        code, out, _ = run(capsys, "verify", *argv, "--max-n", "4",
                           "--format", "json")
        assert code == 0
        return [(r["id"], r["n"], r["status"], r["lhs"], r["rhs"])
                for r in json.loads(out)]

    single = tuples("--id", check_id)
    assert single == [t for t in tuples("--all") if t[0] == check_id]
    assert [t[1] for t in single] == [n for n in verify.REGISTRY[check_id].ns
                                      if n <= 4]


def test_verify_fail_exit_code(capsys, monkeypatch):
    from combi import families as fam

    def broken(n):
        return fam._from_coeffs([0, 1] + [0] * n)

    monkeypatch.setattr(fam, "n_poly", broken)
    code, out, _ = run(capsys, "verify", "--id", "N-el-enum", "--max-n", "3")
    assert code == 1
    assert "FAIL" in out
    assert "lhs" in out


def test_verify_summary_rows(capsys):
    code, out, err = run(capsys, "verify", "--all", "--max-n", "0",
                         "--format", "summary")
    assert (code, err) == (0, "")
    rows = out.splitlines()
    width = max(len(c.id) for c in verify.CHECKS)
    assert [row.split()[0] for row in rows[:-2]] == [c.id for c in verify.CHECKS]
    assert f"{'A-via-invseq':<{width}}  runs=1   ok" in rows
    # the cap leaves phi-bijection no n, so it did not pass: it did not run
    assert f"{'phi-bijection':<{width}}  runs=0   not run" in rows
    assert rows[-2] == ""
    assert re.fullmatch(r"11 reports, 0 failures, \d+\.\ds", rows[-1])


def test_verify_summary_fail_row(capsys, monkeypatch):
    from combi import families as fam

    row = fam.n_row
    monkeypatch.setattr(fam, "n_row", lambda n: tuple(
        c + (k == n) for k, c in enumerate(row(n))))
    code, out, _ = run(capsys, "verify", "--id", "eq-1-3", "--max-n", "3",
                       "--format", "summary")
    assert code == 1
    head, lhs, rhs, blank, total = out.splitlines()
    assert head.split() == ["eq-1-3", "runs=4", "fail"]
    assert lhs == "  n=1  lhs: 2^n x A_n by recurrence: 2*x"
    assert rhs == "  n=1  rhs: binomial convolution: 4*x"
    assert blank == ""
    assert total.startswith("4 reports, 3 failures, ")


def test_verify_summary_bad_max_order(capsys, monkeypatch):
    monkeypatch.setenv("COMBI_MAX_ORDER", "abc")
    code, out, err = run(capsys, "verify", "--all", "--max-n", "2",
                         "--format", "summary")
    assert (code, out) == (2, "")
    assert err == ("error: COMBI_MAX_ORDER must be a nonnegative integer, "
                   "got 'abc'\n")


@pytest.mark.parametrize("argv", [
    ["verify", "--all", "--max-n", "2", "--format", "summary"],
    ["bijection", "--map", "psi", "--input", "3 -1 4 2 -6 7 -5", "--steps"],
], ids=["verify_summary", "bijection_steps"])
def test_fresh_interpreter(argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "combi.cli", *argv],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("argv", [
    ["enumerate", "--class", "permutation", "--n", "7"],
    ["series", "--id", "P", "--order", "16"],
], ids=["enumerate", "series"])
def test_closed_stdout_exits_quietly(argv):
    # as `combi ... | head -1` once head has gone: the read end is closed
    # before the command writes, so every write meets a broken pipe
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run([sys.executable, "-m", "combi.cli", *argv],
                              cwd=ROOT, env=env, stdout=write,
                              stderr=subprocess.PIPE, text=True, timeout=120)
    finally:
        os.close(write)
    assert "Traceback" not in proc.stderr
    assert (proc.returncode, proc.stderr) == (1, "")


def _readme_commands():
    """The literal `combi ...` lines of the README's CLI block."""
    text = (ROOT / "README.md").read_text()
    block = text.split("## CLI", 1)[1].split("```")[1]
    return [line for line in block.splitlines()
            if line.startswith("combi ") and "[" not in line]


@pytest.mark.parametrize("line", _readme_commands())
def test_readme_example_runs(capsys, line):
    code, out, err = run(capsys, *shlex.split(line, comments=True)[1:])
    assert (code, err) == (0, "")
    assert out


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


# sha256 of the stdout of `combi series --id <id> --order 8` as the build of
# all ten families at once printed it
SERIES_STDOUT_SHA256 = {
    "A": "8ee6e5fa7233f8104301c7316c43daa112e44ecf6321a86df9f7349cbf01be20",
    "M": "c029cf311ad2afcb215b5d060e356f480e33e3d7ee6ecae1af8a00ef4850b7c4",
    "N": "c4ca5fa5eac702b03833e04947a313dc8d521b0588ea9f0010a84150fc1dead8",
    "P": "8f1c132bdc82253b4adf10fcb808c82b38de447099fcfc59759c83a97a2a184e",
    "Q": "8d0ca99bb8aee9d3c4688c7644ac13867a7edf2d95e9fe9d94f6bc2dac28577e",
    "S": "f52f0fe184bbdf4b66b5f8dd6eaf9ca2107d2415efcab2b906986fe71d484d65",
    "d": "c4b1262cc532af4f6aa9eaa2db79b4faa77cb2a513e9b9bbc40c562a35d5635a",
    "pm": "e8f81f9baf37d56c6f8cbdad240147f1fe2cbe4c3376361354f7d2c52ca66e14",
    "qn": "4ddccb43961513378d2d8bcd0aa31bb4472be863b5f04253948b24c321b7e911",
    "sqrtsec":
        "ef519e20c882aa12914ce4131969e1a8ff8601e02fd08e4efdd0d000d8816f45",
}


@pytest.mark.parametrize("series_id", SERIES_IDS)
def test_series_stdout_pinned(capsys, monkeypatch, series_id):
    monkeypatch.delenv("COMBI_MAX_ORDER", raising=False)
    code, out, err = run(capsys, "series", "--id", series_id, "--order", "8")
    assert (code, err) == (0, "")
    assert out.count("\n") == 9
    assert (hashlib.sha256(out.encode()).hexdigest()
            == SERIES_STDOUT_SHA256[series_id])


@pytest.mark.parametrize("series_id", SERIES_IDS)
def test_series_order_zero(capsys, series_id):
    code, out, _ = run(capsys, "series", "--id", series_id, "--order", "0")
    assert code == 0
    assert out == "0: 1\n"


def test_series_negative_order(capsys):
    code, _, err = run(capsys, "series", "--id", "N", "--order", "-1")
    assert code == 2
    assert "order must be >= 0" in err


# int() took the last three: '\u0663' is the Arabic-Indic digit three
@pytest.mark.parametrize("value", ["abc", "-3", "1.5", "", "1_6", "+3",
                                   "\u0663"])
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


def test_emit_jsonl_sorts_sets_and_refuses_other_values():
    m = objects.parse("matching", "(1,2)")
    line, = emit_jsonl([(m, {"s": frozenset((3, 1, 2)), "t": ((2, 1),)})])
    assert line == '{"object":"(1,2)","stats":{"s":[1,2,3],"t":[[2,1]]}}'
    with pytest.raises(TypeError, match="complex is not JSON serializable"):
        list(emit_jsonl([(m, {"z": 1j})]))


# sha256 of the `enumerate --stats` lines of each class at n = 4 (invseq
# with s = 1,2,3,4), each line ending in a newline
STREAM_DIGESTS = {
    "permutation":
        "0d02149792e877ea29af51a01a480c10183c18fcc09c121577ab7e26da6e9c9f",
    "signed":
        "2d33fce3f0f6b6d6e5c8d2f1fd7c3260d87b6605fdc094a97c8eaf98a08c11cb",
    "matching":
        "a0498ed8efb9faf3b269eec1f851435f62ac4a4ed839ce502b69e5a7baf2d338",
    "stirling":
        "b020f42a0ada6f97b49e8ba3c865134307cee11dfbcc8ac871db637408d0b98f",
    "stirling2":
        "23f8afec0fb394cd42442d97de3e987b0ee0ae4046a45fa71f06d0f446e7a126",
    "decorated":
        "9f91a57229bdf8c9b072456799baf036687ac0a37170fd97d85b78c7e34bcf58",
    "invseq":
        "d39461fa7fbab0500f8d1514b6d61bdb7240f3ee373ab8ef3455a5ca3d05b401",
}


@pytest.mark.parametrize("cls", objects.CLASS_NAMES)
def test_stream_path_bytes_pinned(cls):
    # generate, stats, encode and emit_jsonl give these exact bytes; every
    # object parses back from its encoding and is valid
    objs = list(objects.generate(cls, 4, (1, 2, 3, 4) if cls == "invseq"
                                 else None))
    lines = emit_jsonl((o, objects.stats(o)) for o in objs)
    digest = hashlib.sha256("".join(f"{line}\n" for line in lines).encode())
    assert digest.hexdigest() == STREAM_DIGESTS[cls]
    for o in objs:
        assert objects.parse(cls, objects.encode(o)) == o
        assert objects.validate(o)


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
        [c.id for c in verify.CHECKS])), _opt("--max-n", st.integers(-2, 3)),
        _opt("--format", st.sampled_from(["text", "json", "summary"]))),
    st.tuples(st.just(["poly"]), _opt("--family", st.sampled_from(FAMILIES)),
              _opt("--n", _N),
              _opt("--format", st.sampled_from(["text", "csv", "json"]))),
    st.tuples(st.just(["enumerate"]),
              _opt("--class", st.sampled_from(objects.CLASS_NAMES)),
              _opt("--n", _N), st.just([]) | _opt("--s", _S_LIST),
              st.sampled_from([[], ["--stats"]])),
    st.tuples(st.just(["bijection"]),
              _opt("--map", st.sampled_from(["phi", "psi"])),
              _opt("--input", _INPUT) | st.just(["--check"]),
              st.just([]) | _opt("--n", _N),
              st.sampled_from([[], ["--steps"]])),
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
