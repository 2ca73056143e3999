"""CLI behavior: output formats, determinism, and exit codes."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import nijalg
from nijalg import cli
from nijalg.cli import main
from nijalg.suites import SUITES

LIMIT = sys.get_int_max_str_digits()


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval_text(capsys):
    code, out, err = run(capsys, "eval", "a * b")
    assert code == 0 and err == ""
    assert out == "-[a b] + a.b + b.a\n"


def test_eval_lambda_flag(capsys):
    code, out, _ = run(capsys, "eval", "a * b", "--lambda", "0")
    assert code == 0
    assert out == "a.b + b.a\n"
    code, out, _ = run(capsys, "eval", "a * b", "--lambda", "2/3")
    assert code == 0
    assert out == "-2/3·[a b] + a.b + b.a\n"


def test_eval_json(capsys):
    code, out, _ = run(capsys, "eval", "a * b", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload == {
        "lambda": "1",
        "terms": [
            {"coeff": "-1", "word": [[["a", 1], ["b", 1]]]},
            {"coeff": "1", "word": [[["a", 1]], [["b", 1]]]},
            {"coeff": "1", "word": [[["b", 1]], [["a", 1]]]},
        ],
    }


def test_eval_is_byte_identical_across_runs(capsys):
    argv = ("eval", "B+(a.b) % b.a", "--lambda", "5/7", "--format", "json")
    first = run(capsys, *argv)
    second = run(capsys, *argv)
    assert first == second and first[0] == 0


def test_eval_parse_error_exits_2(capsys):
    code, out, err = run(capsys, "eval", "a..b")
    assert code == 2 and out == ""
    assert "error:" in err and "1:3" in err


def test_eval_empty_word_in_augmented_product_exits_2(capsys):
    code, _, err = run(capsys, "eval", "a # (b - b + 1)")
    assert code == 2
    assert "error:" in err


def test_check_pass_and_fail_exit_codes(capsys):
    code, out, _ = run(capsys, "check", "assoc-mqs", "--lambda", "1", "--max-len", "3")
    assert code == 0
    assert out.endswith("0 failures -> PASS\n")
    code, out, _ = run(capsys, "check", "assoc-mqs", "--lambda", "2", "--max-len", "3")
    assert code == 1
    assert "FAIL" in out and "defect =" in out


def test_check_json_report(capsys):
    code, out, _ = run(
        capsys, "check", "nijenhuis", "--max-len", "3", "--format", "json"
    )
    assert code == 0
    report = json.loads(out)
    assert report["suite"] == "nijenhuis"
    assert report["failures"] == []
    assert report["checked"] > 0


def test_check_is_byte_identical_across_runs(capsys):
    argv = ("check", "universal", "--max-len", "4", "--seed", "7", "--format", "json")
    first = run(capsys, *argv)
    second = run(capsys, *argv)
    assert first == second and first[0] == 0


def test_unknown_suite_exits_2(capsys):
    code, out, err = run(capsys, "check", "no-such-suite")
    assert code == 2 and out == ""
    assert "unknown suite" in err


def test_usage_error_exits_2(capsys):
    code, _, _ = run(capsys)
    assert code == 2
    code, _, _ = run(capsys, "eval")
    assert code == 2
    code, _, _ = run(capsys, "check", "nijenhuis", "--lambda", "x")
    assert code == 2


def test_eval_deep_nesting_exits_2(capsys):
    from nijalg.expr import MAX_NESTING

    code, out, _ = run(capsys, "eval", "(" * MAX_NESTING + "a * b" + ")" * MAX_NESTING)
    assert code == 0 and out == "-[a b] + a.b + b.a\n"
    for depth in (MAX_NESTING + 1, 3000):
        for opener in ("(", "B+("):
            text = opener * depth + "a * b" + ")" * depth
            code, out, err = run(capsys, "eval", text, "--format", "json")
            assert code == 2 and out == ""
            assert err.startswith("error: ") and "nested deeper than" in err


def test_eval_oversized_integer_literals_exit_2(capsys):
    digits = "9" * 5000
    for text, where in ((f"{digits}*a", "1:1"), (f"a^{digits}", "1:3")):
        code, out, err = run(capsys, "eval", text)
        assert (code, out) == (2, "")
        assert err == f"error: {where}: integer literal too long (5000 digits)\n"


def test_eval_twenty_digit_exponent(capsys):
    big = "a^99999999999999999999"
    code, out, err = run(capsys, "eval", big)
    assert (code, out, err) == (0, big + "\n", "")
    code, out, err = run(capsys, "eval", f"{big} * b", "--format", "json")
    assert code == 0 and err == ""
    assert [term["word"] for term in json.loads(out)["terms"]] == [
        [[["a", 99999999999999999999], ["b", 1]]],
        [[["b", 1]], [["a", 99999999999999999999]]],
        [[["a", 99999999999999999999]], [["b", 1]]],
    ]


def test_check_rejects_negative_max_len(capsys):
    code, out, err = run(capsys, "check", "assoc-qsh", "--max-len", "-1")
    assert code == 2 and out == ""
    assert "--max-len" in err and "nonnegative" in err
    code, out, _ = run(capsys, "check", "assoc-qsh", "--max-len", "0")
    assert code == 0 and out == "assoc-qsh: 2 checks, 0 failures -> PASS\n"


def test_eval_long_chains_do_not_recurse(capsys):
    code, out, err = run(capsys, "eval", " + ".join(["a"] * 3000))
    assert (code, out, err) == (0, "3000·a\n", "")
    code, out, err = run(capsys, "eval", " - ".join(["a"] * 1200))
    assert (code, out, err) == (0, "-1198·a\n", "")
    code, out, err = run(capsys, "eval", " sh ".join(["1"] * 3000))
    assert (code, out, err) == (0, "1\n", "")


def test_eval_long_words_do_not_recurse(capsys):
    n = 600

    def word(*letters):
        return ".".join(letters)

    a = ["a"]
    # the n+1 shuffles of b into a^n, then the n merges of b into an a,
    # each in canonical word order
    shuffles = [word(*a * k, "b", *a * (n - k)) for k in range(n, -1, -1)]
    merged = {
        "*": [word(*a * k, "[a b]", *a * (n - 1 - k)) for k in range(n - 1, -1, -1)],
        "@": [word(*a * k, "e", "[a b]", *a * (n - 1 - k)) for k in range(n)],
    }
    for op, negative in merged.items():
        code, out, err = run(capsys, "eval", f"{word(*a * n)} {op} b")
        expected = "-" + " - ".join(negative) + " + " + " + ".join(shuffles) + "\n"
        assert (code, err) == (0, "") and out == expected
    assert len(merged["*"]) + len(shuffles) == 1201


def test_eval_error_names_the_innermost_failing_node_once(capsys):
    code, out, err = run(capsys, "eval", "B-(B-(B-(a)))")
    assert code == 2 and out == ""
    assert err == (
        "error: b_minus is defined on the augmented module only (in 'B-(B-(a))')\n"
    )
    from nijalg.expr import MAX_NESTING

    text = "B-(" * MAX_NESTING + "a" + ")" * MAX_NESTING
    code, out, err = run(capsys, "eval", text)
    assert code == 2 and out == ""
    assert err.count("(in '") == 1 and len(err) < 100


def test_check_reports_the_weights_it_checked(capsys):
    fixed = {
        "assoc-amq": ["1"],
        "nijenhuis": ["1"],
        "factorization": ["1"],
        "omega": ["1"],
        "torsion-cocycle": ["1"],
        "dendriform-di": ["0"],
        "universal": ["0", "1", "2/3"],
    }
    for suite, lambdas in fixed.items():
        code, out, _ = run(capsys, "check", suite, "--lambda", "5", "--max-len", "3", "--format", "json")
        assert code == 0 and json.loads(out)["lambdas"] == lambdas
    code, out, _ = run(
        capsys, "check", "assoc-qsh", "--lambda", "5", "--lambda", "2/3", "--max-len", "2",
        "--format", "json",
    )
    assert code == 0 and json.loads(out)["lambdas"] == ["5", "2/3"]


def test_check_at_the_shortest_lengths_exits_0(capsys):
    for suite in SUITES:
        for max_len in ("0", "1"):
            code, out, err = run(capsys, "check", suite, "--max-len", max_len)
            assert (code, err) == (0, ""), (suite, max_len)
            assert out.endswith(" failures -> PASS\n") and "FAIL" not in out
    # no augmented pair is that short, so nothing is checked
    for max_len in ("0", "1"):
        _, out, _ = run(capsys, "check", "universal", "--max-len", max_len)
        assert out == "universal: 0 checks, 0 failures -> PASS\n"


def test_lambda_with_a_huge_exponent_exits_2_at_once():
    # in a child process, so a power of ten that does get built fails the
    # test at the timeout instead of hanging the run
    env = {**os.environ, "PYTHONPATH": str(Path(nijalg.__file__).parent.parent)}
    for command in (["eval", "a"], ["check", "assoc-qsh", "--max-len", "2"]):
        for lam in ("1e999999999", "1e-999999999", "-7.25E+999999999"):
            argv = [sys.executable, "-m", "nijalg.cli", *command, f"--lambda={lam}"]
            done = subprocess.run(argv, capture_output=True, text=True, timeout=10, env=env)
            assert (done.returncode, done.stdout) == (2, "")
            message = f"invalid rational {lam!r}: more than {LIMIT} digits"
            assert done.stderr.endswith(f"error: argument --lambda: {message}\n")
    # a zero mantissa makes any exponent harmless
    for lam in ("0e999999999", "-0.0e-999999999"):
        argv = [sys.executable, "-m", "nijalg.cli", "eval", "a * b", f"--lambda={lam}"]
        done = subprocess.run(argv, capture_output=True, text=True, timeout=10, env=env)
        assert (done.returncode, done.stdout, done.stderr) == (0, "a.b + b.a\n", "")


def test_lambda_parses_as_fraction_up_to_the_digit_limit(capsys):
    texts = (
        "1", "-2/3", " 5 ", "1_000", "1.5", ".5", "5.", "-0.125", "1e3", "1E-3", "2.5e+2",
        "-7.25e-1", "1_0e1_0", "-0.0e-7", f"1e{LIMIT - 1}", f"1e-{LIMIT - 1}",
        f"{'9' * 20}.5e{LIMIT - 20}",  # 21 significant digits, then LIMIT - 21 zeros
    )
    for text in texts:
        assert cli._parse_lambda(text) == Fraction(text)
    for text in ("x", "1/0", "e5", "1e", "1e5e5", "1/2e3", "1.5 e3", "1e_5", "1e5_", "1e--5"):
        with pytest.raises((ValueError, ZeroDivisionError)):
            Fraction(text)
        code, out, err = run(capsys, "eval", "a", "--lambda", text)
        assert (code, out) == (2, "")
        assert err.endswith(f"invalid rational {text!r}\n")


def test_help_exits_0(capsys):
    for argv in (["--help"], ["eval", "--help"], ["check", "--help"]):
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "") and out.startswith("usage: nijalg"), argv
        if argv[0] == "eval":
            # the % of the example is printed, not read as a format directive
            assert "'B+(a.b) % c'" in out


@pytest.mark.parametrize("lam", ["-1/2", "-2.5e-3", "-.5", "-1"])
def test_negative_lambda_parses_as_a_separate_argument(capsys, lam):
    joined = run(capsys, "eval", "a * b", f"--lambda={lam}")
    assert joined[0] == 0
    assert run(capsys, "eval", "a * b", "--lambda", lam) == joined
    assert run(capsys, "eval", "--lambda", lam, "a * b", "--format", "json") == run(
        capsys, "eval", "a * b", f"--lambda={lam}", "--format", "json"
    )
    code, out, err = run(
        capsys, "check", "assoc-qsh", "--max-len", "2", "--lambda", "2", "--lambda", lam,
        "--format", "json",
    )
    assert (code, err) == (0, "")
    assert json.loads(out)["lambdas"] == ["2", str(Fraction(lam))]
    # argparse's abbreviations of --lambda take a negative value too
    assert run(capsys, "eval", "a * b", "--lam", lam) == joined


def test_lambda_without_a_value_still_exits_2(capsys):
    for command in (["eval", "a * b"], ["check", "assoc-qsh"]):
        code, out, err = run(capsys, *command, "--lambda", "--format", "json")
        assert (code, out) == (2, "")
        assert err.endswith("error: argument --lambda: expected one argument\n")
    # after --, or before the command, a negative value is an argument of
    # its own
    code, out, err = run(capsys, "eval", "--", "--lambda", "-1/2")
    assert (code, out) == (2, "")
    assert err.endswith("error: unrecognized arguments: -1/2\n")
    code, out, err = run(capsys, "--lambda", "-1/2", "eval", "a")
    assert (code, out) == (2, "")
    assert err.endswith("error: unrecognized arguments: --lambda -1/2\n")


def test_lambda_past_the_digit_limit_exits_2(capsys):
    for lam in (
        f"1e{LIMIT}", f"1e-{LIMIT}", f"0.{'0' * (LIMIT - 1)}1", f"{'9' * 20}.5e{LIMIT - 19}"
    ):
        code, out, err = run(capsys, "eval", "a", f"--lambda={lam}")
        assert (code, out) == (2, "")
        assert err.endswith(f"invalid rational {lam!r}: more than {LIMIT} digits\n")


NINES = "9" * 4000
TOO_LONG_TO_PRINT = [
    ("eval", "a*b", "--lambda", "1e5000"),
    ("eval", f"{NINES}*({NINES}*a)"),
    ("eval", f"{NINES}*({NINES}*a)", "--format", "json"),
    ("eval", f"[a^{'9' * LIMIT} a^{'9' * LIMIT}]"),
    ("eval", f"[a^{'9' * LIMIT} a^{'9' * LIMIT}]", "--format", "json"),
    ("check", "assoc-qsh", "--lambda", "1e5000", "--max-len", "2"),
    ("check", "assoc-mqs", "--lambda", "1e3000", "--max-len", "3"),
]


@pytest.mark.parametrize("argv", TOO_LONG_TO_PRINT, ids=range(len(TOO_LONG_TO_PRINT)))
def test_results_past_the_digit_limit_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert "error: " in err and f"more than {LIMIT} digits" in err


def test_other_value_errors_are_not_turned_into_exit_2(monkeypatch):
    def broken(args):
        raise ValueError("a bug, not a long integer")

    monkeypatch.setattr(cli, "_cmd_eval", broken)
    with pytest.raises(ValueError, match="a bug"):
        main(["eval", "a"])
