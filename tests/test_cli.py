"""CLI behavior: output formats, determinism, and exit codes."""

import contextlib
import errno
import functools
import io
import json
import os
import re
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nijalg
from nijalg import MONO_UNIT, Monomial, TensorElement, cli, quasi_shuffle
from nijalg.cli import main
from nijalg.suites import SUITES
from nijalg.tensor import word_str

from conftest import count_calls

LIMIT = sys.get_int_max_str_digits()

# a command, outside quotes free of "#", then an optional "# comment"
EXAMPLE = re.compile(r"((?:[^'#]|'[^']*')*)(?:#\s*(.*))?")


def readme_cli_examples():
    """(argv, exit code, stdout or None) for each line of README's ``## CLI``
    block.  A comment naming ``exit N`` gives the exit code, 0 when none is
    named; a comment that names no exit is the exact stdout."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    examples = []
    for line in block.splitlines():
        command, comment = EXAMPLE.fullmatch(line).groups()
        program, *argv = shlex.split(command)
        assert program == "nijalg", line
        named = re.search(r"\bexit (\d+)\b", comment or "")
        if named:
            examples.append((argv, int(named.group(1)), None))
        else:
            examples.append((argv, 0, None if comment is None else comment + "\n"))
    return examples


README_EXAMPLES = readme_cli_examples()


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize(
    "argv, code, out", README_EXAMPLES, ids=[shlex.join(argv) for argv, _, _ in README_EXAMPLES]
)
def test_readme_cli_example(capsys, argv, code, out):
    got_code, got_out, _ = run(capsys, *argv)
    assert got_code == code
    if out is not None:
        assert got_out == out


def test_readme_cli_examples_are_found():
    # both kinds of comment are read: a pinned stdout and a named exit
    assert any(out for _, _, out in README_EXAMPLES)
    assert any(code for _, code, _ in README_EXAMPLES)


def test_the_package_runs_as_a_module_from_a_checkout():
    # README's first example through `python -m nijalg`, with only the
    # source tree on the path
    argv, code, out = README_EXAMPLES[0]
    env = {**os.environ, "PYTHONPATH": str(Path(nijalg.__file__).parent.parent)}
    command = [sys.executable, "-m", "nijalg", *argv]
    done = subprocess.run(command, capture_output=True, text=True, timeout=30, env=env)
    assert (done.returncode, done.stdout, done.stderr) == (code, out, "")
    assert out == "-[a b] + a.b + b.a\n"


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


# The eval JSON form before TensorElement.json_terms wrote it, copied
# verbatim as the reference for that writer and the envelope cli puts round it
def element_to_json(element: TensorElement, lam: Fraction) -> dict:
    """JSON form: a word is a list of monomials, a monomial a sorted list of
    [generator, exponent] pairs; the unit monomial is the empty list."""
    return {
        "lambda": str(lam),
        "terms": [
            {
                "coeff": str(coeff),
                # json.dumps prints the exponent tuples as lists
                "word": [mono.exponents for mono in word],
            }
            for word, coeff in element.terms()
        ],
    }


# TensorElement.__str__ before it read the integer numerators, copied
# verbatim as the reference for the text writer
def element_to_text(self):
    if not self._terms:
        return "0"
    parts = []
    for word, coeff in self.terms():
        mag = abs(coeff)
        body = word_str(word) if mag == 1 else f"{mag}·{word_str(word)}"
        if not parts:
            parts.append(body if coeff > 0 else f"-{body}")
        else:
            parts.append(("+ " if coeff > 0 else "- ") + body)
    return " ".join(parts)


json_letters = st.one_of(
    st.just(MONO_UNIT),
    st.dictionaries(st.sampled_from(("a", "x_1", "x_10")), st.integers(1, 12), min_size=1, max_size=3).map(
        Monomial
    ),
)
# few letters, so words repeat and their coefficients add up or cancel; the
# empty word; coefficients negative, fractional, or integral beside fractions
json_terms = st.tuples(
    st.lists(json_letters, max_size=3).map(tuple),
    st.one_of(st.integers(-12, 12), st.fractions(min_value=-3, max_value=3, max_denominator=12)),
)


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(
    st.lists(json_terms, max_size=5).map(TensorElement),
    st.lists(json_terms, max_size=2).map(TensorElement),
    st.sampled_from(("0", "1", "-1/2", "2/3", "5/7")),
)
def test_eval_json_is_json_dumps_of_the_reference_form(x, y, lam):
    # and the text format is the reference __str__
    for element in (x, quasi_shuffle(x, y, Fraction(lam))):
        for fmt, expected in (
            ("json", json.dumps(element_to_json(element, Fraction(lam)))),
            ("text", element_to_text(element)),
        ):
            out = io.StringIO()
            with mock.patch.object(cli, "eval_expr", return_value=element):
                with contextlib.redirect_stdout(out):
                    assert main(["eval", "a", "--lambda", lam, "--format", fmt]) == 0
            assert out.getvalue() == expected + "\n", fmt


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
    ("eval", f"{NINES}/7*({NINES}*a)", "--format", "json"),
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


def buffered_env():
    """The environment of a ``python -m nijalg`` child: this checkout on the
    path, and its streams buffered, as by default, so that the interpreter's
    flush at exit still has text to write."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(nijalg.__file__).parent.parent)
    return env


# one argv of each kind the CLI handles, and the exit code it decides
CONTRACT_ARGVS = {
    "eval-text": (["eval", "2 a*b"], 0),  # its text holds "·"
    "eval-json": (["eval", "a*b", "--format", "json"], 0),
    "check-pass": (["check", "nijenhuis", "--max-len", "3"], 0),
    # about 470 KB, far more than a pipe holds, and its text holds "·"
    "check-fail": (["check", "assoc-mqs", "--lambda", "2/3", "--max-len", "6"], 1),
    "parse-error": (["eval", "a..b"], 2),
    "argparse-error": (["eval", "a", "--bogus"], 2),
    "argparse-choice": (["eval", "a", "--format", "xml"], 2),
    "help": (["--help"], 0),
    "too-long": (["eval", f"{NINES}*({NINES}*a)"], 2),
}


def text_streams(encoding="utf-8"):
    """A stdout and a stderr that keep the bytes written to them."""
    return (
        io.TextIOWrapper(io.BytesIO(), encoding=encoding),
        io.TextIOWrapper(io.BytesIO(), encoding=encoding, errors="backslashreplace"),
    )


def in_process(argv, stdout, stderr):
    """(exit code, stdout bytes, stderr bytes) of ``main(argv)`` on these
    streams; None for a stream that is not a ``text_streams`` one."""
    with mock.patch.multiple(sys, stdout=stdout, stderr=stderr):
        code = main(argv)
    read = [None, None]
    for k, stream in enumerate((stdout, stderr)):
        if isinstance(stream, io.TextIOWrapper):
            stream.flush()
            read[k] = stream.buffer.getvalue()
    return code, *read


@functools.cache
def working_run(name):
    """``in_process`` of the argv ``name`` on streams that work."""
    return in_process(CONTRACT_ARGVS[name][0], *text_streams())


class FailingStream(io.StringIO):
    """A stream on the descriptor ``fd``, as ``sys.stdout`` is, whose flush
    of written text fails with EIO, as a device's after an I/O error does."""

    def __init__(self, fd):
        super().__init__()
        self.fd = fd

    def flush(self):
        if self.getvalue():
            self.seek(0)
            self.truncate()
            raise OSError(errno.EIO, os.strerror(errno.EIO))

    def fileno(self):
        return self.fd


def failing(name, argv):
    """``main(argv)`` in process with the stream ``name`` failing with EIO."""
    fd = os.open(os.devnull, os.O_WRONLY)
    try:
        streams = dict(zip(("stdout", "stderr"), text_streams()))
        streams[name] = FailingStream(fd)
        return in_process(argv, streams["stdout"], streams["stderr"])
    finally:
        os.close(fd)


def child(argv, closed=None, **streams):
    """(exit code, stdout bytes, stderr bytes) of ``python -m nijalg argv``,
    each stream piped unless given in ``streams`` (then None), started with
    the descriptor ``closed`` closed."""
    streams = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE, **streams}
    done = subprocess.run(
        [sys.executable, "-m", "nijalg", *argv],
        timeout=60,
        env=buffered_env(),
        preexec_fn=None if closed is None else lambda: os.close(closed),
        **streams,
    )
    piped = [streams[name] is subprocess.PIPE for name in ("stdout", "stderr")]
    return done.returncode, *[v if p else None for v, p in zip((done.stdout, done.stderr), piped)]


def to_dev_full(name, argv):
    with open("/dev/full", "w") as full:
        return child(argv, **{name: full})


def to_a_pipe_closed_after_one_read(argv):
    with subprocess.Popen(
        [sys.executable, "-m", "nijalg", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=buffered_env(),
    ) as proc:
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        return proc.wait(timeout=60), first, err


def to_a_pipe_without_reader(argv):
    read, write = os.pipe()
    os.close(read)
    try:
        return child(argv, stdout=write, stderr=write)
    finally:
        os.close(write)


def cannot_write(errno_):
    return f"error: cannot write output: [Errno {errno_}] {os.strerror(errno_)}\n".encode()


def lost_stdout(errno_):
    """What a stdout that fails with ``errno_`` leaves, from the working run:
    exit 2 and the reason on stderr if there was text to write."""

    def expect(code, out, err):
        return (2, None, err + cannot_write(errno_)) if out else (code, None, err)

    return expect


# condition -> (how argv runs under it, its outcome from the working run's
# (code, out, err)); a stream the condition leaves unreadable reads None.
# Closed descriptors, full devices and pipes run in a child, whose flush at
# exit takes part; the others run in process on fake streams.
STREAM_CONDITIONS = {
    "normal": (lambda argv: in_process(argv, *text_streams()), lambda *run: run),
    "stdout-closed": (lambda argv: child(argv, closed=1), lambda c, o, e: (c, b"", e)),
    "stderr-closed": (lambda argv: child(argv, closed=2), lambda c, o, e: (c, o, b"")),
    "pipe-closed-after-one-read": (
        to_a_pipe_closed_after_one_read,
        lambda c, o, e: (c, io.BytesIO(o).readline(), e),
    ),
    "pipe-without-reader": (to_a_pipe_without_reader, lambda c, o, e: (c, None, None)),
    "stdout-dev-full": (functools.partial(to_dev_full, "stdout"), lost_stdout(errno.ENOSPC)),
    "stderr-dev-full": (functools.partial(to_dev_full, "stderr"), lambda c, o, e: (c, o, None)),
    "stdout-eio": (functools.partial(failing, "stdout"), lost_stdout(errno.EIO)),
    "stderr-eio": (functools.partial(failing, "stderr"), lambda c, o, e: (c, o, None)),
    # the stdout gets the UTF-8 bytes of text its encoding cannot hold
    "pythonioencoding-ascii": (
        lambda argv: in_process(argv, *text_streams("ascii")),
        lambda *run: run,
    ),
}


@pytest.mark.parametrize("condition", STREAM_CONDITIONS)
@pytest.mark.parametrize("name", CONTRACT_ARGVS)
def test_the_exit_code_contract_holds_on_every_stream(name, condition):
    # the decided exit code, 2 where a lost stdout had text to write; no
    # traceback on stderr, no error text on stdout, and every stream that
    # works gets the bytes it gets when all work
    if "dev-full" in condition and not os.path.exists("/dev/full"):
        pytest.skip("needs a full device")
    argv, decided = CONTRACT_ARGVS[name]
    run, outcome = STREAM_CONDITIONS[condition]
    working = working_run(name)
    assert working[0] == decided
    code, out, err = result = run(argv)
    assert result == outcome(*working)
    assert b"Traceback" not in (err or b"") and b"Exception ignored" not in (err or b"")
    assert b"error: " not in (out or b"")


def test_the_contract_table_covers_what_it_names():
    # the "·" rows test the UTF-8 fallback, the long report outlasts a pipe
    # and each refusal writes its reason to stderr
    texts = {name: working_run(name) for name in CONTRACT_ARGVS}
    assert all("·".encode() in texts[name][1] for name in ("eval-text", "check-fail"))
    assert len(texts["check-fail"][1]) > 400_000
    assert texts["help"][1].startswith(b"usage: nijalg ")
    for name in ("argparse-error", "argparse-choice"):
        assert texts[name][1:] == (b"", texts[name][2]) and texts[name][2].startswith(b"usage: ")
    assert texts["parse-error"][1:] == (b"", b"error: 1:3: expected a letter, got '.'\n")
    assert texts["too-long"][1] == b"" and b"too long to print" in texts["too-long"][2]


class Terminal(io.StringIO):
    def isatty(self):
        return True


def test_the_verdict_is_coloured_on_a_terminal_unless_nij_color_is_0():
    argvs = (
        ["check", "nijenhuis", "--max-len", "3"],
        ["check", "assoc-mqs", "--lambda", "2", "--max-len", "3"],
    )
    for color, (pass_, fail) in (
        (None, ("\x1b[32mPASS\x1b[0m", "\x1b[31mFAIL\x1b[0m")),
        ("0", ("PASS", "FAIL")),
    ):
        env = {key: value for key, value in os.environ.items() if key != "NIJ_COLOR"}
        if color is not None:
            env["NIJ_COLOR"] = color
        for argv, code, verdict in zip(argvs, (0, 1), (pass_, fail)):
            out = Terminal()
            with mock.patch.dict(os.environ, env, clear=True), contextlib.redirect_stdout(out):
                assert main(argv) == code
            assert out.getvalue().endswith(f" -> {verdict}\n"), (argv, color)


# tokens at the edges of the shape _plain_eval reads: abbreviations, "=",
# repeats, "--", help, values that start with "-" or hold a space
ARGV_TOKENS = (
    "a", "a * b", "a.b", "", "-a", " -x", "a b", "--", "-h", "--help",
    "--lambda", "--lambda=", "--lambda=2/3", "--lambda=-1/2", "--lambda=--format", "--lam",
    "--format", "--format=", "--format=json", "--form", "json", "text", "xml",
    "2", "2/3", "-1/2", "1/0", "x",
)


@settings(derandomize=True, deadline=None, database=None, max_examples=1500)
@given(st.lists(st.sampled_from(ARGV_TOKENS), max_size=6))
def test_the_plain_eval_reading_matches_argparse(tokens):
    # each reads the argv it is given in _run: argparse after the join
    argv = ["eval", *tokens]
    fast = cli._plain_eval(argv)
    if fast is not None:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                slow = cli.build_parser().parse_args(cli._join_negative_lambdas(argv))
            except SystemExit:
                slow = None
        assert slow is not None, (argv, err.getvalue())
        assert vars(fast) == vars(slow)


def test_plain_eval_reads_only_its_narrow_shape():
    for argv in (
        ["eval", "a"],
        ["eval", "--format", "json", "a.b"],
        ["eval", "a", "--lambda=2/3"],
        ["eval", "a", "--format=json", "--lambda=-1/2"],
        ["eval", "a", "--lambda", "-1/2"],
        ["eval", ""],
    ):
        assert cli._plain_eval(argv) is not None, argv
    for argv in (
        ["eval"],
        ["eval", "a", "b"],
        ["eval", "a", "--lam", "2"],
        ["eval", "a", "--form", "json"],
        ["eval", "a", "--lambda", "1", "--lambda", "2"],
        ["eval", "a", "--format", "xml"],
        ["eval", "a", "--lambda", "1/0"],
        ["eval", "a", "--lambda"],
        ["eval", "-a"],
        ["eval", "--", "a"],
        ["eval", "a", "-h"],
        ["check", "assoc-qsh"],
    ):
        assert cli._plain_eval(argv) is None, argv


def test_a_well_formed_eval_does_not_build_the_parser(capsys, monkeypatch):
    builds = count_calls(monkeypatch, cli, "build_parser")
    code, out, err = run(capsys, "eval", "a * b", "--lambda", "-1/2", "--format", "json")
    assert (code, err) == (0, "")
    assert json.loads(out) == {
        "lambda": "-1/2",
        "terms": [
            {"coeff": "1/2", "word": [[["a", 1], ["b", 1]]]},
            {"coeff": "1", "word": [[["a", 1]], [["b", 1]]]},
            {"coeff": "1", "word": [[["b", 1]], [["a", 1]]]},
        ],
    }
    assert builds == []
    # an abbreviation is argparse's to read
    assert run(capsys, "eval", "a", "--lam", "2") == (0, "a\n", "")
    assert len(builds) == 1
