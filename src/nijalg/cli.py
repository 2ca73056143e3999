"""Command-line front end: `nijalg eval` and `nijalg check`.

Exit codes: 0 pass, 1 check failure, 2 usage or parse error, a result
with an integer of more digits than Python prints, or a stdout that cannot
be written.  Output is deterministic; ANSI color is used only on a terminal
and can be disabled with NIJ_COLOR=0.  No failed write gives a traceback.
A stdout or stderr that its reader closes early, or that was closed before
start (``>&-``, ``2>&-``), keeps the exit code the command decided, as does
a stderr that cannot be written.  A stdout that cannot be written for any
other reason, such as a full disk, exits 2 with ``error: cannot write
output: …`` on stderr.  A stdout whose encoding cannot hold the output's
``·`` is sent its UTF-8 bytes.

``eval --format json`` writes ``{"lambda": …, "terms": …}`` round
``TensorElement.json_terms``, the bytes ``json.dumps`` wrote for the same
value (README, "CLI"); ``check --format json`` is ``json.dumps`` of the report.

A well-formed ``eval`` (one expression and each of ``--lambda`` and
``--format`` at most once, spelled out in full, with a valid value) is read
by ``_plain_eval`` without argparse, whose parse takes about as long as a
small evaluation.  Every other argv, ``check``, help and every refusal
still goes through argparse, so its messages stay argparse's.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction

from .errors import (
    EmptyWordTermError,
    ExprSyntaxError,
    ReservedSymbolError,
    UnknownSuiteError,
)
from .expr import eval_expr, parse_expr
from .suites import SUITES, run_suite


def _color_enabled() -> bool:
    return sys.stdout.isatty() and os.environ.get("NIJ_COLOR") != "0"


def _verdict(ok: bool) -> str:
    word = "PASS" if ok else "FAIL"
    if _color_enabled():
        return f"\x1b[32m{word}\x1b[0m" if ok else f"\x1b[31m{word}\x1b[0m"
    return word


def _digit_limit() -> int:
    """The most digits an integer prints with (``sys.set_int_max_str_digits``);
    0 means no limit."""
    return getattr(sys, "get_int_max_str_digits", int)()


# a decimal with an exponent, which Fraction applies as a power of ten
_EXPONENT = re.compile(r"(.*?)[eE]([-+]?[\d_]+)\s*\Z", re.DOTALL)


def _rational(text: str, limit: int):
    """Fraction(text), or None when its numerator or denominator would have
    more than ``limit`` digits.

    A large exponent is judged from the text, before its power of ten is
    built: the mantissa's numerator and denominator are below 10**len(text),
    so a nonzero mantissa and an exponent of at least limit + len(text) in
    size put the value's numerator or denominator past 10**limit.
    """
    match = _EXPONENT.match(text)
    if match is None:
        value = Fraction(text)
    else:
        mantissa, exp = Fraction(match[1] + "e0"), int(match[2])
        if not mantissa:
            return mantissa
        if abs(exp) >= limit + len(text):
            return None
        value = mantissa * Fraction(10) ** exp
    largest = max(abs(value.numerator), value.denominator)
    # 2**(3*limit) < 10**limit, so the power is built only for long values
    if largest.bit_length() > 3 * limit and largest >= 10**limit:
        return None
    return value


def _parse_lambda(text: str) -> Fraction:
    limit = _digit_limit()
    try:
        value = _rational(text, limit) if limit else Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"invalid rational {text!r}")
    if value is None:
        raise argparse.ArgumentTypeError(f"invalid rational {text!r}: more than {limit} digits")
    return value


def _join_negative_lambdas(argv: list) -> list:
    """``argv`` with each ``--lambda V`` after the command, or an abbreviation
    such as ``--lam V``, joined into ``--lambda=V`` where V starts like a
    negative number (``-1/2``, ``-.5``), which argparse would otherwise read
    as an option; nothing after ``--`` is touched.  It serves argparse
    only: ``_plain_eval`` reads such a V itself."""
    if argv[:1] not in (["eval"], ["check"]):
        return argv
    out = argv[:1]
    for i, token in enumerate(argv[1:], 1):
        if token == "--":
            return out + argv[i:]
        if len(out[-1]) > 2 and "--lambda".startswith(out[-1]) and re.match(r"-[\d.]", token):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def _parse_max_len(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a nonnegative integer, got {value}")
    return value


def _plain_eval(argv: list):
    """The Namespace argparse builds for ``argv`` (after
    ``_join_negative_lambdas``) when ``argv`` is ``eval``, one expression
    that does not start with ``-``, and each of ``--lambda V`` and
    ``--format V`` (or ``--opt=V``) at most once, spelled out in full, with
    a format of text or json and a λ that ``_parse_lambda`` reads; None for
    every other argv, which argparse then parses (or refuses) as it always
    has.  Each V is judged by its own option's check alone, so a negative
    λ such as ``--lambda -1/2`` needs no joining, and any other V that
    starts with ``-`` fails that check."""
    if argv[:1] != ["eval"]:
        return None
    expr, values = None, {}
    tokens = iter(argv[1:])
    for token in tokens:
        if not token.startswith("-"):
            if expr is not None:
                return None
            expr = token
            continue
        option, joined, value = token.partition("=")
        if option not in ("--lambda", "--format") or option in values:
            return None
        if not joined:
            value = next(tokens, None)
            if value is None:
                return None
        values[option] = value
    fmt = values.get("--format", "text")
    if expr is None or fmt not in ("text", "json"):
        return None
    lam = Fraction(1)
    if "--lambda" in values:
        # the errors caught are the ones argparse turns into a usage message
        try:
            lam = _parse_lambda(values["--lambda"])
        except (argparse.ArgumentTypeError, TypeError, ValueError):
            return None
    return argparse.Namespace(command="eval", expr=expr, lam=lam, format=fmt)


def build_parser() -> argparse.ArgumentParser:
    """The argument parser.  A well-formed ``eval`` never builds it
    (``_plain_eval``); ``check``, help and every malformed argv build it
    once per run."""
    parser = argparse.ArgumentParser(
        prog="nijalg",
        description="Exact quasi-shuffle algebra calculator and identity checker.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    eval_p = sub.add_parser("eval", help="evaluate an expression")
    eval_p.add_argument("expr", help="expression, e.g. 'a * b' or 'B+(a.b) %% c'")
    eval_p.add_argument(
        "--lambda", dest="lam", type=_parse_lambda, default=Fraction(1), metavar="p/q"
    )
    eval_p.add_argument("--format", choices=("text", "json"), default="text")

    check_p = sub.add_parser("check", help="run an identity-check suite")
    check_p.add_argument("suite", help=f"one of: {', '.join(SUITES)}")
    check_p.add_argument(
        "--lambda",
        dest="lams",
        type=_parse_lambda,
        action="append",
        metavar="p/q",
        help="repeatable; default 1",
    )
    check_p.add_argument("--max-len", type=_parse_max_len, default=4)
    check_p.add_argument("--seed", type=int, default=0)
    check_p.add_argument("--format", choices=("text", "json"), default="text")
    return parser


def _write(stream, text: str) -> None:
    """Write ``text`` to ``stream`` (``sys.stdout`` or ``sys.stderr``) and
    flush it.  A stream that cannot encode the text (``·``) gets its UTF-8
    bytes.  When a write fails, what is still buffered goes to the null
    device, so the flush at exit raises nothing either; the OSError is
    raised unless the reader has gone (a broken pipe)."""
    try:
        try:
            stream.write(text)
        except UnicodeEncodeError:
            stream.flush()
            stream.buffer.write(text.encode())
        stream.flush()
    except OSError as err:
        os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())
        if not isinstance(err, BrokenPipeError):
            raise


def _to_stderr(text: str) -> None:
    """Write ``text`` to stderr, or nowhere when stderr cannot be written:
    the exit code still says what went wrong."""
    try:
        _write(sys.stderr, text)
    except OSError:
        pass


def _error(message) -> None:
    _to_stderr(f"error: {message}\n")


def _cmd_eval(args) -> tuple:
    """(exit code, stdout text)."""
    try:
        element = eval_expr(parse_expr(args.expr), args.lam)
    except (ExprSyntaxError, ReservedSymbolError, EmptyWordTermError) as err:
        _error(err)
        return 2, ""
    if args.format == "json":
        return 0, f'{{"lambda": "{args.lam}", "terms": {element.json_terms()}}}\n'
    return 0, f"{element}\n"


def _cmd_check(args) -> tuple:
    """(exit code, stdout text)."""
    lams = args.lams if args.lams else [Fraction(1)]
    try:
        report = run_suite(args.suite, args.max_len, lams, args.seed)
    except UnknownSuiteError as err:
        _error(err)
        return 2, ""
    failures = report["failures"]
    code = 1 if failures else 0
    if args.format == "json":
        return code, json.dumps(report) + "\n"
    lines = []
    for record in failures:
        extra = f" [{record['check']}]" if "check" in record else ""
        lines.append(f"FAIL{extra} {record['inputs']}: defect = {record['defect']}\n")
    lines.append(
        f"{report['suite']}: {report['checked']} checks, "
        f"{len(failures)} failures -> {_verdict(not failures)}\n"
    )
    return code, "".join(lines)


def _run(argv: list) -> tuple:
    """(exit code, stdout text) of the command ``argv`` names; argparse
    writes its own help and refusals."""
    args = _plain_eval(argv)
    if args is None:
        try:
            args = build_parser().parse_args(_join_negative_lambdas(argv))
        except SystemExit as exc:
            # argparse ignores a stderr it cannot write, but leaves its text
            # buffered for the flush at exit to fail on
            _to_stderr("")
            return (exc.code if isinstance(exc.code, int) else 2), ""
    try:
        return (_cmd_eval if args.command == "eval" else _cmd_check)(args)
    except ValueError as err:
        # a result integer too long to print: str() refuses it before
        # anything reaches stdout; any other ValueError is a bug
        if "integer string conversion" not in str(err):
            raise
        _error(
            f"the result has an integer of more than {_digit_limit()} digits,"
            " too long to print"
        )
        return 2, ""


def main(argv=None) -> int:
    # a descriptor closed before start (``>&-``, ``2>&-``) leaves its stream
    # None; every writer, argparse included, then writes to the null device
    for name in ("stdout", "stderr"):
        if getattr(sys, name) is None:
            setattr(sys, name, open(os.devnull, "w", encoding="utf-8"))
    code, out = _run(sys.argv[1:] if argv is None else list(argv))
    try:
        _write(sys.stdout, out)
    except OSError as err:
        # the output is lost, so the command's own code would not be true
        _error(f"cannot write output: {err}")
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
