"""Command-line front end: `nijalg eval` and `nijalg check`.

Exit codes: 0 pass, 1 check failure, 2 usage or parse error.  Output is
deterministic; ANSI color is used only on a terminal and can be disabled
with NIJ_COLOR=0.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
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
from .tensor import TensorElement


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


def _color_enabled() -> bool:
    return sys.stdout.isatty() and os.environ.get("NIJ_COLOR") != "0"


def _verdict(ok: bool) -> str:
    word = "PASS" if ok else "FAIL"
    if _color_enabled():
        return f"\x1b[32m{word}\x1b[0m" if ok else f"\x1b[31m{word}\x1b[0m"
    return word


def _parse_lambda(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"invalid rational {text!r}")


def _parse_max_len(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a nonnegative integer, got {value}")
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once: argparse parsers hold no state
    between parse_args calls, and building one costs more than a small eval."""
    parser = argparse.ArgumentParser(
        prog="nijalg",
        description="Exact quasi-shuffle algebra calculator and identity checker.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    eval_p = sub.add_parser("eval", help="evaluate an expression")
    eval_p.add_argument("expr", help="expression, e.g. 'a * b' or 'B+(a.b) % c'")
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


def _cmd_eval(args) -> int:
    try:
        element = eval_expr(parse_expr(args.expr), args.lam)
    except (ExprSyntaxError, ReservedSymbolError, EmptyWordTermError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(json.dumps(element_to_json(element, args.lam)))
    else:
        print(element)
    return 0


def _cmd_check(args) -> int:
    lams = args.lams if args.lams else [Fraction(1)]
    try:
        report = run_suite(args.suite, args.max_len, lams, args.seed)
    except UnknownSuiteError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    failures = report["failures"]
    if args.format == "json":
        print(json.dumps(report))
    else:
        for record in failures:
            extra = f" [{record['check']}]" if "check" in record else ""
            print(f"FAIL{extra} {record['inputs']}: defect = {record['defect']}")
        print(
            f"{report['suite']}: {report['checked']} checks, "
            f"{len(failures)} failures -> {_verdict(not failures)}"
        )
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    if args.command == "eval":
        return _cmd_eval(args)
    return _cmd_check(args)


if __name__ == "__main__":
    sys.exit(main())
