"""The pinned CLI corpus: argv lists for `nijalg check` and `nijalg eval`,
each mapped to the sha256 of its stdout, the sha256 of its stderr and its
exit code, with `cli.main` called in process.

    PYTHONPATH=src python tests/cli_corpus.py

writes ``cli_corpus.json`` beside this file from the code on the path.  The
table is written once and then only read, by ``test_cli_corpus.py``: a change
that means to alter output re-pins the rows it names, and a refactor re-pins
nothing.

    PYTHONPATH=src python tests/cli_corpus.py --check

regenerates every row and compares it with the table without pytest, since
this module uses the standard library alone: it prints one JSON line per row
that differs and exits 1 if any does, else 0.  The table was written under
Python 3.11 with the default digit limit of 4300; every row, argparse's
messages included, also matches under Python 3.10.13, 3.12.1 and 3.13.0.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path
from unittest import mock

TABLE = Path(__file__).resolve().parent / "cli_corpus.json"

SUITE_NAMES = (
    "assoc-qsh", "assoc-aqs", "assoc-mqs", "assoc-amq", "nijenhuis", "rota-baxter",
    "mixed-oracle", "factorization", "dendriform-di", "dendriform-tri", "omega",
    "universal", "torsion-cocycle",
)
CHECK_LAMBDAS = (("1",), ("2/3",), ("2", "-1"))
EVAL_LAMBDAS = ("0", "2/3", "1", "-1/2")
PRODUCTS = ("*", "sh", "#", "@", "%", "<", ">", "&")
# operand pairs for every product: single words, then sums with fractional
# coefficients, unit letters and merged letters
OPERANDS = (
    ("a.b", "c"),
    ("a.b.c", "b.a"),
    ("(a - 2/3 b.c)", "(3/2 a.e + [a b])"),
)
UNARY = ("B+(a.b - 1/2 c)", "B-(a.b - 2/3 e.c)", "B+(1)", "B-(1)")
EXTRA = (
    "1/3 a + 2/3 a",
    "2/3 a.b * 3/2 b",
    "1 < a", "a < 1", "1 > a", "a > 1", "1 & a", "a & (b - b + 1)",
    "a # 1", "1 % a", "1 * a", "1 sh a.b", "1 @ a",
)
# the zero element, the empty word, exponents and multi-generator letters,
# and generator names with digits and underscores
JSON_EXTRA = ("a - a", "1", "2 1", "[a^2 c] * b^3", "x_1 * x_10")
# text only: coefficients that reduce, beside integral ones
TEXT_EXTRA = ("1/2 a + b", "2/4 a.b - 3 c")


def _check_argvs():
    for suite in SUITE_NAMES:
        for max_len in ("0", "1", "3", "4"):
            for lams in CHECK_LAMBDAS:
                for fmt in ("text", "json"):
                    argv = ["check", suite, "--max-len", max_len]
                    for lam in lams:
                        argv += ["--lambda", lam]
                    yield argv + ["--format", fmt]


def _eval_argvs():
    texts = [f"{x} {op} {y}" for op in PRODUCTS for x, y in OPERANDS]
    for text in texts + list(UNARY) + list(EXTRA):
        for lam in EVAL_LAMBDAS:
            for fmt in ("text", "json"):
                yield ["eval", text, "--lambda", lam, "--format", fmt]
    # options before the expression, joined by "=", repeated or abbreviated
    yield from (
        ["eval", "--format", "json", "a.b"],
        ["eval", "a", "--lambda=2/3"],
        ["eval", "a", "--format=json", "--lambda", "-1/2"],
        ["eval", "a", "--lambda", "1", "--lambda", "2"],
        ["eval", "a * b", "--lambda", "1", "--lambda", "2"],
        ["eval", "a", "--lam", "2"],
        ["eval", "a * b", "--lam", "2"],
        ["eval", "a", "--form", "json"],
    )
    for text in JSON_EXTRA:
        for lam in EVAL_LAMBDAS:
            yield ["eval", text, "--lambda", lam, "--format", "json"]
    for text in JSON_EXTRA + TEXT_EXTRA:
        for lam in EVAL_LAMBDAS:
            yield ["eval", text, "--lambda", lam, "--format", "text"]


def _exit2_argvs():
    limit, nesting, nines = 4300, 100, "9" * 4000
    yield from (
        [],
        ["eval"],
        ["frobnicate"],
        ["check"],
        ["check", "no-such-suite"],
        ["check", "assoc-qsh", "--max-len", "-1"],
        ["check", "assoc-qsh", "--max-len", "two"],
        ["check", "nijenhuis", "--lambda", "x"],
        ["check", "assoc-qsh", "--lambda", "--format", "json"],
        ["check", "assoc-qsh", "--format", "xml"],
        ["check", "assoc-qsh", "--seed", "x"],
        ["eval", "a * b", "--lambda", "--format", "json"],
        ["eval", "a", "--lambda", "1/0"],
        ["eval", "a", "--bogus"],
        ["eval", "--", "--lambda", "-1/2"],
        ["--lambda", "-1/2", "eval", "a"],
        ["eval", "a..b"],
        ["eval", "a +"],
        ["eval", "(a * b"],
        ["eval", "3/0 a"],
        ["eval", "e^2"],
        ["eval", "[e a]"],
        ["eval", "sh"],
        ["eval", "a^0"],
        ["eval", "a ! b"],
        ["eval", "B-(B-(B-(a)))"],
        ["eval", "B-(" * nesting + "a" + ")" * nesting],
        ["eval", "(" * (nesting + 1) + "a * b" + ")" * (nesting + 1)],
        ["eval", "B+(" * (nesting + 1) + "a * b" + ")" * (nesting + 1), "--format", "json"],
        ["eval", "9" * 5000 + "*a"],
        ["eval", "a^" + "9" * 5000],
        ["eval", "a", f"--lambda=1e{limit}"],
        ["eval", "a", f"--lambda=1e-{limit}"],
        ["eval", "a", f"--lambda=0.{'0' * (limit - 1)}1"],
        ["eval", "a", "--lambda=1e999999999"],
        ["eval", "a", "--lambda=-7.25E+999999999"],
        ["check", "assoc-qsh", "--max-len", "2", "--lambda=1e-999999999"],
        ["eval", "a*b", "--lambda", "1e5000"],
        ["eval", f"{nines}*({nines}*a)"],
        ["eval", f"{nines}*({nines}*a)", "--format", "json"],
        ["eval", f"[a^{'9' * limit} a^{'9' * limit}]", "--format", "json"],
        ["check", "assoc-qsh", "--lambda", "1e5000", "--max-len", "2"],
        ["check", "assoc-mqs", "--lambda", "1e3000", "--max-len", "3"],
        ["eval", ""],
        ["eval", "-a"],
        ["eval", "a", "--format="],
        ["eval", "a", "--lambda="],
        ["eval", "2/a"],
        ["eval", "[]"],
        ["eval", "a^b"],
    )


def corpus() -> dict:
    """Part name -> the argv lists of that part, in table order."""
    return {
        "check": list(_check_argvs()),
        "eval": list(_eval_argvs()),
        "exit2": list(_exit2_argvs()),
    }


def run(argv) -> list:
    """[stdout sha256, stderr sha256, exit code] of ``cli.main(argv)``, with
    stdout and stderr captured and argparse's wrap width fixed at 80."""
    from nijalg import cli

    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, COLUMNS="80"):
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
    return [
        hashlib.sha256(out.getvalue().encode()).hexdigest(),
        hashlib.sha256(err.getvalue().encode()).hexdigest(),
        code,
    ]


def check() -> int:
    """Regenerate every row of the table and print each one that differs from
    its pinned row, in argv, digests or exit code, as one JSON line; 1 if any
    row differs, else 0."""
    pinned, generated = json.loads(TABLE.read_text()), corpus()
    total = differ = 0
    for part in sorted(pinned.keys() | generated.keys()):
        rows, argvs = pinned.get(part, []), generated.get(part, [])
        for k in range(max(len(rows), len(argvs))):
            want = rows[k] if k < len(rows) else None
            got = [argvs[k], *run(argvs[k])] if k < len(argvs) else None
            total += 1
            if got != want:
                differ += 1
                print(json.dumps({"part": part, "row": k, "pinned": want, "now": got}))
    print(f"{total - differ} of {total} rows match", file=sys.stderr)
    return 1 if differ else 0


def write() -> None:
    table = {part: [[argv, *run(argv)] for argv in argvs] for part, argvs in corpus().items()}
    with TABLE.open("w") as fh:
        fh.write("{\n")
        for i, (part, rows) in enumerate(table.items()):
            fh.write(f"{json.dumps(part)}: [\n")
            fh.write(",\n".join(json.dumps(row) for row in rows))
            fh.write("\n]" + ("," if i < len(table) - 1 else "") + "\n")
        fh.write("}\n")
    print(f"wrote {sum(map(len, table.values()))} rows to {TABLE.name}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Write or check the pinned CLI corpus.")
    parser.add_argument(
        "--check", action="store_true", help="compare every row with the table; write nothing"
    )
    if parser.parse_args(argv).check:
        return check()
    write()
    return 0


if __name__ == "__main__":
    sys.exit(main())
