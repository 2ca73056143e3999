"""Expression grammar: parser, printer round-trip, and evaluation."""

import random
from fractions import Fraction

import pytest

from nijalg import (
    EmptyWordTermError,
    ExprSyntaxError,
    MONO_UNIT,
    Monomial,
    ReservedSymbolError,
    gen,
)
from nijalg.expr import (
    AMQ,
    Add,
    BPLUS,
    BMINUS,
    BinOp,
    MQS,
    PREC,
    QSH,
    SH,
    Scale,
    Sub,
    UnaryOp,
    WordLit,
    eval_expr,
    parse_expr,
    to_text,
)
from conftest import te


def test_parse_examples(ab):
    a, b = ab
    c = gen("c")
    assert parse_expr("a.b * c") == BinOp(QSH, WordLit((a, b)), WordLit((c,)))
    assert parse_expr("B+(a.b) % c") == BinOp(
        AMQ, UnaryOp(BPLUS, WordLit((a, b))), WordLit((c,))
    )
    assert parse_expr("1") == WordLit(())
    assert parse_expr("e.a.[a b]") == WordLit((MONO_UNIT, a, a * b))
    assert parse_expr("a^2.b") == WordLit((a * a, b))
    assert parse_expr("[a^2 b]") == WordLit((a * a * b,))
    assert parse_expr("2/3*a") == Scale(Fraction(2, 3), WordLit((a,)))
    assert parse_expr("2 a.b") == Scale(Fraction(2), WordLit((a, b)))
    assert parse_expr("a + b - c") == Sub(
        Add(WordLit((a,)), WordLit((b,))), WordLit((c,))
    )
    # binops chain left at one precedence level
    assert parse_expr("a * b < c") == BinOp(
        PREC, BinOp(QSH, WordLit((a,)), WordLit((b,))), WordLit((c,))
    )
    assert parse_expr("a sh b") == BinOp(SH, WordLit((a,)), WordLit((b,)))


def test_parse_errors():
    with pytest.raises(ExprSyntaxError) as err:
        parse_expr("a..b")
    assert err.value.line == 1 and err.value.col == 3
    with pytest.raises(ExprSyntaxError):
        parse_expr("a * ")
    with pytest.raises(ExprSyntaxError):
        parse_expr("(a + b")
    with pytest.raises(ExprSyntaxError):
        parse_expr("a ) b")
    with pytest.raises(ExprSyntaxError):
        parse_expr("sh")
    with pytest.raises(ReservedSymbolError):
        parse_expr("[e a]")
    with pytest.raises(ExprSyntaxError):
        parse_expr("a^0")


def test_eval_examples(ab):
    a, b = ab
    assert str(eval_expr(parse_expr("a * b"), 1)) == "-[a b] + a.b + b.a"
    assert eval_expr(parse_expr("e % a.b"), 1) == te(a, b)
    assert str(eval_expr(parse_expr("B-(a)"), 1)) == "1"
    assert eval_expr(parse_expr("a @ b"), 2) == te(a, b) + te(b, a) - 2 * te(
        MONO_UNIT, a * b
    )
    assert eval_expr(parse_expr("2*a + 1/2*b - b"), 1) == 2 * te(a) - Fraction(1, 2) * te(b)
    assert eval_expr(parse_expr("a < b"), 0) == te(a, b)
    assert eval_expr(parse_expr("a > b"), 0) == te(b, a)
    assert eval_expr(parse_expr("a & b"), 1) == -te(a * b)
    assert eval_expr(parse_expr("a sh b"), 5) == te(a, b) + te(b, a)
    assert eval_expr(parse_expr("a # b"), 1) == te(a * b)


def test_eval_surfaces_offending_subexpression(ab):
    with pytest.raises(EmptyWordTermError) as err:
        eval_expr(parse_expr("B-(1)"), 1)
    assert "B-(1)" in str(err.value)
    with pytest.raises(EmptyWordTermError) as err:
        eval_expr(parse_expr("a # (b - b + 1)"), 1)
    assert "#" in str(err.value)


_LETTER_POOL = None


def _letter_pool():
    global _LETTER_POOL
    if _LETTER_POOL is None:
        a, b, c = gen("a"), gen("b"), gen("c")
        _LETTER_POOL = [
            MONO_UNIT,
            a,
            b,
            c,
            a * a,
            a * b,
            Monomial({"a": 2, "b": 1}),
            gen("x_1"),
        ]
    return _LETTER_POOL


def random_ast(rng, depth):
    roll = rng.random()
    if depth <= 0 or roll < 0.35:
        word = tuple(rng.choice(_letter_pool()) for _ in range(rng.randint(0, 3)))
        return WordLit(word)
    if roll < 0.45:
        return Scale(
            Fraction(rng.randint(1, 9), rng.randint(1, 9)), random_ast(rng, depth - 1)
        )
    if roll < 0.55:
        return UnaryOp(rng.choice((BPLUS, BMINUS)), random_ast(rng, depth - 1))
    if roll < 0.75:
        node = Add if rng.random() < 0.5 else Sub
        return node(random_ast(rng, depth - 1), random_ast(rng, depth - 1))
    tag = rng.choice((QSH, SH, "AQS", MQS, AMQ, PREC, "SUCC", "BULLET"))
    return BinOp(tag, random_ast(rng, depth - 1), random_ast(rng, depth - 1))


def test_printer_parser_round_trip():
    rng = random.Random(20240818)
    for _ in range(1000):
        ast = random_ast(rng, 4)
        assert parse_expr(to_text(ast)) == ast


def _same_binop_chain(x, y):
    """AST equality for a long left-deep binop chain, without recursing."""
    while isinstance(x, BinOp) and isinstance(y, BinOp):
        if (x.tag, x.right) != (y.tag, y.right):
            return False
        x, y = x.left, y.left
    return x == y


def test_binop_chains_print_without_nesting():
    for terms in (102, 3000):
        for text in (" sh ".join(["1"] * terms), " * ".join(["a", "b.c"] * (terms // 2))):
            ast = parse_expr(text)
            printed = to_text(ast)
            assert "((" not in printed
            assert _same_binop_chain(parse_expr(printed), ast)
    assert to_text(parse_expr("(a * b) * c")) == "a * b * c"
    assert to_text(parse_expr("a * (b * c)")) == "a * (b * c)"
    assert to_text(parse_expr("(2 a * b) # c")) == "(2*a) * b # c"


def test_printer_is_deterministic():
    rng = random.Random(5)
    asts = [random_ast(rng, 3) for _ in range(50)]
    assert [to_text(a) for a in asts] == [to_text(a) for a in asts]


def test_nesting_bound():
    from nijalg.expr import MAX_NESTING

    for opener in ("(", "B+(", "B-(", "(B+("):
        depth = MAX_NESTING // opener.count("(")
        closer = ")" * opener.count("(")
        assert parse_expr(opener * depth + "a" + closer * depth)
        for too_deep in (depth + 1, 3000):
            with pytest.raises(ExprSyntaxError) as err:
                parse_expr(opener * too_deep + "a" + closer * too_deep)
            assert f"nested deeper than {MAX_NESTING} levels" in str(err.value)
    # the error points at the first opener past the bound
    with pytest.raises(ExprSyntaxError) as err:
        parse_expr("B+(" * (MAX_NESTING + 1) + "a" + ")" * (MAX_NESTING + 1))
    assert (err.value.line, err.value.col) == (1, 3 * MAX_NESTING + 1)


def test_eval_at_the_nesting_bound(ab):
    from nijalg.expr import MAX_NESTING

    a, b = ab
    depth = MAX_NESTING
    assert eval_expr(parse_expr("(" * depth + "a * b" + ")" * depth), 1) == eval_expr(
        parse_expr("a * b"), 1
    )
    assert eval_expr(parse_expr("B+(" * depth + "a" + ")" * depth), 1) == te(
        *(MONO_UNIT,) * depth, a
    )
    with pytest.raises(EmptyWordTermError):
        eval_expr(parse_expr("B-(" * depth + "a" + ")" * depth), 1)
