"""Expression grammar: parser, printer round-trip, and evaluation."""

import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from nijalg import (
    EmptyWordTermError,
    ExprSyntaxError,
    MONO_UNIT,
    Monomial,
    ReservedSymbolError,
    gen,
)
from nijalg import expr
from nijalg.expr import (
    BINOPS,
    Add,
    BinOp,
    Scale,
    Sub,
    UnaryOp,
    Token,
    WordLit,
    _Parser,
    _TOKEN_RE,
    eval_expr,
    line_col,
    parse_expr,
    to_text,
)
from conftest import count_calls, te


def test_parse_examples(ab):
    a, b = ab
    c = gen("c")
    assert parse_expr("a.b * c") == BinOp("*", WordLit((a, b)), WordLit((c,)))
    assert parse_expr("B+(a.b) % c") == BinOp(
        "%", UnaryOp("B+", WordLit((a, b))), WordLit((c,))
    )
    assert parse_expr("1") == WordLit(())
    assert parse_expr("e.a.[a b]") == WordLit((MONO_UNIT, a, a * b))
    assert parse_expr("a^2.b") == WordLit((a * a, b))
    assert parse_expr("[a^2 b]") == WordLit((a * a * b,))
    assert parse_expr("[b a b^2]") == WordLit((Monomial({"a": 1, "b": 3}),))
    assert parse_expr("2/3*a") == Scale(Fraction(2, 3), WordLit((a,)))
    assert parse_expr("2 a.b") == Scale(Fraction(2), WordLit((a, b)))
    assert parse_expr("a + b - c") == Sub(
        Add(WordLit((a,)), WordLit((b,))), WordLit((c,))
    )
    # binops chain left at one precedence level
    assert parse_expr("a * b < c") == BinOp(
        "<", BinOp("*", WordLit((a,)), WordLit((b,))), WordLit((c,))
    )
    assert parse_expr("a sh b") == BinOp("sh", WordLit((a,)), WordLit((b,)))


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


@pytest.mark.parametrize(
    "text, where, message",
    [
        ("3/0 a", "1:3", "zero denominator"),
        ("a^0 + b", "1:3", "exponents must be positive"),
        ("[a b^0]", "1:6", "exponents must be positive"),
    ],
)
def test_a_bad_literal_is_reported_at_its_own_token(text, where, message):
    with pytest.raises(ExprSyntaxError) as err:
        parse_expr(text)
    assert str(err.value) == f"{where}: {message}"


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


@pytest.mark.parametrize(
    "text, product",
    [
        ("a * b", "quasi_shuffle"),
        ("a sh b", "shuffle"),
        ("a # b", "aug_quasi_shuffle"),
        ("a @ b", "mod_quasi_shuffle"),
        ("a % b", "aug_mod_quasi_shuffle"),
        ("B+(a)", "b_plus"),
        ("B-(a)", "b_minus"),
    ],
)
def test_eval_looks_its_products_up_when_called(monkeypatch, text, product):
    # an operation table that kept the product it found at import would
    # escape every later rebinding of it, such as a tracer's wrapper
    calls = count_calls(monkeypatch, expr, product)
    eval_expr(parse_expr(text), 1)
    assert calls


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
        return UnaryOp(rng.choice(("B+", "B-")), random_ast(rng, depth - 1))
    if roll < 0.75:
        node = Add if rng.random() < 0.5 else Sub
        return node(random_ast(rng, depth - 1), random_ast(rng, depth - 1))
    return BinOp(rng.choice(BINOPS), random_ast(rng, depth - 1), random_ast(rng, depth - 1))


def test_printer_parser_round_trip():
    rng = random.Random(20240818)
    for _ in range(1000):
        ast = random_ast(rng, 4)
        assert parse_expr(to_text(ast)) == ast


def test_nodes_are_immutable_values_of_their_type(ab):
    # the round-trip asserts compare ASTs with ==, so == must see node types
    a, b = ab
    x, y = WordLit((a,)), WordLit((b,))
    assert Add(x, y) != Sub(x, y) and not Add(x, y) == Sub(x, y)
    assert x != ((a,),) and ((a,),) != x
    same = Add(WordLit((a,)), WordLit((b,)))
    assert same == Add(x, y) and hash(same) == hash(Add(x, y)) and Add(y, x) != same
    node = BinOp("*", Scale(Fraction(2), x), UnaryOp("B+", y))
    assert repr(node) == (
        "BinOp(tag='*', left=Scale(coeff=Fraction(2, 1), child=WordLit(word=(Monomial(a),))), "
        "right=UnaryOp(tag='B+', child=WordLit(word=(Monomial(b),))))"
    )
    assert pickle.loads(pickle.dumps(node)) == node
    # anything else is no node: it has neither text nor value
    for convert in (to_text, eval_expr):
        with pytest.raises(TypeError, match="not an AST node"):
            convert(((a,),))
    for field in ("tag", "left", "right"):
        with pytest.raises(AttributeError):
            setattr(node, field, x)


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


def eager_tokenize(text):
    """The reference lexer: the whole input, token by token from the start,
    tracking line and column as it goes; a token also records its offset."""
    tokens = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if not match:
            raise ExprSyntaxError(f"unexpected character {text[pos]!r}", line, col)
        lexeme = match.group(0)
        if match.lastgroup != "WS":
            tokens.append((Token(match.lastgroup, lexeme, pos), line, col))
        newlines = lexeme.count("\n")
        if newlines:
            line += newlines
            col = len(lexeme) - lexeme.rfind("\n")
        else:
            col += len(lexeme)
        pos = match.end()
    tokens.append((Token("EOF", "", pos), line, col))
    return tokens


def reference_parse(text):
    """Tokenize all of ``text`` first, then parse the token list."""
    tokens = eager_tokenize(text)
    for tok, line, col in tokens:
        assert line_col(text, tok.pos) == (line, col)
    parser = _Parser(text, iter([tok for tok, _, _ in tokens]))
    node = parser.parse_sum()
    if parser.tok.kind != "EOF":
        parser.error(f"unexpected trailing input {parser.tok.text!r}")
    return node


def _outcome(parse, text):
    try:
        return parse(text)
    except (ExprSyntaxError, ReservedSymbolError) as err:
        return type(err), str(err), getattr(err, "line", None), getattr(err, "col", None)


# the grammar's characters and words, '_' and a lone 'B', characters no token
# starts with, non-ASCII digits (which lex as NUM) and line breaks
_PIECES = list("abcex_0129 B+-*/#@%<>&().[]^$é\n\t") + [
    "sh", "B+(", "B-(", "x_1", "a^2", "2/3", "\u0663", "\uff11", "\r\n", "\x85", "1_",
]


@settings(derandomize=True, deadline=None, database=None, max_examples=800)
@given(st.lists(st.sampled_from(_PIECES), max_size=24).map("".join))
def test_streaming_parser_matches_the_eager_tokenizer(text):
    assert _outcome(parse_expr, text) == _outcome(reference_parse, text)


def test_lexical_errors_win_over_earlier_parse_errors():
    for text, where in (("a * * b $", "1:9"), ("(" * 300 + "_", "1:301"), ("a^0\n 1_", "2:3")):
        with pytest.raises(ExprSyntaxError) as err:
            parse_expr(text)
        assert str(err.value).startswith(f"{where}: unexpected character")


def test_over_nested_input_is_read_only_up_to_the_bound(monkeypatch):
    from nijalg.expr import MAX_NESTING

    lexed = []
    monkeypatch.setattr(expr, "Token", lambda *args: lexed.append(Token(*args)) or lexed[-1])
    text = "(" * 499_999 + "a" + ")" * 500_000
    assert len(text) == 10**6
    with pytest.raises(ExprSyntaxError) as err:
        parse_expr(text)
    assert str(err.value) == f"1:{MAX_NESTING + 1}: parentheses nested deeper than {MAX_NESTING} levels"
    assert len(lexed) <= MAX_NESTING + 3
