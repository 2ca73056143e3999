"""Expression language for the CLI: tokenizer, parser, printer, evaluator.

Grammar (all binary word-products share one precedence level, below +/-,
and associate left; mixed chains should be parenthesized):

    expr   := sum
    sum    := prod (('+'|'-') prod)*
    prod   := [scalar '*'?] atom (binop atom)*
    binop  := '*' | 'sh' | '#' | '@' | '%' | '<' | '>' | '&'
    atom   := word | '(' sum ')' | ('B+'|'B-') '(' sum ')'
    word   := '1' | letter ('.' letter)*
    letter := 'e' | ident ['^' int] | '[' ident ['^' int] (ident ['^' int])* ']'
    ident  := [a-z][a-z0-9_]*  except 'e' and 'sh'
    scalar := int ['/' int]
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Tuple, Union

from .base import MONO_UNIT, Monomial
from .dendriform import DendriformContext
from .errors import EmptyWordTermError, ExprSyntaxError, ReservedSymbolError
from .products import (
    aug_mod_quasi_shuffle,
    aug_quasi_shuffle,
    mod_quasi_shuffle,
    quasi_shuffle,
    shuffle,
)
from .tensor import TensorElement, Word, b_minus, b_plus, word_str

# binary operation tags and their concrete syntax
QSH, SH, AQS, MQS, AMQ, PREC, SUCC, BULLET = (
    "QSH", "SH", "AQS", "MQS", "AMQ", "PREC", "SUCC", "BULLET",
)
BPLUS, BMINUS = "BPLUS", "BMINUS"

BINOP_SYMBOL = {
    QSH: "*", SH: "sh", AQS: "#", MQS: "@", AMQ: "%",
    PREC: "<", SUCC: ">", BULLET: "&",
}
SYMBOL_BINOP = {v: k for k, v in BINOP_SYMBOL.items()}


@dataclass(frozen=True)
class WordLit:
    word: Word


@dataclass(frozen=True)
class Add:
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Sub:
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Scale:
    coeff: Fraction
    child: "Node"


@dataclass(frozen=True)
class BinOp:
    tag: str
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class UnaryOp:
    tag: str
    child: "Node"


Node = Union[WordLit, Add, Sub, Scale, BinOp, UnaryOp]


@dataclass(frozen=True)
class Token:
    kind: str  # NUM | IDENT | BPLUS | BMINUS | SYM | EOF
    text: str
    line: int
    col: int


_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<bplus>B\+)
      | (?P<bminus>B-)
      | (?P<num>\d+)
      | (?P<ident>[a-z][a-z0-9_]*)
      | (?P<sym>[-+*/\#@%<>&().\[\]^])
    """,
    re.X,
)


def tokenize(text: str):
    tokens = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if not match:
            raise ExprSyntaxError(f"unexpected character {text[pos]!r}", line, col)
        lexeme = match.group(0)
        kind = match.lastgroup
        if kind != "ws":
            tokens.append(Token(kind.upper() if kind != "sym" else "SYM", lexeme, line, col))
        newlines = lexeme.count("\n")
        if newlines:
            line += newlines
            col = len(lexeme) - lexeme.rfind("\n")
        else:
            col += len(lexeme)
        pos = match.end()
    tokens.append(Token("EOF", "", line, col))
    return tokens


_ATOM_START = ("NUM", "IDENT", "BPLUS", "BMINUS")

# Deepest accepted nesting of '(' and 'B+(' / 'B-('.  Each level costs about
# four parser frames and one evaluator frame, so this stays well inside
# Python's default recursion limit of 1000 even when called from deep stacks.
MAX_NESTING = 100


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0

    def peek(self, ahead=0) -> Token:
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def error(self, message, expected=()):
        tok = self.peek()
        raise ExprSyntaxError(message, tok.line, tok.col, expected)

    def expect_sym(self, sym: str) -> Token:
        tok = self.peek()
        if tok.kind == "SYM" and tok.text == sym:
            return self.advance()
        self.error(f"expected {sym!r}, got {tok.text or 'end of input'!r}", {sym})

    def at_sym(self, *syms) -> bool:
        tok = self.peek()
        return tok.kind == "SYM" and tok.text in syms

    def at_binop(self) -> bool:
        tok = self.peek()
        if tok.kind == "IDENT" and tok.text == "sh":
            return True
        return tok.kind == "SYM" and tok.text in ("*", "#", "@", "%", "<", ">", "&")

    def at_atom_start(self) -> bool:
        tok = self.peek()
        if tok.kind in _ATOM_START:
            return tok.kind != "IDENT" or tok.text != "sh"
        return tok.kind == "SYM" and tok.text in ("(", "[")

    # ---- grammar ----

    def parse_sum(self) -> Node:
        node = self.parse_prod()
        while self.at_sym("+", "-"):
            op = self.advance().text
            rhs = self.parse_prod()
            node = Add(node, rhs) if op == "+" else Sub(node, rhs)
        return node

    def _starts_scalar(self) -> bool:
        if self.peek().kind != "NUM":
            return False
        nxt = self.peek(1)
        if nxt.kind == "SYM" and nxt.text in ("/", "*"):
            return True
        # "2 a": scalar immediately followed by an atom
        save = self.pos
        self.pos += 1
        try:
            return self.at_atom_start()
        finally:
            self.pos = save

    def parse_prod(self) -> Node:
        coeff = None
        if self._starts_scalar():
            coeff = self.parse_scalar()
            if self.at_sym("*"):
                self.advance()
        node = self.parse_atom()
        if coeff is not None:
            node = Scale(coeff, node)
        while self.at_binop():
            tok = self.advance()
            tag = SH if tok.text == "sh" else SYMBOL_BINOP[tok.text]
            node = BinOp(tag, node, self.parse_atom())
        return node

    def parse_scalar(self) -> Fraction:
        num = int(self.advance().text)
        if self.at_sym("/"):
            self.advance()
            if self.peek().kind != "NUM":
                self.error("expected denominator", {"int"})
            den = int(self.advance().text)
            if den == 0:
                self.error("zero denominator")
            return Fraction(num, den)
        return Fraction(num)

    def parse_atom(self) -> Node:
        tok = self.peek()
        if tok.kind in ("BPLUS", "BMINUS"):
            self.advance()
            self.expect_sym("(")
            return UnaryOp(BPLUS if tok.kind == "BPLUS" else BMINUS, self.parse_nested(tok))
        if self.at_sym("("):
            self.advance()
            return self.parse_nested(tok)
        if tok.kind == "NUM" and tok.text == "1":
            self.advance()
            return WordLit(())
        if tok.kind == "IDENT" or self.at_sym("["):
            return WordLit(self.parse_word())
        self.error(
            f"expected a word, '(' or 'B+'/'B-', got {tok.text or 'end of input'!r}",
            {"word", "(", "B+", "B-"},
        )

    def parse_nested(self, opener: Token) -> Node:
        """The `sum ')'` after ``opener``'s '(', at most MAX_NESTING deep."""
        if self.depth == MAX_NESTING:
            raise ExprSyntaxError(
                f"parentheses nested deeper than {MAX_NESTING} levels", opener.line, opener.col
            )
        self.depth += 1
        inner = self.parse_sum()
        self.expect_sym(")")
        self.depth -= 1
        return inner

    def parse_word(self) -> Word:
        letters = [self.parse_letter()]
        while self.at_sym("."):
            self.advance()
            letters.append(self.parse_letter())
        return tuple(letters)

    def parse_letter(self) -> Monomial:
        if self.at_sym("["):
            self.advance()
            pairs = [self.parse_genexp()]
            while self.peek().kind == "IDENT":
                pairs.append(self.parse_genexp())
            self.expect_sym("]")
            mono = MONO_UNIT
            for name, exp in pairs:
                mono = mono * Monomial.gen(name, exp)
            return mono
        tok = self.peek()
        if tok.kind != "IDENT":
            self.error(
                f"expected a letter, got {tok.text or 'end of input'!r}", {"letter"}
            )
        if tok.text == "e":
            self.advance()
            return MONO_UNIT
        name, exp = self.parse_genexp()
        return Monomial.gen(name, exp)

    def parse_genexp(self) -> Tuple[str, int]:
        tok = self.peek()
        if tok.kind != "IDENT":
            self.error(
                f"expected a generator, got {tok.text or 'end of input'!r}", {"ident"}
            )
        if tok.text == "e":
            raise ReservedSymbolError(
                f"{tok.line}:{tok.col}: 'e' is the unit and cannot name a generator"
            )
        if tok.text == "sh":
            self.error("'sh' is a reserved word and cannot name a generator", {"ident"})
        name = self.advance().text
        exp = 1
        if self.at_sym("^"):
            self.advance()
            if self.peek().kind != "NUM":
                self.error("expected an exponent", {"int"})
            exp = int(self.advance().text)
            if exp < 1:
                self.error("exponents must be positive")
        return name, exp


def parse_expr(text: str) -> Node:
    parser = _Parser(tokenize(text))
    node = parser.parse_sum()
    if parser.peek().kind != "EOF":
        parser.error(f"unexpected trailing input {parser.peek().text!r}")
    return node


def _atom_text(node: Node) -> str:
    """Render a node so it re-parses as a single atom."""
    if isinstance(node, WordLit) and node.word:
        return word_str(node.word)
    if isinstance(node, UnaryOp):
        return to_text(node)
    return f"({to_text(node)})"


def to_text(node: Node) -> str:
    """Deterministic rendering; parse(to_text(ast)) reproduces the AST."""
    if isinstance(node, WordLit):
        return word_str(node.word)
    if isinstance(node, Add):
        rhs = to_text(node.right)
        if isinstance(node.right, (Add, Sub)):
            rhs = f"({rhs})"
        return f"{to_text(node.left)} + {rhs}"
    if isinstance(node, Sub):
        rhs = to_text(node.right)
        if isinstance(node.right, (Add, Sub)):
            rhs = f"({rhs})"
        return f"{to_text(node.left)} - {rhs}"
    if isinstance(node, Scale):
        return f"{node.coeff}*{_atom_text(node.child)}"
    if isinstance(node, BinOp):
        return (
            f"{_atom_text(node.left)} {BINOP_SYMBOL[node.tag]} {_atom_text(node.right)}"
        )
    if isinstance(node, UnaryOp):
        op = "B+" if node.tag == BPLUS else "B-"
        return f"{op}({to_text(node.child)})"
    raise TypeError(f"not an AST node: {node!r}")


def eval_expr(node: Node, lam=1) -> TensorElement:
    """Evaluate an AST onto the tensor module at the given λ."""
    lam = Fraction(lam)
    ctx = DendriformContext(lam)

    def go(n: Node) -> TensorElement:
        if isinstance(n, WordLit):
            return TensorElement.from_word(n.word)
        if isinstance(n, Add):
            return go(n.left) + go(n.right)
        if isinstance(n, Sub):
            return go(n.left) - go(n.right)
        if isinstance(n, Scale):
            return n.coeff * go(n.child)
        try:
            if isinstance(n, UnaryOp):
                child = go(n.child)
                return b_plus(child) if n.tag == BPLUS else b_minus(child)
            left, right = go(n.left), go(n.right)
            if n.tag == QSH:
                return quasi_shuffle(left, right, lam)
            if n.tag == SH:
                return shuffle(left, right)
            if n.tag == AQS:
                return aug_quasi_shuffle(left, right, lam)
            if n.tag == MQS:
                return mod_quasi_shuffle(left, right, lam)
            if n.tag == AMQ:
                return aug_mod_quasi_shuffle(left, right)
            if n.tag == PREC:
                return ctx.prec(left, right)
            if n.tag == SUCC:
                return ctx.succ(left, right)
            if n.tag == BULLET:
                return ctx.bullet(left, right)
        except EmptyWordTermError as err:
            raise EmptyWordTermError(f"{err} (in '{to_text(n)}')") from None
        raise TypeError(f"not an AST node: {n!r}")

    return go(node)
